"""SDM hybrid router: plane-sliced datapath (S12).

The router keeps ``planes * num_vcs`` data VCs per input port (VC index
``plane * num_vcs + i``) plus the config escape VC.  Each plane owns a
slice of every link and of the crossbar, so switch allocation grants up
to one flit per (output port, plane) pair per cycle, with the input-side
constraint applied per (input port, plane).

Circuit state per router:

* ``cs_route[inport][plane]``   -> reserved output port (or -1)
* ``plane_owner[outport][plane]`` -> owning connection id (or -1)

Setup messages carry the chosen plane in their payload ``slot_id`` field
(plane continuity: the same plane must be free on every hop, which is
what fundamentally limits the number of simultaneous circuits — the
paper's argument for TDM).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.config import CACHE_LINE_BYTES, NetworkConfig
from repro.network.buffers import InputPort
from repro.network.flit import ConfigType, Flit, FlitKind, MessageClass
from repro.network.router import EJECT_CREDITS, PacketRouter
from repro.network.topology import LOCAL, Mesh, NUM_PORTS


def sdm_packet_size(cfg: NetworkConfig, kind: str) -> int:
    """Packet sizes in *narrow* (plane-width) flits."""
    plane_w = cfg.router.channel_width_bytes // cfg.sdm.planes
    if plane_w < 1:
        raise ValueError("more planes than channel bytes")
    d = -(-CACHE_LINE_BYTES // plane_w)
    sizes = {"config": 1, "ctrl": 1, "cs_data": d, "ps_data": d + 1}
    try:
        return sizes[kind]
    except KeyError:
        raise ValueError(f"unknown packet kind {kind!r}") from None


class SDMRouter(PacketRouter):
    """Plane-partitioned hybrid router."""

    def __init__(self, node: int, cfg: NetworkConfig, mesh: Mesh) -> None:
        self.planes = cfg.sdm.planes
        super().__init__(node, cfg, mesh)
        v = cfg.router.num_vcs
        # rebuild the input ports with planes*num_vcs data VCs + config VC
        self.total_vcs = self.planes * v + 1
        self.config_vc = self.planes * v
        self.in_ports = [
            _PlanedInputPort(self.planes, v, cfg.router.vc_depth,
                             cfg.router.config_vc_depth)
            for _ in range(NUM_PORTS)
        ]
        self.credits = [[0] * self.total_vcs for _ in range(NUM_PORTS)]
        self.out_vc_owner = [[None] * self.total_vcs for _ in range(NUM_PORTS)]
        self._sa_ptr = [0] * (NUM_PORTS * self.planes)
        # VC allocation keeps a packet on its plane: a data VC of plane p
        # claims a downstream VC in p's range
        self._va_base = [vc // v * v for vc in range(self.total_vcs)]

        # circuit state
        self.cs_route: List[List[int]] = [
            [-1] * self.planes for _ in range(NUM_PORTS)]
        self.plane_owner: List[List[int]] = [
            [-1] * self.planes for _ in range(NUM_PORTS)]
        self._cs_in_used: List[List[bool]] = [
            [False] * self.planes for _ in range(NUM_PORTS)]
        self._cs_out_used: List[List[bool]] = [
            [False] * self.planes for _ in range(NUM_PORTS)]
        #: True while any plane-usage flag is set (derived from the flag
        #: lists, recomputed on restore, never snapshot state)
        self._cs_flags_dirty = False
        self._no_planes = [False] * self.planes
        self._used_in_scratch = [[False] * self.planes
                                 for _ in range(NUM_PORTS)]
        self._cs_inject: Dict[int, List] = {}
        self.on_setup_rejected: Optional[Callable] = None

    # ------------------------------------------------------------------
    def connect_output(self, outport, link, credit_from, downstream,
                       downstream_depth, downstream_config_depth):
        super().connect_output(outport, link, credit_from, downstream,
                               downstream_depth, downstream_config_depth)
        if outport == LOCAL:
            self.credits[outport] = [EJECT_CREDITS] * self.total_vcs
        else:
            self.credits[outport] = (
                [downstream_depth] * (self.planes * self.rcfg.num_vcs)
                + [downstream_config_depth])

    def plane_of_vc(self, vc: int) -> int:
        return vc // self.rcfg.num_vcs

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def transfer(self, cycle: int) -> None:
        if self._cs_flags_dirty:
            cleared = self._no_planes
            for row in self._cs_in_used:
                row[:] = cleared
            for row in self._cs_out_used:
                row[:] = cleared
            self._cs_flags_dirty = False
        self._write_arrivals(cycle)
        if self._cs_inject:
            self._process_cs_injections(cycle)
        if self._buffered_flits:
            self._route_and_va(cycle)
            self._sa_st(cycle)

    def sim_idle(self, cycle: int) -> bool:
        """Idle iff the packet pipeline is idle and no circuit activity is
        pending.  The plane-usage flags are reset at the *start* of the
        next :meth:`transfer`, so a router that carried circuit traffic
        this cycle stays awake one extra cycle to run that reset."""
        if self._cs_inject or self._cs_flags_dirty:
            return False
        return PacketRouter.sim_idle(self, cycle)

    # ------------------------------------------------------------------
    # circuit datapath
    # ------------------------------------------------------------------
    def _demux_circuit(self, inport: int, flit: Flit, cycle: int) -> None:
        plane = flit.packet.plane
        outport = self.cs_route[inport][plane]
        if outport < 0:
            # reservation vanished (teardown race): eject for hop-off
            self.counters.inc("cs_orphan")
            if self.obs.enabled:
                self.obs.cs_orphan(cycle, self._obs_track,
                                   flit.packet.id, "orphan")
            flit.is_circuit = False
            flit.packet.circuit = False
            self._cs_traverse(inport, LOCAL, plane, flit, cycle, orphan=True)
            return
        self._cs_traverse(inport, outport, plane, flit, cycle)

    def _cs_traverse(self, inport: int, outport: int, plane: int,
                     flit: Flit, cycle: int, orphan: bool = False) -> None:
        self._cs_in_used[inport][plane] = True
        self._cs_flags_dirty = True
        if not orphan:
            self._cs_out_used[outport][plane] = True
        self.counters.inc("cs_xbar")
        self.counters.inc("cs_latch")
        if outport != LOCAL:
            self.counters.inc("link_narrow")
        flit.packet.hops_taken += 1
        self.out_links[outport].send(flit, cycle)

    def schedule_cs_injection(self, cycle: int, flit: Flit, on_ok: Callable,
                              on_fail: Callable, token: dict) -> None:
        self._cs_inject.setdefault(cycle, []).append(
            (flit, on_ok, on_fail, token))
        self.sim_wake()

    def _process_cs_injections(self, cycle: int) -> None:
        injections = self._cs_inject.pop(cycle, None)
        if not injections:
            return
        for flit, on_ok, on_fail, token in injections:
            if token.get("cancelled"):
                continue
            plane = flit.packet.plane
            outport = self.cs_route[LOCAL][plane]
            if outport < 0 or self._cs_in_used[LOCAL][plane] \
                    or self._cs_out_used[outport][plane]:
                on_fail(flit)
                continue
            self._cs_traverse(LOCAL, outport, plane, flit, cycle)
            on_ok(flit)

    # ------------------------------------------------------------------
    # snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Packet-router state plus plane reservations and the pending
        circuit-injection schedule (callbacks excluded, rebuilt via
        :meth:`rebind_cs_injections` — see the TDM router)."""
        state = super().state_dict()
        state.update({
            "cs_route": [list(row) for row in self.cs_route],
            "plane_owner": [list(row) for row in self.plane_owner],
            "cs_in_used": [list(row) for row in self._cs_in_used],
            "cs_out_used": [list(row) for row in self._cs_out_used],
            "cs_inject": {
                cycle: [(flit, token) for flit, _ok, _fail, token in lst]
                for cycle, lst in self._cs_inject.items()},
        })
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.cs_route = [list(row) for row in state["cs_route"]]
        self.plane_owner = [list(row) for row in state["plane_owner"]]
        self._cs_in_used = [list(row) for row in state["cs_in_used"]]
        self._cs_out_used = [list(row) for row in state["cs_out_used"]]
        self._cs_flags_dirty = any(True in row for row in self._cs_in_used
                                   + self._cs_out_used)
        self._cs_inject_raw = state["cs_inject"]
        self._cs_inject = {}

    def rebind_cs_injections(self, ni) -> None:
        raw = getattr(self, "_cs_inject_raw", None)
        if raw is None:
            return
        del self._cs_inject_raw
        self._cs_inject = {
            cycle: [(flit, *ni.make_cs_callbacks(token), token)
                    for flit, token in entries]
            for cycle, entries in raw.items()}

    # ------------------------------------------------------------------
    # plane-parallel switch allocation + traversal
    # ------------------------------------------------------------------
    def _sa_st(self, cycle: int) -> None:
        """Up to one grant per (output port, plane) plus one on the config
        escape slice, with the input-side constraint per (input port,
        plane); traversal is inlined.

        PS stealing of idle circuit planes is implicit: a plane is only
        skipped when a circuit flit actually used it this cycle.  The
        config slice neither checks nor claims a plane input.
        """
        owned = self._owned_out
        out_links = self.out_links
        in_ports = self.in_ports
        planes = self.planes
        v = self.rcfg.num_vcs
        config_vc = self.config_vc
        total_vcs = self.total_vcs
        sa_ptr = self._sa_ptr
        mod = NUM_PORTS * total_vcs
        port_buffered = self._port_buffered
        counts = self.counters._counts
        used_in = None
        for outport in range(NUM_PORTS):
            if not owned[outport] or out_links[outport] is None:
                continue
            if used_in is None:
                used_in = self._used_in_scratch
                for i, row in enumerate(self._cs_in_used):
                    used_in[i][:] = row
            owners = self.out_vc_owner[outport]
            credits = self.credits[outport]
            cs_out = self._cs_out_used[outport]
            # slice -1 is the config escape VC, slices 0.. the planes
            for plane in range(-1, planes):
                if plane < 0:
                    ovc = config_vc
                    owner = owners[ovc]
                    if owner is None or credits[ovc] <= 0:
                        continue
                    inport, invc = owner
                    vfifo = in_ports[inport].vcs[invc].fifo
                    if not vfifo or cycle < vfifo[0].ready_cycle:
                        continue
                else:
                    if cs_out[plane]:
                        continue
                    # single-pass round-robin pick within the plane
                    ptr_idx = outport * planes + plane
                    ptr = sa_ptr[ptr_idx]
                    owner = None
                    winner_key = mod
                    n_candidates = 0
                    base = plane * v
                    for cand in range(base, base + v):
                        o = owners[cand]
                        if o is None or credits[cand] <= 0:
                            continue
                        inport, invc = o
                        if used_in[inport][plane]:
                            continue
                        vfifo = in_ports[inport].vcs[invc].fifo
                        if not vfifo or cycle < vfifo[0].ready_cycle:
                            continue
                        n_candidates += 1
                        key = (inport * total_vcs + invc - ptr) % mod
                        if key < winner_key:
                            winner_key = key
                            owner = o
                            ovc = cand
                    if owner is None:
                        continue
                    inport, invc = owner
                    if n_candidates > 1:
                        sa_ptr[ptr_idx] = inport * total_vcs + invc + 1
                    used_in[inport][plane] = True
                counts["sw_arb"] = counts.get("sw_arb", 0) + 1
                # traversal: narrow-flit link accounting (1/planes of a
                # full-width traversal)
                vcobj = in_ports[inport].vcs[invc]
                flit = vcobj.fifo.popleft()
                self._buffered_flits -= 1
                port_buffered[inport] -= 1
                counts["buffer_read"] = counts.get("buffer_read", 0) + 1
                counts["xbar"] = counts.get("xbar", 0) + 1
                clink = self.credit_out[inport]
                if clink is not None:
                    clink._pipe.append((cycle + clink.latency, invc))
                    ws = clink.wake_sink
                    if ws is not None and not ws._sim_awake:
                        ws.sim_wake()
                flit.vc = ovc
                if outport != LOCAL:
                    credits[ovc] -= 1
                    counts["link_narrow"] = counts.get("link_narrow", 0) + 1
                flit.packet.hops_taken += 1
                kind = flit.kind
                if kind is FlitKind.TAIL or kind is FlitKind.HEAD_TAIL:
                    owners[ovc] = None
                    owned[outport] -= 1
                    vcobj.route_outport = None
                    vcobj.out_vc = None
                ol = out_links[outport]
                ol._pipe.append((cycle + ol.latency, flit))
                ol.flits_carried += 1
                ws = ol.wake_sink
                if ws is not None and not ws._sim_awake:
                    ws.sim_wake()

    # ------------------------------------------------------------------
    # configuration processing: plane reservation
    # ------------------------------------------------------------------
    def _compute_route(self, inport: int, head: Flit,
                       cycle: int) -> Optional[int]:
        pkt = head.packet
        if pkt.mclass != MessageClass.CONFIG:
            return super()._compute_route(inport, head, cycle)
        payload = pkt.msg.payload
        if payload.ctype == ConfigType.SETUP:
            return self._process_setup(inport, pkt, payload, cycle)
        if payload.ctype == ConfigType.TEARDOWN:
            return self._process_teardown(inport, payload, cycle)
        return self._route_adaptive(pkt)

    def _process_setup(self, inport: int, pkt, payload,
                       cycle: int) -> Optional[int]:
        plane = payload.slot_id  # plane index rides the slot_id field
        if pkt.dst == self.node:
            outport = LOCAL
        else:
            from repro.network.routing import xy_outport
            outport = xy_outport(self.mesh, self.node, pkt.dst)
        free = (self.cs_route[inport][plane] < 0
                and self.plane_owner[outport][plane] < 0)
        if free:
            self.cs_route[inport][plane] = outport
            self.plane_owner[outport][plane] = payload.conn_id
            self.counters.inc("plane_reserved")
            if self.obs.enabled:
                self.obs.cs_setup(cycle, self._obs_track,
                                  payload.conn_id, "reserve",
                                  plane=plane, outport=outport)
            return LOCAL if outport == LOCAL else outport
        self.counters.inc("setup_rejected")
        if self.obs.enabled:
            self.obs.cs_setup(cycle, self._obs_track,
                              payload.conn_id, "reject")
        if self.on_setup_rejected is not None:
            self.on_setup_rejected(payload, cycle)
        return None

    def _process_teardown(self, inport: int, payload,
                          cycle: int) -> Optional[int]:
        plane = payload.slot_id
        outport = self.cs_route[inport][plane]
        if outport < 0:
            return None
        if self.plane_owner[outport][plane] != payload.conn_id:
            return None
        self.cs_route[inport][plane] = -1
        self.plane_owner[outport][plane] = -1
        if self.obs.enabled:
            self.obs.cs_teardown(cycle, self._obs_track,
                                 payload.conn_id, "release")
        if outport == LOCAL:
            return None
        return outport


class _PlanedInputPort(InputPort):
    """Input port with planes*num_vcs data VCs plus the config VC."""

    def __init__(self, planes: int, num_vcs: int, vc_depth: int,
                 config_vc_depth: int) -> None:
        super().__init__(planes * num_vcs, vc_depth, config_vc_depth)
