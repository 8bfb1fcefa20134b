"""TDM hybrid-switched router (S6, Section II-D and Figure 2).

Extends the canonical VC wormhole router with:

* per-input-port slot tables and the arrival demultiplexer — an arriving
  flit whose slot-table entry is valid *and* whose circuit lookahead bit
  is set proceeds through the pre-configured crossbar in a single cycle
  (no buffering), reaching the downstream router two cycles later;
* circuit-switched injections from the local NI, including hitchhiker
  injections onto circuits passing through this router (Section III-A1);
* time-slot stealing — a packet-switched flit may use the crossbar in a
  reserved slot whose circuit flit did not show up (the upstream 1-bit
  signal is modelled by inspecting actual arrivals, which the simulator
  knows exactly);
* in-router processing of setup/teardown configuration messages at
  route-compute time (Section II-B / Figure 1).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.config import NetworkConfig
from repro.core.slot_table import RouterSlotState, SlotClock
from repro.network.flit import ConfigType, Flit, MessageClass
from repro.network.router import PacketRouter
from repro.network.topology import LOCAL, Mesh, NUM_PORTS


class CSInjection:
    """One scheduled circuit-switched flit injection at the local port."""

    __slots__ = ("flit", "expected_outport", "on_ok", "on_fail", "token")

    def __init__(self, flit: Flit, expected_outport: Optional[int],
                 on_ok: Callable, on_fail: Callable, token: dict) -> None:
        self.flit = flit
        self.expected_outport = expected_outport
        self.on_ok = on_ok
        self.on_fail = on_fail
        self.token = token  # shared per-packet dict with 'cancelled' flag


class HybridRouter(PacketRouter):
    """Hybrid-switched router: packet pipeline + TDM circuit pipeline."""

    def __init__(self, node: int, cfg: NetworkConfig, mesh: Mesh,
                 clock: SlotClock) -> None:
        super().__init__(node, cfg, mesh)
        self.clock = clock
        #: the shared switch allocator reads its output slot-owner rows
        self.slot_state = RouterSlotState(clock, cfg.slot_table.reserve_cap)
        self.dlt = None                      # node DLT (sharing enabled)
        #: manager callback for setups this router rejects
        self.on_setup_rejected: Optional[Callable] = None
        self._cs_inject: Dict[int, List[CSInjection]] = {}
        #: True while any crossbar-usage flag is set — lets transfer skip
        #: the per-port reset loops on circuit-free cycles (derived from
        #: the flag lists, recomputed on restore, never snapshot state)
        self._cs_flags_dirty = False

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def transfer(self, cycle: int) -> None:
        if self._cs_flags_dirty:
            cs_in = self._cs_in_used
            cs_out = self._cs_out_used
            for i in range(NUM_PORTS):
                cs_in[i] = False
                cs_out[i] = False
            self._cs_flags_dirty = False
        self._write_arrivals(cycle)
        if self._cs_inject:
            self._process_cs_injections(cycle)
        if self._buffered_flits:
            self._route_and_va(cycle)
            self._sa_st(cycle)
        if self.gating is not None:
            self._sample_utilisation()

    def sim_idle(self, cycle: int) -> bool:
        """Packet-side idleness plus: no scheduled circuit injection and
        the crossbar-usage flags have settled back to all-False (they
        are reset at the *start* of the next transfer, so a router that
        carried a circuit flit this cycle stays awake one more cycle to
        run that reset — keeping its snapshot identical to legacy's)."""
        if self._cs_inject or self._cs_flags_dirty:
            return False
        return PacketRouter.sim_idle(self, cycle)

    # ------------------------------------------------------------------
    # circuit-switched datapath
    # ------------------------------------------------------------------
    def _demux_circuit(self, inport: int, flit: Flit, cycle: int) -> None:
        """Circuit-arrival leg of the slot-table demux (the slot read is
        counted by ``_write_arrivals``)."""
        slot = self.clock.slot(cycle)
        hit = self.slot_state.lookup_in(inport, slot)
        if hit is not None:
            self._cs_traverse(inport, hit[0], flit, cycle)
            return
        # Orphaned circuit flit: its reservation disappeared mid-flight
        # (teardown race or a dynamic-sizing table reset).  Eject it here;
        # the NI's hop-off path forwards the packet to its destination
        # through the packet-switched network.
        self.counters.inc("cs_orphan")
        if self.obs.enabled:
            self.obs.cs_orphan(cycle, self._obs_track,
                               flit.packet.id, "orphan")
        flit.is_circuit = False
        flit.packet.circuit = False
        self._cs_traverse(inport, LOCAL, flit, cycle, orphan=True)

    def _cs_traverse(self, inport: int, outport: int, flit: Flit,
                     cycle: int, orphan: bool = False) -> None:
        """Single-cycle circuit traversal through the crossbar."""
        self._cs_in_used[inport] = True
        self._cs_flags_dirty = True
        if not orphan:
            # an orphan ejection does not really use a reserved output
            self._cs_out_used[outport] = True
        counts = self.counters._counts
        counts["cs_xbar"] = counts.get("cs_xbar", 0) + 1
        counts["cs_latch"] = counts.get("cs_latch", 0) + 1
        if outport != LOCAL:
            counts["link"] = counts.get("link", 0) + 1
        flit.packet.hops_taken += 1
        ol = self.out_links[outport]
        ol._pipe.append((cycle + ol.latency, flit))
        ol.flits_carried += 1
        ws = ol.wake_sink
        if ws is not None and not ws._sim_awake:
            ws.sim_wake()

    # ------------------------------------------------------------------
    def schedule_cs_injection(self, cycle: int, flit: Flit,
                              expected_outport: Optional[int],
                              on_ok: Callable, on_fail: Callable,
                              token: dict) -> None:
        """Register a circuit flit to enter the local crossbar input at
        exactly *cycle* (the NI computed the slot-aligned time)."""
        inj = CSInjection(flit, expected_outport, on_ok, on_fail, token)
        self._cs_inject.setdefault(cycle, []).append(inj)
        self.sim_wake()

    def _process_cs_injections(self, cycle: int) -> None:
        injections = self._cs_inject.pop(cycle, None)
        if not injections:
            return
        slot = self.clock.slot(cycle)
        for inj in injections:
            if inj.token.get("cancelled"):
                continue
            if self._cs_in_used[LOCAL]:
                inj.on_fail(inj.flit)
                continue
            if inj.expected_outport is None:
                # own connection: the local input table holds the route
                self.counters.inc("slot_read")
                hit = self.slot_state.lookup_in(LOCAL, slot)
                if hit is None:
                    inj.on_fail(inj.flit)   # stale connection
                    continue
                outport, _conn = hit
            else:
                # hitchhiker: ride an idle reserved slot of a circuit
                # passing through this router (Section III-A1)
                outport = inj.expected_outport
                self.counters.inc("slot_read")
                if (not self.slot_state.output_reserved(outport, slot)
                        or self._cs_out_used[outport]):
                    inj.on_fail(inj.flit)   # contention with the owner
                    continue
            if self._cs_out_used[outport]:
                inj.on_fail(inj.flit)
                continue
            self._cs_traverse(LOCAL, outport, inj.flit, cycle)
            inj.on_ok(inj.flit)

    # ------------------------------------------------------------------
    # snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Packet-router state plus slot tables, the node DLT and the
        pending circuit-injection schedule.

        CSInjection callbacks are closures over the NI and cannot be
        serialized: only ``(flit, expected_outport, token)`` is captured
        and the network-level load rebinds fresh callbacks through
        :meth:`rebind_cs_injections` (the token dict carries everything
        the NI needs, and its identity is shared with the NI's own
        outstanding-circuit state through the one-pass freeze)."""
        state = super().state_dict()
        state.update({
            "slot_tables": list(self.slot_state.in_tables),
            "out_owner": [list(row) for row in self.slot_state.out_owner],
            "dlt": self.dlt,
            "cs_inject": {
                cycle: [(inj.flit, inj.expected_outport, inj.token)
                        for inj in lst]
                for cycle, lst in self._cs_inject.items()},
            "cs_in_used": list(self._cs_in_used),
            "cs_out_used": list(self._cs_out_used),
        })
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.slot_state.in_tables = list(state["slot_tables"])
        self.slot_state.out_owner = [list(row) for row in state["out_owner"]]
        self.dlt = state["dlt"]
        self._cs_in_used = list(state["cs_in_used"])
        self._cs_out_used = list(state["cs_out_used"])
        self._cs_flags_dirty = (any(self._cs_in_used)
                                or any(self._cs_out_used))
        # callbacks are rebuilt once the NI reference is known
        self._cs_inject_raw = state["cs_inject"]
        self._cs_inject = {}

    def rebind_cs_injections(self, ni) -> None:
        """Rebuild the pending-injection schedule with fresh NI-bound
        callbacks (called by the network after both sides loaded)."""
        raw = getattr(self, "_cs_inject_raw", None)
        if raw is None:
            return
        del self._cs_inject_raw
        self._cs_inject = {
            cycle: [CSInjection(flit, exp, *ni.make_cs_callbacks(token), token)
                    for flit, exp, token in entries]
            for cycle, entries in raw.items()}

    # ------------------------------------------------------------------
    # configuration-message processing (Section II-B)
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
            return self._process_teardown(inport, pkt, payload, cycle)
        # acknowledgements route adaptively like any config packet
        return self._route_adaptive(pkt)

    def _process_setup(self, inport: int, pkt, payload,
                       cycle: int) -> Optional[int]:
        if payload.generation != self.clock.generation:
            # the wheel was resized while this setup travelled: its slot
            # arithmetic is stale, and any prefix it reserved was wiped
            # by the reset — reject so no unreachable reservation forms
            self.counters.inc("setup_stale")
            if self.obs.enabled:
                self.obs.cs_setup(cycle, self._obs_track,
                                  payload.conn_id, "stale")
            if self.on_setup_rejected is not None:
                self.on_setup_rejected(payload, cycle)
            return None
        st = self.slot_state
        dur = payload.duration
        slot = self.clock.wrap(payload.slot_id)
        if pkt.dst == self.node:
            candidates = [LOCAL]
        else:
            candidates = self._adaptive_candidates_by_credit(pkt)
        for outport in candidates:
            if st.can_reserve(inport, outport, slot, dur):
                st.reserve(inport, outport, slot, dur, payload.conn_id)
                self.counters.inc("slot_write", dur)
                if self.obs.enabled:
                    self.obs.cs_setup(cycle, self._obs_track,
                                      payload.conn_id, "reserve",
                                      slot=slot, outport=outport)
                if self.dlt is not None and inport != LOCAL:
                    # nodes along the path learn the circuit for sharing
                    self.dlt.add(payload.orig_dst, slot, dur, outport,
                                 payload.conn_id)
                    self.counters.inc("dlt_write")
                if outport == LOCAL:
                    return LOCAL  # ejects; NI acknowledges success
                payload.slot_id = self.clock.advance2[slot]
                return outport
        # no output can host the reservation: reject (Figure 1, setups
        # 2 and 3) and have this node's manager NACK the source
        self.counters.inc("setup_rejected")
        if self.obs.enabled:
            self.obs.cs_setup(cycle, self._obs_track,
                              payload.conn_id, "reject")
        if self.on_setup_rejected is not None:
            self.on_setup_rejected(payload, cycle)
        return None  # consume the setup packet here

    def _adaptive_candidates_by_credit(self, pkt) -> List[int]:
        from repro.network.routing import oe_candidate_outports
        cands = oe_candidate_outports(self.mesh, self.node, pkt.src, pkt.dst)
        if len(cands) > 1:
            cands = sorted(cands, key=lambda o: -sum(self.credits[o]))
        return cands

    def _process_teardown(self, inport: int, pkt, payload,
                          cycle: int) -> Optional[int]:
        if payload.generation != self.clock.generation:
            return None  # tables were reset wholesale; nothing to clear
        slot = self.clock.wrap(payload.slot_id)
        outport = self.slot_state.release(inport, slot, payload.duration,
                                          payload.conn_id)
        if outport is None:
            return None   # reached the point where the setup had failed
        self.counters.inc("slot_write", payload.duration)
        if self.obs.enabled:
            self.obs.cs_teardown(cycle, self._obs_track,
                                 payload.conn_id, "release")
        if self.dlt is not None:
            self.dlt.remove_conn(payload.conn_id)
        if outport == LOCAL:
            # full path torn down
            if self.obs.enabled:
                self.obs.cs_teardown(cycle, self._obs_track,
                                     payload.conn_id, "done")
            return None
        payload.slot_id = self.clock.advance2[slot]
        return outport
