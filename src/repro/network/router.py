"""Canonical virtual-channel wormhole router (S3).

Pipeline model (per Section II-D, "packet-switched flits traverse through
the router pipeline"):

* cycle ``t``   — buffer write (BW) of an arriving flit
* cycle ``t+p`` — earliest route-compute / VC-allocation / switch-
  allocation eligibility, where ``p = ps_pipeline_latency`` (default 2,
  modelling the classic BW/RC -> VA/SA stages)
* switch traversal happens in the cycle the flit wins SA; together with
  one link cycle the flit reaches the downstream router two cycles after
  its SA win (see :mod:`repro.network.link`).

Flow control is credit-based per (output port, VC).  Wormhole semantics:
an output VC is held by an input VC from head-flit VA until the tail flit
leaves switch traversal.

Routing: X-Y for data/control packets; minimal adaptive (odd-even turn
model) on a dedicated escape VC for configuration packets.

One fused datapath serves the packet and the TDM hybrid router: circuit
interaction is data, not hooks.  ``_cs_in_used`` / ``_cs_out_used`` (the
crossbar inputs/outputs a circuit flit took this cycle) stay all-False
here, and ``slot_state`` (whose output slot-owner table blocks or lets
PS flits steal reserved slots) is ``None``.  Subclasses override
``transfer`` (circuit arrivals go to their ``_demux_circuit``) and
``_compute_route`` (configuration-message processing).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config import NetworkConfig
from repro.network.buffers import InputPort
from repro.network.flit import Flit, FlitKind, MessageClass
from repro.network.link import CreditLink, FlitLink
from repro.network.routing import oe_candidate_outports, xy_outport
from repro.network.topology import LOCAL, Mesh, NUM_PORTS
from repro.obs.trace import NULL_RECORDER
from repro.sim.kernel import SimObject
from repro.sim.stats import ConservationLedger, Counter, TimeWeighted

#: effectively-infinite credits for the ejection port (the NI always sinks)
EJECT_CREDITS = 1 << 30
#: ``_va_wake`` value meaning "no VA pass until an event lowers it"
VA_NEVER = 1 << 62


class PacketRouter(SimObject):
    """One mesh router with 5 ports x (num_vcs data + 1 config) VCs."""

    _sim_can_sleep = True

    def __init__(self, node: int, cfg: NetworkConfig, mesh: Mesh) -> None:
        self.node = node
        self.cfg = cfg
        self.rcfg = cfg.router
        self.mesh = mesh

        v = self.rcfg.num_vcs
        self.total_vcs = v + 1  # + config escape VC
        self.config_vc = v

        self.in_ports: List[InputPort] = [
            InputPort(v, self.rcfg.vc_depth, self.rcfg.config_vc_depth)
            for _ in range(NUM_PORTS)
        ]
        # wiring, filled in by the network builder
        self.in_links: List[Optional[FlitLink]] = [None] * NUM_PORTS
        self.out_links: List[Optional[FlitLink]] = [None] * NUM_PORTS
        self.credit_out: List[Optional[CreditLink]] = [None] * NUM_PORTS
        self.credit_in: List[Optional[CreditLink]] = [None] * NUM_PORTS
        self.downstream: List[Optional[object]] = [None] * NUM_PORTS

        # credits towards downstream buffers, per (outport, vc)
        self.credits: List[List[int]] = [
            [0] * self.total_vcs for _ in range(NUM_PORTS)
        ]
        # which (inport, invc) holds each downstream VC
        self.out_vc_owner: List[List[Optional[Tuple[int, int]]]] = [
            [None] * self.total_vcs for _ in range(NUM_PORTS)
        ]

        # VC power gating state (Section III-B); 'active' is the number of
        # data VCs advertised to upstream allocators, 'powered' the number
        # whose leakage is currently paid (>= active while draining).
        self.active_vcs = v
        self.powered_vcs = v
        self.vc_power_integral = TimeWeighted(v, 0)
        self.gating = None  # attached by the network builder when enabled

        self._sa_ptr = [0] * NUM_PORTS   # round-robin pointers per outport
        self.counters = Counter()
        self._busy_accum = 0.0           # busy-VC integral for gating epochs
        self._busy_samples = 0
        self._qdelay_accum = 0.0         # per-flit queueing delay (gating)
        self._qdelay_samples = 0
        self._buffered_flits = 0         # fast-path guard: skip VA/SA
        #                                  loops when nothing is buffered
        self.rng = None  # set by builder (shared simulator generator)
        #: trace recorder; NULL_RECORDER keeps every guarded emission
        #: site a single falsy attribute check (never snapshot state)
        self.obs = NULL_RECORDER
        self._obs_track = f"router-{node}"

        #: shared flit-conservation ledger (the network builder replaces
        #: the private default with the network-wide instance)
        self.ledger = ConservationLedger()

        # fast-path transients (derived/wiring state, never snapshotted):
        #: claimants of each outport's downstream VCs as ``(ovc, inport,
        #: invc, fifo)`` entries, one list per (outport, slice); switch
        #: allocation scans these instead of the owner table.  The
        #: packet router has one slice per outport, the SDM router one
        #: per plane plus the config VC (``_claim_slice`` maps a VC to it)
        self._claims = [[[]] for _ in range(NUM_PORTS)]
        self._claim_slice = [0] * self.total_vcs
        #: input VCs per port holding flits but no output VC — lets
        #: route-compute/VA skip ports (and whole cycles, through the
        #: total) where no head flit waits for an output VC
        self._port_unalloc = [0] * NUM_PORTS
        self._unalloc_vcs = 0
        #: input VCs of each index, over all ports, holding flits or an
        #: output VC (the gating utilisation sample sums these)
        self._busy_by_vc = [0] * self.total_vcs
        #: earliest cycle a VA pass can grant or consume anything; wake
        #: events lower it (see ``_route_and_va``)
        self._va_wake = 0
        #: routers whose outputs feed this one (wiring): a raised
        #: ``active_vcs`` here lowers their ``_va_wake``
        self._upstream: List["PacketRouter"] = []
        #: reusable crossbar-input-usage scratch for ``_sa_st``
        self._used_in_scratch = [False] * NUM_PORTS
        #: first downstream VC each data input VC may claim at VA (the
        #: SDM router confines a packet to its plane's VC range)
        self._va_base = [0] * self.total_vcs

        # circuit interaction, read directly by the shared datapath: the
        # crossbar inputs/outputs a circuit flit took this cycle (never
        # set in a packet router) and the slot table whose output-owner
        # rows gate packet-switched switch allocation (None: no slots)
        self._cs_in_used = [False] * NUM_PORTS
        self._cs_out_used = [False] * NUM_PORTS
        self.slot_state = None
        #: (port, link) lists for ``deliver``, built on first use
        self._deliver_lists = None
        #: deterministic X-Y route memo indexed by destination node
        #: (destinations are dense ints, so a list beats a dict)
        self._xy_cache: List[Optional[int]] = [None] * mesh.num_nodes

    # ------------------------------------------------------------------
    # wiring helpers (used by the network builder)
    # ------------------------------------------------------------------
    def connect_input(self, inport: int, link: FlitLink,
                      credit_back: Optional[CreditLink]) -> None:
        self.in_links[inport] = link
        self.credit_out[inport] = credit_back

    def connect_output(self, outport: int, link: FlitLink,
                       credit_from: Optional[CreditLink],
                       downstream: Optional[object],
                       downstream_depth: int,
                       downstream_config_depth: int) -> None:
        self.out_links[outport] = link
        self.credit_in[outport] = credit_from
        self.downstream[outport] = downstream
        if outport == LOCAL:
            self.credits[outport] = [EJECT_CREDITS] * self.total_vcs
        else:
            self.credits[outport] = (
                [downstream_depth] * self.rcfg.num_vcs
                + [downstream_config_depth]
            )

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def deliver(self, cycle: int) -> None:
        """Pop every credit and flit due by *cycle* off the incoming
        pipes straight into the credit counters and VC buffers (the BW
        stage); the first step of every router's ``transfer``.

        Links have latency >= 1, so nothing another router sends during
        *cycle* is due before *cycle + 1*: the order in which routers run
        ``transfer`` does not change what each one pops here.

        A router with a slot table pays one slot-table read per arrival
        ("for each incoming flit, the router looks up the slot table",
        Section II); circuit flits go to the subclass's
        ``_demux_circuit``.  The packet-switched write, the overwhelmingly
        common case on a loaded epoch, runs without a per-flit call.
        """
        lists = self._deliver_lists
        if lists is None:
            lists = self._deliver_lists = (
                [(p, cl) for p, cl in enumerate(self.credit_in)
                 if cl is not None],
                [(p, fl) for p, fl in enumerate(self.in_links)
                 if fl is not None],
            )
        # pipe pops are inlined (no per-link list allocation); the
        # differential-equivalence harness guards the delivery timing
        for outport, clink in lists[0]:
            pipe = clink._pipe
            if pipe:
                credits = self.credits[outport]
                while pipe and pipe[0][0] <= cycle:
                    credits[pipe.popleft()[1]] += 1
        arrived = written = 0
        ready = cycle + self.rcfg.ps_pipeline_latency
        for inport, flink in lists[1]:
            pipe = flink._pipe
            if not pipe or pipe[0][0] > cycle:
                continue
            vcs = self.in_ports[inport].vcs
            unalloc = 0
            while pipe and pipe[0][0] <= cycle:
                flit = pipe.popleft()[1]
                arrived += 1
                if flit.is_circuit:
                    self._demux_circuit(inport, flit, cycle)
                    continue
                vc = flit.vc
                vcobj = vcs[vc]
                fifo = vcobj.fifo
                if not fifo:
                    if vcobj.out_vc is None:
                        # a new head: the VC turns busy and waits for VA
                        unalloc += 1
                        self._busy_by_vc[vc] += 1
                elif len(fifo) >= vcobj.depth:
                    raise OverflowError(
                        "VC buffer overflow: credit protocol violated")
                fifo.append(flit)
                flit.ready_cycle = ready
                written += 1
            if unalloc:
                self._port_unalloc[inport] += unalloc
                self._unalloc_vcs += unalloc
                if ready < self._va_wake:
                    self._va_wake = ready
        if arrived:
            counts = self.counters._counts
            if self.slot_state is not None:
                counts["slot_read"] = counts.get("slot_read", 0) + arrived
            if written:
                self._buffered_flits += written
                counts["buffer_write"] = (counts.get("buffer_write", 0)
                                          + written)

    def sim_idle(self, cycle: int) -> bool:
        """No buffered flits, nothing on any incoming link or credit
        pipe, and no always-on controller attached.

        Gating routers never sleep: ``_sample_utilisation`` integrates
        VC occupancy (and the controller epochs) every single cycle.
        """
        if self._buffered_flits or self.gating is not None:
            return False
        for flink in self.in_links:
            if flink is not None and flink._pipe:
                return False
        for clink in self.credit_in:
            if clink is not None and clink._pipe:
                return False
        return True

    def transfer(self, cycle: int) -> None:
        self.deliver(cycle)
        if self._unalloc_vcs and cycle >= self._va_wake:
            self._route_and_va(cycle)
        if self._buffered_flits:
            self._sa_st(cycle)
        if self.gating is not None:
            self._sample_utilisation()

    def control(self, cycle: int) -> None:
        gating = self.gating
        if gating is not None:
            active = self.active_vcs
            gating.tick(cycle)
            if self.active_vcs > active:
                # upstream heads blocked on our advertised VCs may now
                # find a free one: their next VA pass must run
                for up in self._upstream:
                    up._va_wake = 0

    # ------------------------------------------------------------------
    # route compute + VC allocation
    # ------------------------------------------------------------------
    def _route_and_va(self, cycle: int) -> None:
        """Route compute and VC allocation for the head flits waiting for
        an output VC; only ports with such a VC are scanned, and a scan
        stops once it has seen all of them.

        A pass that grants nothing and consumes nothing mutates nothing,
        so ``transfer`` skips passes until ``_va_wake``.  The pass sets it
        to the earliest ``ready_cycle`` of a waiting head still inside
        the pipeline (``cycle + 1`` when a consumed configuration packet
        left the next head waiting; else never).  Every event that can
        let a later pass do more lowers it: a new head written into an
        empty VC (``deliver``), an output VC freed here (``_sa_st``), a
        downstream router raising ``active_vcs`` (its ``control``) and a
        restore.  A head is routed at the first pass after it is ready,
        which is never skipped, so the route sees the same credits.
        """
        in_ports = self.in_ports
        port_unalloc = self._port_unalloc
        out_vc_owner = self.out_vc_owner
        claims = self._claims
        claim_slice = self._claim_slice
        va_base = self._va_base
        config_vc = self.config_vc
        counts = self.counters._counts
        head_kind = FlitKind.HEAD
        head_tail_kind = FlitKind.HEAD_TAIL
        wake = VA_NEVER
        for inport in range(NUM_PORTS):
            waiting = port_unalloc[inport]
            if not waiting:
                continue
            settled = 0   # VCs granted an output VC or emptied here
            for invc, vcobj in enumerate(in_ports[inport].vcs):
                if not waiting:
                    break
                fifo = vcobj.fifo
                if vcobj.out_vc is not None or not fifo:
                    continue
                waiting -= 1
                head = fifo[0]
                kind = head.kind
                if kind is not head_kind and kind is not head_tail_kind:
                    continue
                if cycle < head.ready_cycle:
                    if head.ready_cycle < wake:
                        wake = head.ready_cycle
                    continue
                outport = vcobj.route_outport
                if outport is None:
                    outport = self._compute_route(inport, head, cycle)
                    if outport is None:
                        # packet consumed here (config processing)
                        vcobj.pop()
                        self._buffered_flits -= 1
                        if fifo:
                            # the next head is examined next cycle
                            wake = cycle + 1
                        else:
                            settled += 1
                            self._busy_by_vc[invc] -= 1
                        self._return_credit(inport, invc, cycle)
                        self.ledger.consumed += 1
                        continue
                    vcobj.route_outport = outport
                    if self.obs.enabled:
                        self.obs.flit_route(cycle, self._obs_track,
                                            head.packet.id, outport)
                owners = out_vc_owner[outport]
                if invc == config_vc:
                    ovc = config_vc
                    if owners[ovc] is not None:
                        continue
                else:
                    # first free VC among those the downstream router
                    # advertises (VC gating), counted from this input
                    # VC's plane base
                    ds = self.downstream[outport]
                    limit = self.rcfg.num_vcs if outport == LOCAL \
                        or ds is None else ds.active_vcs
                    base = va_base[invc]
                    for ovc in range(base, base + limit):
                        if owners[ovc] is None:
                            break
                    else:
                        continue
                vcobj.out_vc = ovc
                owners[ovc] = (inport, invc)
                claims[outport][claim_slice[ovc]].append(
                    (ovc, inport, invc, fifo))
                settled += 1
                counts["vc_arb"] = counts.get("vc_arb", 0) + 1
            if settled:
                port_unalloc[inport] -= settled
                self._unalloc_vcs -= settled
        self._va_wake = wake

    def _compute_route(self, inport: int, head: Flit,
                       cycle: int) -> Optional[int]:
        """Choose the output port for *head*'s packet at this router.

        Returns None when the packet is consumed here (configuration
        messages in the hybrid router override).
        """
        pkt = head.packet
        if pkt.mclass == MessageClass.CONFIG:
            return self._route_adaptive(pkt)
        # X-Y routing is a pure function of (this node, destination):
        # memoise it instead of re-deriving coordinates per packet
        out = self._xy_cache[pkt.dst]
        if out is None:
            out = self._xy_cache[pkt.dst] = xy_outport(
                self.mesh, self.node, pkt.dst)
        return out

    def _route_adaptive(self, pkt) -> int:
        """Minimal adaptive (odd-even) selection by downstream credit."""
        cands = oe_candidate_outports(self.mesh, self.node, pkt.src, pkt.dst)
        return self._best_by_credit(cands)

    def _best_by_credit(self, cands: List[int]) -> int:
        if len(cands) == 1:
            return cands[0]
        best, best_free = cands[0], -1
        for out in cands:
            free = sum(self.credits[out])
            if free > best_free:
                best, best_free = out, free
        return best

    # ------------------------------------------------------------------
    # switch allocation + traversal
    # ------------------------------------------------------------------
    def _sa_st(self, cycle: int) -> None:
        """Fused switch allocation + traversal: single-pass round-robin
        arbitration per output port, then the winner's crossbar, credit
        and link sends inline.

        An output a circuit flit took this cycle is skipped; with a slot
        table, so is an output reserved in this slot unless slot stealing
        lets a packet-switched flit use the idle reservation (the steal
        is counted).
        """
        claims = self._claims
        out_links = self.out_links
        cs_out = self._cs_out_used
        slot_state = self.slot_state
        if slot_state is not None:
            out_owner = slot_state.out_owner
            slot = cycle % slot_state.clock.active
            stealing = self.cfg.circuit.slot_stealing
        reserved = False
        total_vcs = self.total_vcs
        sa_ptr = self._sa_ptr
        mod = NUM_PORTS * total_vcs
        counts = self.counters._counts
        gating = self.gating
        used_in = None
        for outport in range(NUM_PORTS):
            claimants = claims[outport][0]
            if not claimants or out_links[outport] is None:
                continue
            if cs_out[outport]:
                continue
            if slot_state is not None:
                reserved = out_owner[outport][slot] != -1
                if reserved and not stealing:
                    continue
            if used_in is None:
                # crossbar inputs start out taken where a circuit flit
                # used them this cycle
                used_in = self._used_in_scratch
                cs_in = self._cs_in_used
                for i in range(NUM_PORTS):
                    used_in[i] = cs_in[i]
            # every (inport, invc) owns at most one output VC, so the
            # rotated-distance minimum is unique (scan order is free)
            credits = self.credits[outport]
            ptr = sa_ptr[outport]
            winner = None
            winner_key = mod
            n_candidates = 0
            for claim in claimants:
                ovc, inport, invc, vfifo = claim
                if credits[ovc] <= 0 or used_in[inport]:
                    continue
                if not vfifo or cycle < vfifo[0].ready_cycle:
                    continue
                n_candidates += 1
                key = (inport * total_vcs + invc - ptr) % mod
                if key < winner_key:
                    winner_key = key
                    winner = claim
            if winner is None:
                continue
            counts["sw_arb"] = counts.get("sw_arb", 0) + 1
            ovc, inport, invc, vfifo = winner
            if n_candidates > 1:
                # the pointer only advances on a real multi-way
                # arbitration (it is snapshot state)
                sa_ptr[outport] = inport * total_vcs + invc + 1
            used_in[inport] = True
            if reserved:
                counts["slot_steal"] = counts.get("slot_steal", 0) + 1
                if self.obs.enabled:
                    self.obs.slot_steal(cycle, self._obs_track,
                                        outport, slot)
            flit = vfifo.popleft()
            self._buffered_flits -= 1
            counts["buffer_read"] = counts.get("buffer_read", 0) + 1
            if gating is not None:
                # in-router residency beyond the pipeline minimum: the
                # queue-delay gating metric (Section V-B4 variant)
                wait = cycle - flit.ready_cycle
                self._qdelay_accum += max(0, wait)
                self._qdelay_samples += 1
            clink = self.credit_out[inport]
            if clink is not None:
                clink._pipe.append((cycle + clink.latency, invc))
                ws = clink.wake_sink
                if ws is not None and not ws._sim_awake:
                    ws.sim_wake()
            flit.vc = ovc
            if outport != LOCAL:
                credits[ovc] -= 1
                counts["link"] = counts.get("link", 0) + 1
            flit.packet.hops_taken += 1
            kind = flit.kind
            if kind is FlitKind.TAIL or kind is FlitKind.HEAD_TAIL:
                self._release_out_vc(outport, winner)
            ol = out_links[outport]
            ol._pipe.append((cycle + ol.latency, flit))
            ol.flits_carried += 1
            ws = ol.wake_sink
            if ws is not None and not ws._sim_awake:
                ws.sim_wake()

    def _release_out_vc(self, outport: int, claim: tuple) -> None:
        """The tail of *claim*'s packet left: free its output VC.  The
        next packet's head (if any) now waits for VA, else the input VC
        is idle; either way a VA pass may now grant something."""
        ovc, inport, invc, vfifo = claim
        self.out_vc_owner[outport][ovc] = None
        self._claims[outport][self._claim_slice[ovc]].remove(claim)
        vcobj = self.in_ports[inport].vcs[invc]
        vcobj.route_outport = None
        vcobj.out_vc = None
        if vfifo:
            self._port_unalloc[inport] += 1
            self._unalloc_vcs += 1
        else:
            self._busy_by_vc[invc] -= 1
        self._va_wake = 0

    def _return_credit(self, inport: int, invc: int, cycle: int) -> None:
        clink = self.credit_out[inport]
        if clink is not None:
            clink.send(invc, cycle)

    # ------------------------------------------------------------------
    # VC power gating support (controller lives in repro.core.vc_gating)
    # ------------------------------------------------------------------
    def _sample_utilisation(self) -> None:
        # runs every cycle on every gating router: the busy VCs come from
        # the incremental per-index counts, not a buffer scan
        active = self.active_vcs
        if active:
            busy = sum(self._busy_by_vc[:active])
            self._busy_accum += busy / (NUM_PORTS * active)
        self._busy_samples += 1

    def pop_utilisation(self) -> float:
        """Mean busy fraction since the last call (gating epoch metric)."""
        util = self._busy_accum / self._busy_samples if self._busy_samples else 0.0
        self._busy_accum = 0.0
        self._busy_samples = 0
        return util

    def pop_queue_delay(self) -> float:
        """Mean per-flit queueing delay since the last call (cycles)."""
        delay = self._qdelay_accum / self._qdelay_samples \
            if self._qdelay_samples else 0.0
        self._qdelay_accum = 0.0
        self._qdelay_samples = 0
        return delay

    def vc_drainable(self, index: int) -> bool:
        """True when data VC *index* is empty and unowned on every port,
        and no downstream VC *index* of ours is still held by anyone."""
        if self._busy_by_vc[index]:
            return False
        for outport in range(NUM_PORTS):
            if self.out_vc_owner[outport][index] is not None:
                return False
        return True

    def set_powered_vcs(self, n: int, cycle: int) -> None:
        self.powered_vcs = n
        self.vc_power_integral.set(n, cycle)

    # ------------------------------------------------------------------
    # snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Mutable router state; wiring (links, downstream refs, shared
        ledger/rng) is rebuilt by the network constructor."""
        return {
            "in_ports": [p.state_dict() for p in self.in_ports],
            "credits": [list(row) for row in self.credits],
            "out_vc_owner": [list(row) for row in self.out_vc_owner],
            "active_vcs": self.active_vcs,
            "powered_vcs": self.powered_vcs,
            "vc_power_integral": self.vc_power_integral,
            "sa_ptr": list(self._sa_ptr),
            "counters": self.counters,
            "busy": (self._busy_accum, self._busy_samples,
                     self._qdelay_accum, self._qdelay_samples),
            "gating": None if self.gating is None else self.gating.state_dict(),
            # every CreditLink is some router's credit_out (the side that
            # sends credits), so in-flight credits are captured exactly once
            "credit_pipes": [None if cl is None else cl.state_dict()
                             for cl in self.credit_out],
        }

    def load_state_dict(self, state: dict) -> None:
        for port, sub in zip(self.in_ports, state["in_ports"], strict=True):
            port.load_state_dict(sub)
        self.credits = [list(row) for row in state["credits"]]
        self.out_vc_owner = [list(row) for row in state["out_vc_owner"]]
        self.active_vcs = state["active_vcs"]
        self.powered_vcs = state["powered_vcs"]
        self.vc_power_integral = state["vc_power_integral"]
        self._sa_ptr = list(state["sa_ptr"])
        self.counters = state["counters"]
        (self._busy_accum, self._busy_samples,
         self._qdelay_accum, self._qdelay_samples) = state["busy"]
        for name, value in self._recount().items():
            setattr(self, name, value)
        self._va_wake = 0
        if self.gating is not None and state["gating"] is not None:
            self.gating.load_state_dict(state["gating"])
        for cl, sub in zip(self.credit_out, state["credit_pipes"],
                           strict=True):
            if cl is not None and sub is not None:
                cl.load_state_dict(sub)

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Total buffered flits (used by drain checks and tests)."""
        return sum(p.occupancy() for p in self.in_ports)

    def _recount(self) -> dict:
        """The fast-path counters and claim lists, rebuilt from the VC
        buffers and the output-VC owner tables (derived state, never
        snapshotted)."""
        port_unalloc = [sum(1 for vc in p.vcs
                            if vc.fifo and vc.out_vc is None)
                        for p in self.in_ports]
        busy_by_vc = [0] * self.total_vcs
        for p in self.in_ports:
            for i, vc in enumerate(p.vcs):
                if vc.fifo or vc.out_vc is not None:
                    busy_by_vc[i] += 1
        claims = [[[] for _ in row] for row in self._claims]
        for outport, owners in enumerate(self.out_vc_owner):
            for ovc, owner in enumerate(owners):
                if owner is not None:
                    inport, invc = owner
                    claims[outport][self._claim_slice[ovc]].append(
                        (ovc, inport, invc,
                         self.in_ports[inport].vcs[invc].fifo))
        return {
            "_buffered_flits": self.occupancy(),
            "_claims": claims,
            "_port_unalloc": port_unalloc,
            "_unalloc_vcs": sum(port_unalloc),
            "_busy_by_vc": busy_by_vc,
        }

    def _comparable(self, name: str, value):
        """*value* of derived field *name* in a form that compares equal
        to its recount: claim lists become sorted ``(ovc, inport, invc,
        fifo-is-that-VC's)`` rows, since their order is free."""
        if name != "_claims":
            return value
        vcs = [p.vcs for p in self.in_ports]
        return [[sorted((ovc, inport, invc, fifo is vcs[inport][invc].fifo)
                        for ovc, inport, invc, fifo in lst)
                 for lst in row] for row in value]

    def audit_counters(self) -> Optional[str]:
        """Describe every fast-path counter or claim list that disagrees
        with its recount, or return None when all agree."""
        bad = []
        for name, want in self._recount().items():
            have = self._comparable(name, getattr(self, name))
            want = self._comparable(name, want)
            if have != want:
                bad.append(f"{name}={have!r} (recount {want!r})")
        if not bad:
            return None
        return f"router {self.node} counters: " + ", ".join(bad)
