"""Network interface (NI) and endpoint abstraction (S4).

The NI packetises endpoint messages, injects flits into its router's
local input port under credit flow control (acting exactly like an
upstream router), reassembles arriving packets and delivers completed
messages to the endpoint.

Configuration packets (circuit setup acknowledgements) terminating at
this node are routed to the attached ``config_handler`` (the connection
manager) instead of the endpoint.

Vicinity-sharing hop-off (Section III-A2) also lands here: a packet whose
message carries ``final_dst != this node`` is re-injected towards its
true destination through the packet-switched network.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.config import NetworkConfig
from repro.network.flit import Flit, Message, MessageClass, Packet
from repro.network.link import CreditLink, FlitLink
from repro.network.topology import LOCAL
from repro.obs.trace import NULL_RECORDER
from repro.sim.kernel import SimObject
from repro.sim.stats import ConservationLedger, Counter


class Endpoint:
    """Base class for traffic sources/sinks attached to an NI.

    Subclasses override :meth:`tick` to generate messages (via
    ``self.ni.send``) and :meth:`on_message` to consume deliveries.
    """

    def __init__(self) -> None:
        self.ni: Optional["NetworkInterface"] = None

    def attach(self, ni: "NetworkInterface") -> None:
        self.ni = ni

    def tick(self, cycle: int) -> None:  # pragma: no cover - trivial
        pass

    def quiescent(self, cycle: int) -> bool:
        """True when :meth:`tick` is guaranteed to be a no-op (no RNG
        draw, no sends) at *cycle* and at every later cycle — lets the
        NI's activity-tracked scheduler put the node to sleep.  The
        conservative default keeps the NI awake."""
        return False

    def on_message(self, msg: Message, cycle: int) -> None:  # pragma: no cover
        pass

    def state_dict(self) -> dict:
        """Mutable endpoint state (stateless base: empty)."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        pass


class NetworkInterface(SimObject):
    """Packet-switched network interface for one node."""

    #: NIs participate in activity-tracked sleeping (see sim/kernel.py)
    _sim_can_sleep = True

    def __init__(self, node: int, cfg: NetworkConfig) -> None:
        self.node = node
        self.cfg = cfg
        self.endpoint: Optional[Endpoint] = None
        self.config_handler: Optional[Callable[[object, int], None]] = None

        num_vcs = cfg.router.num_vcs
        self.total_vcs = num_vcs + 1
        self.config_vc = num_vcs

        # wiring (set by builder)
        self.sim = None                               # owning Simulator
        self.inject_link: Optional[FlitLink] = None   # NI -> router local in
        self.eject_link: Optional[FlitLink] = None    # router local out -> NI
        self.credit_in: Optional[CreditLink] = None   # router -> NI credits
        self.router = None

        # NI-side mirror of the router's local input port state
        self.local_credits: List[int] = (
            [cfg.router.vc_depth] * num_vcs + [cfg.router.config_vc_depth]
        )
        self.vc_in_use: List[Optional[Deque[Flit]]] = [None] * self.total_vcs

        #: FIFO of (packet, prebuilt-flits-or-None) awaiting an injection VC
        self.ps_queue: Deque = deque()

        self.counters = Counter()
        self.sent_messages = 0
        self.received_messages = 0
        #: EWMA of packet-switched network latency for packets this node
        #: sourced (feedback for the switching decision, Section II-A)
        self.ps_latency_ewma = 0.0
        self.cs_latency_ewma = 0.0
        self._ewma_alpha = 0.05
        #: optional observer called with (packet, cycle) on packet ejection
        self.on_packet_ejected: Optional[Callable] = None
        #: optional observer called with (message, cycle) on delivery
        self.on_message_delivered: Optional[Callable] = None
        #: shared conservation ledger (network builder replaces it)
        self.ledger = ConservationLedger()
        #: transient: precomputed injection VC orders (built lazily, after
        #: subclasses have fixed up total_vcs/config_vc)
        self._vc_orders = None
        #: cycle of the last executed inject (feeds the derived ``_now``
        #: clock of the hybrid/SDM NIs; not snapshot state)
        self._last_inject = 0
        #: trace recorder; NULL_RECORDER keeps every guarded emission
        #: site a single falsy attribute check (never snapshot state)
        self.obs = NULL_RECORDER
        self._obs_track = f"ni-{node}"

    # ------------------------------------------------------------------
    # message API
    # ------------------------------------------------------------------
    def send(self, msg: Message) -> None:
        """Queue *msg* for packet-switched injection."""
        self.enqueue_ps(msg)

    def enqueue_ps(self, msg: Message, size_kind: Optional[str] = None) -> None:
        if size_kind is None:
            size_kind = {
                MessageClass.DATA: "ps_data",
                MessageClass.CTRL: "ctrl",
                MessageClass.CONFIG: "config",
            }[msg.mclass]
        size = self.cfg.packet_size(size_kind)
        pkt = Packet(msg, src=self.node, dst=msg.dst, size=size, circuit=False)
        self.ps_queue.append((pkt, None))
        self.sent_messages += 1
        self.sim_wake()

    def enqueue_stream(self, pkt: Packet, flits: Deque[Flit]) -> None:
        """Queue pre-built flits for packet-switched injection (used for
        circuit-switched fallback after a sharing contention).

        The stream is re-framed as a well-formed wormhole packet: the
        first flit becomes the head, the last the tail (flit kinds are a
        framing concern; reassembly is count-based).
        """
        from repro.network.flit import FlitKind
        for f in flits:
            f.is_circuit = False
            f.kind = FlitKind.BODY
        if len(flits) == 1:
            flits[0].kind = FlitKind.HEAD_TAIL
        else:
            flits[0].kind = FlitKind.HEAD
            flits[-1].kind = FlitKind.TAIL
        self.ps_queue.append((pkt, flits))
        self.sim_wake()

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def inject(self, cycle: int) -> None:
        # the drains are fully inlined: pipe pops here avoid both the
        # guard call and a per-flit list allocation on the loaded path
        self._last_inject = cycle
        ci = self.credit_in
        if ci is not None and ci._pipe:
            pipe = ci._pipe
            local_credits = self.local_credits
            while pipe and pipe[0][0] <= cycle:
                local_credits[pipe.popleft()[1]] += 1
        el = self.eject_link
        if el is not None and el._pipe:
            pipe = el._pipe
            while pipe and pipe[0][0] <= cycle:
                self._receive_flit(pipe.popleft()[1], cycle)
        ep = self.endpoint
        if ep is not None:
            ep.tick(cycle)
        self._pump_injection(cycle)

    def sim_idle(self, cycle: int) -> bool:
        """Idle iff the endpoint (if any) is quiescent — endpoints may
        draw RNG every tick, so only a self-declared no-op endpoint can
        be skipped — nothing is queued or streaming, and both inbound
        pipes (ejections, credits) are empty."""
        if self.ps_queue:
            return False
        ep = self.endpoint
        if ep is not None and not ep.quiescent(cycle):
            return False
        for s in self.vc_in_use:
            if s is not None:
                return False
        el = self.eject_link
        if el is not None and el._pipe:
            return False
        ci = self.credit_in
        if ci is not None and ci._pipe:
            return False
        return True

    # ------------------------------------------------------------------
    def _drain_credits(self, cycle: int) -> None:
        ci = self.credit_in
        if ci is not None and ci._pipe:
            for vc in ci.arrivals(cycle):
                self.local_credits[vc] += 1

    def _drain_ejections(self, cycle: int) -> None:
        el = self.eject_link
        if el is None or not el._pipe:
            return
        for flit in el.arrivals(cycle):
            self._receive_flit(flit, cycle)

    def _receive_flit(self, flit: Flit, cycle: int) -> None:
        pkt = flit.packet
        self.ledger.ejected += 1
        counts = self.counters._counts
        key = "cs_flit_ejected" if flit.is_circuit else "ps_flit_ejected"
        counts[key] = counts.get(key, 0) + 1
        pkt.flits_received += 1
        done = pkt.flits_received >= pkt.size
        if self.obs.enabled:
            self.obs.flit_eject(cycle, self._obs_track, pkt.id,
                                flit.index, flit.is_circuit, done)
        if not done:
            return
        pkt.eject_cycle = cycle
        if self.on_packet_ejected is not None:
            self.on_packet_ejected(pkt, cycle)
        self._packet_complete(pkt, cycle)

    def _packet_complete(self, pkt: Packet, cycle: int) -> None:
        msg = pkt.msg
        if msg.mclass == MessageClass.CONFIG:
            if self.config_handler is not None:
                self.config_handler(msg.payload, cycle)
            return
        if msg.final_dst != self.node:
            # vicinity hop-off: continue through the PS network
            self._hop_off(msg, cycle)
            return
        self.received_messages += 1
        if self.on_message_delivered is not None:
            self.on_message_delivered(msg, cycle)
        if self.endpoint is not None:
            self.endpoint.on_message(msg, cycle)

    def _hop_off(self, msg: Message, cycle: int) -> None:
        hop = Message(src=self.node, dst=msg.final_dst, mclass=msg.mclass,
                      size_flits=msg.size_flits, create_cycle=msg.create_cycle)
        # preserve identity so latency is charged to the original message
        hop.id = msg.id
        hop.final_dst = msg.final_dst
        hop.payload = msg.payload
        hop.meta = msg.meta
        self.counters.inc("vicinity_hop_off")
        self.enqueue_ps(hop)
        self.sent_messages -= 1  # the hop-off leg is not a new message

    # ------------------------------------------------------------------
    # injection pump
    # ------------------------------------------------------------------
    def _pump_injection(self, cycle: int) -> None:
        vc_in_use = self.vc_in_use
        ps_queue = self.ps_queue
        # grab a free VC for the packet at the head of the queue
        if ps_queue:
            head_pkt, prebuilt = ps_queue[0]
            vc = self._allocate_injection_vc(head_pkt)
            if vc is not None:
                ps_queue.popleft()
                flits = prebuilt if prebuilt is not None \
                    else deque(head_pkt.make_flits())
                for f in flits:
                    f.vc = vc
                vc_in_use[vc] = flits
                if head_pkt.inject_cycle is None:
                    head_pkt.inject_cycle = cycle
        elif vc_in_use.count(None) == len(vc_in_use):
            return  # nothing queued, nothing streaming
        # stream at most one flit per cycle into the injection link
        # (the local input port is one physical channel); the link send
        # is inlined — this runs once per injected flit network-wide
        orders = self._vc_orders
        if orders is None:
            self._injection_vc_order(cycle)     # builds the table
            orders = self._vc_orders
        local_credits = self.local_credits
        for vc in orders[cycle % len(orders)]:
            stream = vc_in_use[vc]
            if stream is None:
                continue
            if local_credits[vc] <= 0:
                continue
            flit = stream.popleft()
            local_credits[vc] -= 1
            il = self.inject_link
            il._pipe.append((cycle + il.latency, flit))
            il.flits_carried += 1
            ws = il.wake_sink
            if ws is not None and not ws._sim_awake:
                ws.sim_wake()
            self.ledger.injected += 1
            counts = self.counters._counts
            counts["flit_injected"] = counts.get("flit_injected", 0) + 1
            if self.obs.enabled:
                pkt = flit.packet
                self.obs.flit_inject(cycle, self._obs_track, pkt.id,
                                     flit.index, pkt.dst, False)
            if not stream:
                vc_in_use[vc] = None
            break

    def _injection_vc_order(self, cycle: int):
        # config VC first (setup/ack messages are latency critical and
        # account for <1% of traffic), then data VCs round-robin; the
        # n possible rotations are precomputed once (allocation-free)
        orders = self._vc_orders
        if orders is None:
            n = self.cfg.router.num_vcs
            cv = self.config_vc
            if n:
                orders = [tuple([cv] + [(s + i) % n for i in range(n)])
                          for s in range(n)]
            else:
                orders = [(cv,)]
            self._vc_orders = orders
        return orders[cycle % len(orders)]

    def _allocate_injection_vc(self, pkt: Packet) -> Optional[int]:
        if pkt.mclass == MessageClass.CONFIG:
            vc = self.config_vc
            return vc if self.vc_in_use[vc] is None else None
        limit = self.router.active_vcs if self.router is not None \
            else self.cfg.router.num_vcs
        for vc in range(limit):
            if self.vc_in_use[vc] is None:
                return vc
        return None

    # ------------------------------------------------------------------
    # snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Mutable NI state; endpoint state nests here so the network
        can restore sources without knowing their type.  Wiring (links,
        router ref, callbacks, shared ledger) is excluded."""
        return {
            "local_credits": list(self.local_credits),
            "vc_in_use": [None if s is None else list(s)
                          for s in self.vc_in_use],
            "ps_queue": [(pkt, None if pre is None else list(pre))
                         for pkt, pre in self.ps_queue],
            "counters": self.counters,
            "sent_messages": self.sent_messages,
            "received_messages": self.received_messages,
            "ps_latency_ewma": self.ps_latency_ewma,
            "cs_latency_ewma": self.cs_latency_ewma,
            "endpoint": None if self.endpoint is None
            else self.endpoint.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.local_credits = list(state["local_credits"])
        self.vc_in_use = [None if s is None else deque(s)
                          for s in state["vc_in_use"]]
        self.ps_queue = deque(
            (pkt, None if pre is None else deque(pre))
            for pkt, pre in state["ps_queue"])
        self.counters = state["counters"]
        self.sent_messages = state["sent_messages"]
        self.received_messages = state["received_messages"]
        self.ps_latency_ewma = state["ps_latency_ewma"]
        self.cs_latency_ewma = state["cs_latency_ewma"]
        if self.endpoint is not None and state["endpoint"] is not None:
            self.endpoint.load_state_dict(state["endpoint"])

    # ------------------------------------------------------------------
    def note_ps_latency(self, latency: float) -> None:
        """Feed back the observed latency of a PS packet this node sent."""
        if self.ps_latency_ewma == 0.0:
            self.ps_latency_ewma = latency
        else:
            a = self._ewma_alpha
            self.ps_latency_ewma += a * (latency - self.ps_latency_ewma)

    def note_cs_latency(self, latency: float) -> None:
        """Feed back the observed *transit* latency (slot wait excluded —
        packets are stamped at their reserved departure cycle) of a
        circuit-switched packet this node sent."""
        if self.cs_latency_ewma == 0.0:
            self.cs_latency_ewma = latency
        else:
            a = self._ewma_alpha
            self.cs_latency_ewma += a * (latency - self.cs_latency_ewma)

    @property
    def ps_backlog_flits(self) -> int:
        """Flits waiting on the packet-switched injection path (the
        queueing-delay proxy used by the switching decision)."""
        n = 0
        for pkt, prebuilt in self.ps_queue:
            n += pkt.size if prebuilt is None else len(prebuilt)
        for s in self.vc_in_use:
            if s is not None:
                n += len(s)
        return n

    @property
    def pending_flits(self) -> int:
        """Flits queued or streaming at this NI (for drain checks)."""
        n = 0
        for pkt, prebuilt in self.ps_queue:
            n += pkt.size if prebuilt is None else len(prebuilt)
        n += sum(len(s) for s in self.vc_in_use if s is not None)
        return n
