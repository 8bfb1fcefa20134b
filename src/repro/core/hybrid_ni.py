"""Network interface for the TDM hybrid network (part of S6/S7).

Adds the circuit-switched send path on top of the packet-switched NI:

* consults the node's :class:`~repro.core.circuit.ConnectionManager` for
  a circuit plan on every eligible message;
* schedules the flits of a circuit-switched packet to enter the router's
  local crossbar input at exactly their reserved slots (one flit per
  consecutive slot, ``duration`` slots per TDM round);
* falls back to packet switching when a (shared) circuit injection loses
  to the circuit owner — the untransmitted remainder of the message is
  re-framed and queued on the packet-switched path, and the manager's
  2-bit sharing-failure counters are updated.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.config import NetworkConfig
from repro.core.circuit import CSPlan, ConnectionManager
from repro.network.flit import Flit, Message, Packet
from repro.network.interface import NetworkInterface


class HybridNetworkInterface(NetworkInterface):
    """NI with circuit-switched injection support."""

    def __init__(self, node: int, cfg: NetworkConfig) -> None:
        super().__init__(node, cfg)
        self.manager: Optional[ConnectionManager] = None
        self._cs_outstanding = 0    #: scheduled CS flits not yet resolved

    @property
    def _now(self) -> int:
        """The cycle the legacy scheduler's per-cycle ``_now`` update
        would hold: the current inject phase while one is running, else
        ``sim.cycle - 1``.  Derived rather than stored so an NI that the
        activity-tracked engine put to sleep (skipping its inject, and
        with it the update) still reports the correct time to direct
        ``send()`` pokes and circuit planning.  Not snapshot state."""
        last = self._last_inject
        sim = self.sim
        if sim is not None and sim.cycle - 1 > last:
            return sim.cycle - 1
        return last

    # ------------------------------------------------------------------
    def sim_idle(self, cycle: int) -> bool:
        """Sleep only with no circuit flits scheduled at the router: the
        on-ok/on-fail callbacks fire during the *router's* transfer phase
        and mutate NI state that must stay observable cycle-by-cycle."""
        if self._cs_outstanding:
            return False
        return NetworkInterface.sim_idle(self, cycle)

    # ------------------------------------------------------------------
    def send(self, msg: Message) -> None:
        if self.manager is None:
            self.enqueue_ps(msg)
            return
        plan = self.manager.plan_message(msg, self._now)
        if plan is None:
            self.enqueue_ps(msg)
        else:
            self._send_circuit(msg, plan)

    def _send_circuit(self, msg: Message, plan: CSPlan) -> None:
        msg.final_dst = plan.final_dst
        pkt = Packet(msg, src=self.node, dst=plan.circuit_dst,
                     size=plan.size, circuit=True)
        pkt.inject_cycle = plan.t0
        flits = pkt.make_flits()
        token = {"cancelled": False, "plan": plan, "pkt": pkt,
                 "pending": deque(flits)}
        on_ok, on_fail = self.make_cs_callbacks(token)
        for i, flit in enumerate(flits):
            flit.is_circuit = True
            self.router.schedule_cs_injection(
                plan.t0 + i, flit, plan.expected_outport,
                on_ok=on_ok, on_fail=on_fail, token=token,
            )
        self._cs_outstanding += plan.size
        self.sent_messages += 1
        self.counters.inc(f"cs_send_{plan.kind}")

    # ------------------------------------------------------------------
    # router callbacks
    # ------------------------------------------------------------------
    def _cs_flit_ok(self, flit: Flit, token: dict) -> None:
        self._cs_outstanding -= 1
        token["pending"].remove(flit)
        self.ledger.injected += 1
        self.counters.inc("flit_injected")
        plan: CSPlan = token["plan"]
        if self.obs.enabled:
            pkt = token["pkt"]
            self.obs.flit_inject(self._now, self._obs_track, pkt.id,
                                 flit.index, pkt.dst, True)
        if flit.is_tail and plan.kind == "hitchhike":
            self.manager.note_hitchhike_success(plan.final_dst)

    def _cs_flit_failed(self, flit: Flit, token: dict) -> None:
        """A circuit injection lost (sharing contention or a stale
        connection): cancel the rest and fall back to packet switching."""
        plan: CSPlan = token["plan"]
        pkt: Packet = token["pkt"]
        pending: Deque[Flit] = token["pending"]
        self._cs_outstanding -= len(pending)
        token["cancelled"] = True
        pkt.circuit = False
        self.counters.inc("cs_fallback")
        if self.obs.enabled:
            self.obs.cs_fallback(self._now, self._obs_track,
                                 pkt.id, plan.kind)
        if plan.kind == "hitchhike":
            self.manager.note_hitchhike_failure(plan.final_dst, self._now)
        # everything not yet transmitted goes packet-switched; flits that
        # already left continue on the circuit and reassemble by count
        self.enqueue_stream(pkt, deque(pending))
        pending.clear()

    def make_cs_callbacks(self, token: dict):
        """(on_ok, on_fail) pair bound to *token* — used by the send
        path above and by snapshot restore to rebuild the callbacks the
        router could not serialize."""
        return (lambda f, t=token: self._cs_flit_ok(f, t),
                lambda f, t=token: self._cs_flit_failed(f, t))

    # ------------------------------------------------------------------
    # snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        # _now is excluded: it is derivable (cycle - 1 at capture time)
        # and snapshotting it would make the hash depend on how long the
        # NI has been asleep.  The network restore loop re-primes it.
        state = super().state_dict()
        state.update({"cs_outstanding": self._cs_outstanding})
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self._cs_outstanding = state["cs_outstanding"]

    # ------------------------------------------------------------------
    @property
    def pending_flits(self) -> int:
        return super().pending_flits + self._cs_outstanding
