"""Fault plan + injector: config-driven, seeded, scheduled faults.

:class:`FaultPlan` resolves the :class:`~repro.config.FaultConfig` rates
and counts into a concrete schedule against one built network, drawing
every random choice from the simulator's seeded generator so a fault run
is exactly reproducible.  :class:`FaultInjector` executes the plan in the
``control`` phase:

* **permanent link faults** — ``link_fail_count`` distinct bidirectional
  mesh channels die at ``link_fail_cycle`` and never recover;
* **transient link blackouts** — Bernoulli per cycle, a random channel
  goes dark for ``transient_duration`` cycles;
* **router stalls** — a random router's transfer pipeline freezes for
  ``router_stall_duration`` cycles (links still deliver);
* **slot-table corruption** — a random valid TDM slot entry loses its
  valid bit (circuit flits orphan-eject and continue packet-switched);
* **orphaned-reservation GC** — every ``orphan_gc_interval`` cycles,
  reservations owned by no live connection are released (cleans up after
  lost teardown walks).

CONFIG-message drops are installed on the NIs by :func:`attach_faults`
(the message is lost before packetisation, modelling a corrupted
setup/teardown/ack), and the conservation/liveness
:class:`~repro.sim.kernel.Watchdog` is registered alongside.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.obs.trace import NULL_RECORDER
from repro.sim.kernel import SimObject, Watchdog


class FaultPlan:
    """Concrete fault schedule for one network instance."""

    def __init__(self, permanent: List[Tuple[int, int, int]]) -> None:
        #: (cycle, node, outport) permanent bidirectional channel faults
        self.permanent = sorted(permanent)

    @classmethod
    def from_config(cls, fcfg, net, rng) -> "FaultPlan":
        """Draw the permanent-fault targets from the seeded *rng*."""
        permanent: List[Tuple[int, int, int]] = []
        if fcfg.link_fail_count > 0:
            # one entry per physical channel (canonical direction only)
            mesh = net.mesh
            channels = [(node, port) for node in range(mesh.num_nodes)
                        for port in mesh.ports(node)
                        if node < mesh.neighbor(node, port)]
            k = min(fcfg.link_fail_count, len(channels))
            picks = rng.choice(len(channels), size=k, replace=False)
            for i in sorted(int(p) for p in picks):
                node, port = channels[i]
                permanent.append((fcfg.link_fail_cycle, node, port))
        return cls(permanent)


class FaultInjector(SimObject):
    """Executes a :class:`FaultPlan` plus the rate-driven fault streams
    in the simulator's ``control`` phase."""

    def __init__(self, net, health, plan: FaultPlan, rng, fcfg=None) -> None:
        self.net = net
        self.health = health
        self.plan = plan
        self.rng = rng
        self.fcfg = fcfg if fcfg is not None else net.cfg.faults
        self.watchdog: Optional[Watchdog] = None
        self._pending = list(plan.permanent)   # sorted (cycle, node, port)
        self._restores: List[Tuple[int, int, int]] = []
        # statistics
        self.links_failed = 0
        self.transients_injected = 0
        self.stalls_injected = 0
        self.slots_corrupted = 0
        #: trace recorder (observability wiring, never snapshot state)
        self.obs = NULL_RECORDER

    # ------------------------------------------------------------------
    # snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "pending": list(self._pending),
            "restores": list(self._restores),
            "links_failed": self.links_failed,
            "transients_injected": self.transients_injected,
            "stalls_injected": self.stalls_injected,
            "slots_corrupted": self.slots_corrupted,
            # the down-link set is re-applied through the health map so
            # its derived flags stay consistent with restored link state
            "health_down": sorted(self.health.down_links()),
            "watchdog": None if self.watchdog is None
            else self.watchdog.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self._pending = [tuple(p) for p in state["pending"]]
        self._restores = [tuple(r) for r in state["restores"]]
        self.links_failed = state["links_failed"]
        self.transients_injected = state["transients_injected"]
        self.stalls_injected = state["stalls_injected"]
        self.slots_corrupted = state["slots_corrupted"]
        self.health.set_down([tuple(d) for d in state["health_down"]])
        if self.watchdog is not None and state["watchdog"] is not None:
            self.watchdog.load_state_dict(state["watchdog"])

    # ------------------------------------------------------------------
    def control(self, cycle: int) -> None:
        fcfg = self.fcfg
        self._apply_restores(cycle)
        while self._pending and self._pending[0][0] <= cycle:
            _, node, port = self._pending.pop(0)
            if self.health.fail_bidir(node, port):
                self.links_failed += 1
                if self.obs.enabled:
                    self.obs.fault(cycle, "sim", "link_fail",
                                   node=node, port=port)
        if fcfg.transient_link_rate > 0 and \
                float(self.rng.random()) < fcfg.transient_link_rate:
            self._inject_transient(cycle)
        if fcfg.router_stall_rate > 0 and \
                float(self.rng.random()) < fcfg.router_stall_rate:
            self._inject_stall(cycle)
        if fcfg.slot_corrupt_rate > 0 and \
                float(self.rng.random()) < fcfg.slot_corrupt_rate:
            self._corrupt_slot(cycle)
        if (fcfg.orphan_gc_interval > 0 and cycle > 0
                and cycle % fcfg.orphan_gc_interval == 0
                and hasattr(self.net, "collect_orphans")):
            self.net.collect_orphans()

    # ------------------------------------------------------------------
    def _apply_restores(self, cycle: int) -> None:
        due = [r for r in self._restores if r[0] <= cycle]
        if not due:
            return
        self._restores = [r for r in self._restores if r[0] > cycle]
        for _, node, port in due:
            self.health.restore_bidir(node, port)

    def _inject_transient(self, cycle: int) -> None:
        mesh = self.net.mesh
        node = int(self.rng.integers(mesh.num_nodes))
        ports = list(mesh.ports(node))
        if not ports:
            return
        port = ports[int(self.rng.integers(len(ports)))]
        if self.health.fail_bidir(node, port):
            self.transients_injected += 1
            if self.obs.enabled:
                self.obs.fault(cycle, "sim", "transient",
                               node=node, port=port)
            self._restores.append(
                (cycle + self.fcfg.transient_duration, node, port))

    def _inject_stall(self, cycle: int) -> None:
        routers = self.net.routers
        r = routers[int(self.rng.integers(len(routers)))]
        r.stalled_until = max(r.stalled_until,
                              cycle + self.fcfg.router_stall_duration)
        self.stalls_injected += 1
        if self.obs.enabled:
            self.obs.fault(cycle, "sim", "stall", node=r.node)

    def _corrupt_slot(self, cycle: int) -> None:
        routers = self.net.routers
        r = routers[int(self.rng.integers(len(routers)))]
        st = r.slot_state
        if st is None:
            return      # packet or SDM router: no slot tables
        inport = int(self.rng.integers(len(st.in_tables)))
        table = st.in_tables[inport]
        slot = int(self.rng.integers(st.clock.active))
        if not table.valid[slot]:
            return      # the bit flip hit an empty entry: no effect
        outport = table.outport[slot]
        table.clear(slot)
        st.out_owner[outport][slot] = -1
        r.counters.inc("slot_corrupted")
        self.slots_corrupted += 1
        if self.obs.enabled:
            self.obs.fault(cycle, "sim", "slot_corrupt",
                           node=r.node, slot=slot)


def attach_faults(net, sim):
    """Wire the full fault harness into a built network.

    Installs the link-health map on every router, the CONFIG-loss hook on
    every NI, the :class:`FaultInjector` and (unless disabled) the
    conservation/liveness :class:`Watchdog`.  Returns the injector, which
    is also stored as ``net.fault_harness``."""
    from repro.faults.health import LinkHealthMap

    fcfg = net.cfg.faults
    # fault events mutate links/routers from outside the phase loop, so
    # activity-tracked sleeping is unsound here: fall back to the legacy
    # run-everything stepper for fault campaigns
    sim.disable_sleep()
    health = LinkHealthMap(net)
    for r in net.routers:
        r.link_health = health
    plan = FaultPlan.from_config(fcfg, net, sim.rng)
    injector = FaultInjector(net, health, plan, sim.rng, fcfg)
    sim.add(injector)

    if fcfg.config_drop_rate > 0:
        rate = fcfg.config_drop_rate
        rng = sim.rng

        def lose_config() -> bool:
            return float(rng.random()) < rate

        for ni in net.interfaces:
            ni.config_loss_fn = lose_config

    if fcfg.watchdog:
        audit_fn = None
        if fcfg.audit:
            def audit_fn():
                detail = net.audit_conservation()
                if detail is None:
                    return None
                return {"imbalance": net.conservation_imbalance(),
                        "detail": detail}
        injector.watchdog = Watchdog(
            fcfg.watchdog_interval, fcfg.watchdog_patience,
            progress_fn=lambda: net.ledger.progress,
            in_flight_fn=net.in_flight_flits,
            audit_fn=audit_fn)
        sim.add(injector.watchdog)

    net.fault_harness = injector
    return injector
