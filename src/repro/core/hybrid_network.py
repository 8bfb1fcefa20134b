"""Assembly of the TDM hybrid-switched network (S5-S11 wired together)."""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

from repro.config import NetworkConfig
from repro.core.circuit import ConnectionManager
from repro.core.hybrid_ni import HybridNetworkInterface
from repro.core.hybrid_router import HybridRouter
from repro.core.sharing import DestinationLookupTable
from repro.core.slot_sizing import SlotSizeController
from repro.core.slot_table import SlotClock
from repro.network.network import Network, _build
from repro.sim.kernel import Simulator


class HybridNetwork(Network):
    """A mesh of hybrid-switched routers plus circuit control plane."""

    def __init__(self, cfg: NetworkConfig, sim: Simulator, routers,
                 interfaces, links, clock: SlotClock) -> None:
        super().__init__(cfg, sim, routers, interfaces, links)
        self.clock = clock
        self.managers: List[ConnectionManager] = []
        self.size_controller: Optional[SlotSizeController] = None

    # ------------------------------------------------------------------
    def _reset_router_extra(self, router, cycle: int) -> None:
        if self.size_controller is not None:
            self.size_controller.reset_integral(cycle)

    def cs_flits_ejected(self) -> int:
        return int(sum(ni.counters["cs_flit_ejected"]
                       for ni in self.interfaces))

    def ps_flits_ejected(self) -> int:
        return int(sum(ni.counters["ps_flit_ejected"]
                       for ni in self.interfaces))

    def cs_flit_fraction(self) -> float:
        cs = self.cs_flits_ejected()
        total = cs + self.ps_flits_ejected()
        return cs / total if total else 0.0

    def active_connections(self) -> int:
        from repro.core.circuit import ConnState
        return sum(1 for m in self.managers for c in m.connections.values()
                   if c.state is ConnState.ACTIVE)

    # ------------------------------------------------------------------
    # snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = super().state_dict()
        state.update({
            "clock": {"active": self.clock.active,
                      "generation": self.clock.generation},
            "managers": [m.state_dict() for m in self.managers],
            "size_controller": None if self.size_controller is None
            else self.size_controller.state_dict(),
        })
        return state

    def load_state_dict(self, state: dict) -> None:
        # clock first: slot arithmetic during any later wiring fix-ups
        # must already see the restored wheel size.  The SlotClock object
        # is shared by every router/manager, so mutate it in place.
        self.clock.set_active(state["clock"]["active"])
        self.clock.generation = state["clock"]["generation"]
        super().load_state_dict(state)
        for m, sub in zip(self.managers, state["managers"], strict=True):
            m.load_state_dict(sub)
        if self.size_controller is not None \
                and state["size_controller"] is not None:
            self.size_controller.load_state_dict(state["size_controller"])
        # relink shared objects and rebuild NI-bound injection callbacks
        for router, ni, manager in zip(self.routers, self.interfaces,
                                       self.managers, strict=True):
            manager.dlt = router.dlt
            router.rebind_cs_injections(ni)


def build_hybrid_network(
    cfg: NetworkConfig,
    sim: Simulator,
    decision_fn: Optional[Callable] = None,
    eligible_fn: Optional[Callable] = None,
) -> HybridNetwork:
    """Build a TDM hybrid network, including per-node connection
    managers, DLTs (when path sharing is on) and the dynamic slot-table
    size controller."""
    st = cfg.slot_table
    clock = SlotClock(st.size, active=st.reset_wheel)

    net: HybridNetwork = _build(
        cfg, sim,
        router_cls=partial(HybridRouter, clock=clock),
        ni_cls=HybridNetworkInterface,
        net_cls=partial(HybridNetwork, clock=clock),
    )

    sharing = cfg.circuit.hitchhiker or cfg.circuit.vicinity
    controller = SlotSizeController(clock, st, net.routers, net.managers)
    net.size_controller = controller
    sim.add(controller)

    for node in range(net.mesh.num_nodes):
        router = net.routers[node]
        ni = net.interfaces[node]
        dlt = None
        if sharing:
            dlt = DestinationLookupTable(
                capacity=cfg.circuit.dlt_size,
                fail_threshold=cfg.circuit.sharing_fail_threshold)
            router.dlt = dlt
        manager = ConnectionManager(
            node, cfg, clock, net.mesh, ni, router,
            decision_fn=decision_fn, eligible_fn=eligible_fn,
            dlt=dlt, size_controller=controller)
        ni.manager = manager
        ni.config_handler = manager.on_config
        router.on_setup_rejected = manager.on_setup_rejected
        net.managers.append(manager)
    return net
