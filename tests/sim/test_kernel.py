"""Unit tests for the simulation kernel."""

from collections import deque
from enum import Enum

import numpy as np
import pytest

from repro.harness.runner import prepare_synthetic
from repro.network.flit import Message, Packet
from repro.network.router import PacketRouter
from repro.sim.checkpoint import capture_state, reset_id_counters, state_hash
from repro.sim.kernel import PHASES, SimObject, Simulator


class Recorder(SimObject):
    def __init__(self, log, name):
        self.log = log
        self.name = name

    def transfer(self, cycle):
        self.log.append((cycle, self.name, "transfer"))

    def inject(self, cycle):
        self.log.append((cycle, self.name, "inject"))

    def control(self, cycle):
        self.log.append((cycle, self.name, "control"))


class OnlyTransfer(SimObject):
    def __init__(self):
        self.calls = 0

    def transfer(self, cycle):
        self.calls += 1


class TestSimulator:
    def test_phase_order_within_cycle(self):
        log = []
        sim = Simulator()
        sim.add(Recorder(log, "a"))
        sim.step()
        assert [entry[2] for entry in log] == list(PHASES)

    def test_phase_tiers_across_objects(self):
        """All objects run phase N before any object runs phase N+1."""
        log = []
        sim = Simulator()
        sim.add(Recorder(log, "a"))
        sim.add(Recorder(log, "b"))
        sim.step()
        phases = [entry[2] for entry in log]
        assert phases == ["transfer", "transfer", "inject", "inject",
                          "control", "control"]

    def test_cycle_advances(self):
        sim = Simulator()
        sim.run(17)
        assert sim.cycle == 17

    def test_run_until_predicate(self):
        sim = Simulator()
        executed = sim.run(100, until=lambda: sim.cycle >= 5)
        assert executed == 5
        assert sim.cycle == 5

    def test_non_overridden_phase_not_registered(self):
        sim = Simulator()
        obj = OnlyTransfer()
        sim.add(obj)
        assert obj in sim._phase_lists["transfer"]
        assert obj not in sim._phase_lists["inject"]
        assert obj not in sim._phase_lists["control"]
        sim.run(3)
        assert obj.calls == 3

    def test_rng_deterministic_by_seed(self):
        a = Simulator(seed=42).rng.integers(1000, size=10)
        b = Simulator(seed=42).rng.integers(1000, size=10)
        c = Simulator(seed=43).rng.integers(1000, size=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_end_hooks_fire_once_per_run(self):
        sim = Simulator()
        seen = []
        sim.add_end_hook(seen.append)
        sim.run(4)
        assert seen == [4]

    def test_add_returns_object(self):
        sim = Simulator()
        obj = OnlyTransfer()
        assert sim.add(obj) is obj
        assert obj in sim.objects


def _hash_trajectory(scheme: str, engine: str, reverse_routers: bool):
    reset_id_counters()
    sim, net, _ = prepare_synthetic(scheme, "uniform_random", 0.45, seed=3,
                                    width=4, height=4, slot_table_size=64,
                                    engine=engine)
    # A source router that rejects its own node's setup retries at once,
    # drawing a new slot (or plane) from the shared network stream inside
    # ``transfer``: with one stream, the router order decides which retry
    # gets which draw.  A private stream per router (in both runs) leaves
    # only the datapath's own order dependence, which must be none.
    for router in net.routers:
        router.rng = np.random.default_rng(router.node)
    if reverse_routers:
        lst = sim._phase_lists["transfer"]
        reordered = iter([o for o in lst if isinstance(o, PacketRouter)][::-1])
        sim._phase_lists["transfer"] = [
            next(reordered) if isinstance(o, PacketRouter) else o
            for o in lst]
        assert sim._phase_lists["transfer"] != lst
        sim._wake_pending = True
    hashes = []
    for _ in range(6):
        sim.run(100)
        hashes.append(state_hash(_without_message_ids(
            capture_state(sim, net))))
    return hashes


def _without_message_ids(tree):
    """Blank every message and packet id in a captured *tree*.

    Ids are labels handed out in creation order and steer nothing.  A
    router that rejects a setup creates the failure acknowledgement in
    ``transfer``, so two rejections in one cycle are numbered in router
    order."""
    seen = set()
    stack = [tree]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (str, int, float, Enum)):
            continue
        seen.add(id(obj))
        if isinstance(obj, (Message, Packet)):
            obj.id = -1
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, deque)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, name) for name in
                         getattr(type(obj), "__slots__", ())
                         if hasattr(obj, name))
            stack.extend(getattr(obj, "__dict__", {}).values())
    return tree


@pytest.mark.parametrize("engine", Simulator.ENGINES)
@pytest.mark.parametrize("scheme", ["packet_vc4", "hybrid_tdm_vc4",
                                    "hybrid_sdm_vc4"])
def test_router_order_does_not_change_the_trajectory(scheme, engine):
    """A router's ``transfer`` pops only pipe entries sent in earlier
    cycles (link latency >= 1), so the order the routers run in leaves
    the state-hash trajectory unchanged (message ids and the shared
    network stream aside, see ``_hash_trajectory``): the property that
    lets ``transfer`` pop its pipes itself instead of a separate
    delivery phase."""
    assert (_hash_trajectory(scheme, engine, reverse_routers=True)
            == _hash_trajectory(scheme, engine, reverse_routers=False))
