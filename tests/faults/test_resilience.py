"""Tests for the fault-injection & resilience subsystem.

Covers the acceptance scenarios of the resilience PR:

* lost-ACK setup retry with exact exponential-backoff cycles,
* demotion of repeatedly-failing pairs to pure packet switching,
* confirmed teardowns (TEARDOWN_ACK) and teardown-loss orphan GC,
* fault-aware rerouting around a permanently dead link,
* the conservation/liveness watchdog raising :class:`LivelockError`,
* end-to-end conservation under a seeded mixed-fault run.

All timings are deterministic: the timeout machinery draws nothing from
the RNG, so timeout / retry / backoff cycles are asserted exactly.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import scheme_config
from repro.core.circuit import ConnState
from repro.core.decision import always_circuit
from repro.network.flit import Message, MessageClass
from repro.network.network import build_network
from repro.network.topology import EAST
from repro.sim.kernel import LivelockError, Simulator
from repro.traffic import attach_synthetic_sources, make_pattern
from tests.core.test_circuit import setup_connection


def build_resilient(scheme="hybrid_tdm_vc4", width=4, height=4, seed=1,
                    timeout=40, circuit=None, faults=None):
    """Build a network with the resilience protocol enabled.

    ``circuit`` / ``faults`` are extra field overrides for the nested
    configs (applied with :func:`dataclasses.replace`)."""
    cfg = scheme_config(scheme, width=width, height=height)
    c = dict(setup_timeout=timeout)
    c.update(circuit or {})
    cfg = replace(cfg, circuit=replace(cfg.circuit, **c))
    if faults is not None:
        cfg = replace(cfg, faults=replace(cfg.faults, **faults))
    sim = Simulator(seed=seed)
    net = build_network(cfg, sim)
    return sim, net


def total_reserved(net) -> int:
    active = net.clock.active
    return sum(t.reserved_count(active)
               for r in net.routers for t in r.slot_state.in_tables)


# ---------------------------------------------------------------------------
class TestSetupTimeoutBackoff:
    def test_lost_setup_retries_with_exact_backoff_cycles(self):
        sim, net = build_resilient(timeout=40)
        mgr = net.managers[0]
        ni = net.ni(0)
        ni.config_loss_fn = lambda: True     # every CONFIG message is lost
        mgr._send_setup(5, sim.cycle)        # cycle 0
        conn = mgr.connections[5]
        assert conn.state is ConnState.PENDING
        assert conn.deadline == 40
        assert ni.config_drops == 1

        sim.run(41)                          # control at cycle 40 fires
        assert mgr.setups_timed_out == 1
        assert conn.retries == 1
        assert conn.retry_at == 80           # 40 + backoff(1) = 40 + 40
        # the id was dropped so a delayed ack takes the stale-ack path
        assert conn.conn_id not in mgr.by_id
        # the cleanup teardown was also (deliberately) lost
        assert ni.config_drops == 2

        sim.run(40)                          # retry re-sent at cycle 80
        assert mgr.setups_sent == 2
        assert conn.retry_at == 0
        assert conn.deadline == 120          # 80 + timeout
        assert conn.conn_id in mgr.by_id     # fresh id registered

        sim.run(40)                          # second timeout at cycle 120
        assert mgr.setups_timed_out == 2
        assert conn.retries == 2
        assert conn.retry_at == 200          # 120 + backoff(2) = 120 + 80

    def test_backoff_is_capped(self):
        sim, net = build_resilient(timeout=40)
        mgr = net.managers[0]
        assert mgr._backoff(1) == 40
        assert mgr._backoff(2) == 80
        assert mgr._backoff(3) == 160
        assert mgr._backoff(10) == 40 * mgr.ccfg.backoff_cap

    def test_retries_exhaust_then_pair_demoted(self):
        sim, net = build_resilient(
            timeout=40, circuit=dict(max_setup_retries=1,
                                     demote_threshold=1, demote_cycles=100))
        mgr = net.managers[0]
        net.ni(0).config_loss_fn = lambda: True
        mgr._send_setup(5, 0)
        sim.run(200)   # timeout@40, retry@80, final timeout@120 -> give up
        assert mgr.setups_timed_out == 2
        assert 5 not in mgr.connections
        assert mgr.pairs_demoted == 1
        # demoted until cycle 120 + 100 = 220: no new setups before then
        mgr._maybe_setup(5, 200)
        assert 5 not in mgr.connections
        mgr._maybe_setup(5, 230)             # cool-down over
        assert 5 in mgr.connections

    def test_default_config_keeps_resilience_off(self):
        cfg = scheme_config("hybrid_tdm_vc4")
        assert cfg.circuit.setup_timeout == 0
        assert not cfg.circuit.resilience_enabled
        assert not cfg.faults.enabled


# ---------------------------------------------------------------------------
class TestTeardownConfirmation:
    def test_teardown_ack_confirms_and_unregisters(self):
        sim, net = build_resilient(timeout=64)
        conn = setup_connection(sim, net, 0, 3)
        assert conn is not None and conn.state is ConnState.ACTIVE
        mgr = net.managers[0]
        mgr.teardown(conn, sim.cycle)
        assert conn.state is ConnState.TEARING
        assert conn.conn_id in mgr._tearing
        assert conn.conn_id in mgr.by_id     # slots still count as live
        sim.run(100)
        assert mgr.teardowns_confirmed == 1
        assert not mgr._tearing
        assert conn.conn_id not in mgr.by_id
        assert mgr.teardowns_timed_out == 0

    def test_lost_teardown_times_out_and_gc_reclaims_slots(self):
        sim, net = build_resilient(
            timeout=64, circuit=dict(max_setup_retries=1))
        conn = setup_connection(sim, net, 0, 3)
        assert conn is not None and conn.state is ConnState.ACTIVE
        mgr = net.managers[0]
        assert total_reserved(net) > 0
        net.ni(0).config_loss_fn = lambda: True   # teardown walks get lost
        mgr.teardown(conn, sim.cycle)
        sim.run(300)   # initial walk + 1 retry lost -> abandoned
        assert mgr.teardowns_timed_out == 2
        assert not mgr._tearing
        assert conn.conn_id not in mgr.by_id
        # the reservations leak until the orphan GC sweeps them
        assert total_reserved(net) > 0
        freed = net.collect_orphans()
        assert freed > 0
        assert total_reserved(net) == 0


# ---------------------------------------------------------------------------
class TestFaultAwareRouting:
    def test_packet_reroutes_around_dead_link(self):
        cfg = scheme_config("packet_vc4", width=4, height=4)
        cfg = replace(cfg, faults=replace(cfg.faults, enabled=True,
                                          watchdog=False))
        sim = Simulator(seed=1)
        net = build_network(cfg, sim)
        health = net.fault_harness.health
        assert health.fail_bidir(0, EAST)
        dst = net.mesh.neighbor(0, EAST)
        net.ni(0).send(Message(src=0, dst=dst, mclass=MessageClass.DATA,
                               size_flits=5, create_cycle=0))
        sim.run(400)
        # the only minimal path used the dead link: misroute + deliver
        assert net.messages_delivered == 1
        assert sum(int(r.counters["misroute"]) for r in net.routers) >= 1
        assert net.conservation_imbalance() == 0

    def test_restored_link_carries_traffic_again(self):
        cfg = scheme_config("packet_vc4", width=4, height=4)
        cfg = replace(cfg, faults=replace(cfg.faults, enabled=True,
                                          watchdog=False))
        sim = Simulator(seed=1)
        net = build_network(cfg, sim)
        health = net.fault_harness.health
        assert health.fail_bidir(0, EAST)
        assert not health.up(0, EAST)
        assert health.restore_bidir(0, EAST)
        assert health.up(0, EAST)
        assert not health.any_faults
        dst = net.mesh.neighbor(0, EAST)
        net.ni(0).send(Message(src=0, dst=dst, mclass=MessageClass.DATA,
                               size_flits=5, create_cycle=0))
        sim.run(200)
        assert net.messages_delivered == 1
        assert sum(int(r.counters["misroute"]) for r in net.routers) == 0
        assert net.conservation_imbalance() == 0


# ---------------------------------------------------------------------------
class TestWatchdog:
    @pytest.mark.parametrize("scheme", ["packet_vc4", "hybrid_tdm_vc4",
                                        "hybrid_sdm_vc4"])
    def test_stalled_network_raises_livelock_error(self, scheme):
        cfg = scheme_config(scheme, width=4, height=4)
        cfg = replace(cfg, faults=replace(
            cfg.faults, enabled=True, watchdog=True,
            watchdog_interval=32, watchdog_patience=2))
        sim = Simulator(seed=1)
        net = build_network(cfg, sim)
        far = net.mesh.num_nodes - 1
        net.ni(0).send(Message(src=0, dst=far, mclass=MessageClass.DATA,
                               size_flits=5, create_cycle=0))
        sim.run(3)
        for r in net.routers:                # freeze every pipeline
            r.stalled_until = 1 << 30
        with pytest.raises(LivelockError) as exc:
            sim.run(200)
        # check@32 sets the baseline, stalled checks at 64 and 96 -> raise
        assert exc.value.cycle == 96
        assert exc.value.in_flight > 0

    @pytest.mark.parametrize("scheme", ["hybrid_tdm_vc4",
                                        "hybrid_sdm_vc4"])
    def test_circuit_injection_due_in_a_stall_fails_over(self, scheme):
        """A stalled router takes no circuit flit: the injection falls
        back to packet switching instead of staying scheduled."""
        sim = Simulator(seed=1)
        net = build_network(scheme_config(scheme, width=4, height=4), sim)
        net.managers[0].decision_fn = always_circuit()
        assert setup_connection(sim, net, 0, 3).state is ConnState.ACTIVE
        router = net.router(0)
        net.ni(0).send(Message(src=0, dst=3, mclass=MessageClass.DATA,
                               size_flits=5, create_cycle=sim.cycle))
        assert router._cs_inject
        router.stalled_until = max(router._cs_inject) + 1
        sim.run(router.stalled_until - sim.cycle)
        assert not router._cs_inject
        assert net.ni(0).counters["cs_fallback"] == 1
        sim.run(300)
        assert net.messages_delivered == 1
        assert net.audit_conservation() is None

    def test_healthy_run_never_trips_watchdog(self):
        cfg = scheme_config("packet_vc4", width=4, height=4)
        cfg = replace(cfg, faults=replace(
            cfg.faults, enabled=True, watchdog=True,
            watchdog_interval=64, watchdog_patience=2))
        sim = Simulator(seed=2)
        net = build_network(cfg, sim)
        pat = make_pattern("uniform_random", net.mesh, sim.rng)
        attach_synthetic_sources(net, pat, injection_rate=0.1, rng=sim.rng)
        sim.run(1000)   # would raise if liveness/conservation broke
        wd = net.fault_harness.watchdog
        assert wd.checks > 0
        assert wd.audit_violations == 0
        assert net.audit_conservation() is None


# ---------------------------------------------------------------------------
class TestSeededFaultRun:
    def test_mixed_faults_conserve_flits_and_deliver(self):
        cfg = scheme_config("hybrid_tdm_vc4", width=4, height=4)
        cfg = replace(
            cfg,
            circuit=replace(cfg.circuit, setup_timeout=64),
            faults=replace(cfg.faults, enabled=True, config_drop_rate=0.02,
                           link_fail_count=1, link_fail_cycle=400,
                           transient_link_rate=0.002, transient_duration=100,
                           watchdog_interval=256, watchdog_patience=8))
        sim = Simulator(seed=5)
        net = build_network(cfg, sim)
        pat = make_pattern("transpose", net.mesh, sim.rng)
        attach_synthetic_sources(net, pat, injection_rate=0.15, rng=sim.rng)
        sim.run(2000)
        for ni in net.interfaces:            # stop the sources and drain
            if ni.endpoint is not None:
                ni.endpoint.tick = lambda cycle: None
        try:
            sim.run(1500)
        except LivelockError:
            pass   # wedged residue behind the dead link is acceptable
        assert net.fault_harness.links_failed >= 1
        assert net.fault_harness.watchdog.audit_violations == 0
        assert net.audit_conservation() is None
        ledger = net.ledger
        assert ledger.injected > 0
        delivered = ledger.ejected / ledger.injected
        assert delivered >= 0.90
        # every pending setup is bounded by the timeout machinery
        for mgr in net.managers:
            for conn in mgr.connections.values():
                if conn.state is ConnState.PENDING:
                    assert conn.retry_at or conn.deadline
