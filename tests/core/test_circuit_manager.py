"""ConnectionManager unit tests: triggers, retries, eviction, windows."""

import pytest

from repro.core.circuit import ConnState
from repro.core.decision import always_circuit, never_circuit
from repro.network.flit import ConfigPayload, ConfigType, Message, MessageClass
from repro.network.topology import LOCAL

from tests.conftest import build


def data_msg(src, dst, cycle=0):
    return Message(src=src, dst=dst, mclass=MessageClass.DATA,
                   size_flits=5, create_cycle=cycle)


class TestFrequencyTrigger:
    def test_setup_after_threshold_messages(self):
        sim, net = build("hybrid_tdm_vc4", 6, 6)
        mgr = net.managers[0]
        threshold = net.cfg.circuit.setup_msg_threshold
        for i in range(threshold - 1):
            mgr.plan_message(data_msg(0, 9), now=i)
        assert 9 not in mgr.connections
        mgr.plan_message(data_msg(0, 9), now=threshold)
        assert 9 in mgr.connections
        assert mgr.connections[9].state is ConnState.PENDING
        assert mgr.setups_sent == 1

    def test_window_rollover_resets_counts(self):
        sim, net = build("hybrid_tdm_vc4", 6, 6)
        mgr = net.managers[0]
        window = net.cfg.circuit.freq_window
        threshold = net.cfg.circuit.setup_msg_threshold
        for i in range(threshold - 1):
            mgr.plan_message(data_msg(0, 9), now=i)
        # next message lands in a fresh window: count restarts at 1
        mgr.plan_message(data_msg(0, 9), now=window + 1)
        assert 9 not in mgr.connections

    def test_ineligible_messages_never_counted(self):
        sim, net = build("hybrid_tdm_vc4", 6, 6)
        mgr = net.managers[0]
        mgr.eligible_fn = lambda m: False
        for i in range(50):
            assert mgr.plan_message(data_msg(0, 9), now=i) is None
        assert not mgr.connections

    def test_ctrl_messages_not_eligible_by_default(self):
        sim, net = build("hybrid_tdm_vc4", 6, 6)
        mgr = net.managers[0]
        ctrl = Message(src=0, dst=9, mclass=MessageClass.CTRL,
                       size_flits=1, create_cycle=0)
        for i in range(50):
            assert mgr.plan_message(ctrl, now=i) is None
        assert not mgr.connections

    def test_no_setup_to_self(self):
        sim, net = build("hybrid_tdm_vc4", 6, 6)
        mgr = net.managers[0]
        mgr._maybe_setup(0, 0)
        assert not mgr.connections


class TestPlanOwn:
    def _mgr_with_active(self, decision=None):
        sim, net = build("hybrid_tdm_vc4", 6, 6)
        mgr = net.managers[0]
        if decision is not None:
            mgr.decision_fn = decision
        from tests.core.test_circuit import setup_connection
        conn = setup_connection(sim, net, 0, 7)
        assert conn.state is ConnState.ACTIVE
        return sim, net, mgr, conn

    def test_plan_books_next_round(self):
        sim, net, mgr, conn = self._mgr_with_active(always_circuit())
        now = sim.cycle
        plan = mgr.plan_message(data_msg(0, 7), now)
        assert plan is not None and plan.kind == "own"
        assert net.clock.slot(plan.t0) == conn.slot0
        assert conn.next_round_min == plan.t0 + net.clock.active

    def test_consecutive_plans_use_consecutive_rounds(self):
        sim, net, mgr, conn = self._mgr_with_active(always_circuit())
        now = sim.cycle
        p1 = mgr.plan_message(data_msg(0, 7), now)
        p2 = mgr.plan_message(data_msg(0, 7), now)
        assert p2.t0 - p1.t0 == net.clock.active

    def test_decision_rejection_sends_packet_switched(self):
        sim, net, mgr, conn = self._mgr_with_active(never_circuit())
        plan = mgr.plan_message(data_msg(0, 7), sim.cycle)
        assert plan is None
        assert conn.uses == 0

    def test_pending_connection_not_used(self):
        sim, net = build("hybrid_tdm_vc4", 6, 6)
        mgr = net.managers[0]
        mgr.decision_fn = always_circuit()
        mgr._maybe_setup(7, 0)  # pending, never acked (no sim steps)
        plan = mgr.plan_message(data_msg(0, 7), now=1)
        assert plan is None


class TestRetriesAndFailure:
    def _fail_payload(self, mgr, conn):
        p = ConfigPayload(ConfigType.ACK_FAIL, mgr.node, conn.dst,
                          conn.slot0, conn.duration, conn.conn_id)
        return p

    def test_ack_fail_triggers_retry_with_new_conn_id(self):
        sim, net = build("hybrid_tdm_vc4", 6, 6)
        mgr = net.managers[0]
        mgr._maybe_setup(9, 0)
        conn = mgr.connections[9]
        old_id = conn.conn_id
        mgr._on_ack(self._fail_payload(mgr, conn), cycle=10, success=False)
        assert conn.conn_id != old_id
        assert conn.retries == 1
        assert conn.state is ConnState.PENDING
        assert mgr.setups_sent == 2
        assert mgr.teardowns_sent == 0  # failure teardown is via config

    def test_retries_exhaust_and_connection_dropped(self):
        sim, net = build("hybrid_tdm_vc4", 6, 6)
        mgr = net.managers[0]
        mgr._maybe_setup(9, 0)
        for i in range(net.cfg.circuit.max_setup_retries + 1):
            conn = mgr.connections.get(9)
            if conn is None:
                break
            mgr._on_ack(self._fail_payload(mgr, conn), cycle=10 + i,
                        success=False)
        assert 9 not in mgr.connections
        assert mgr.setups_failed == net.cfg.circuit.max_setup_retries + 1

    def test_stale_ack_sends_cleanup_teardown(self):
        sim, net = build("hybrid_tdm_vc4", 6, 6)
        mgr = net.managers[0]
        payload = ConfigPayload(ConfigType.ACK_SUCCESS, 0, 9, 5, 4,
                                conn_id=424242)
        before = len(net.ni(0).ps_queue)
        mgr.on_config(payload, cycle=50)
        assert len(net.ni(0).ps_queue) == before + 1  # the teardown

    def test_setup_result_reported_to_size_controller(self):
        sim, net = build("hybrid_tdm_vc4", 6, 6)
        mgr = net.managers[0]
        ctl = net.size_controller
        start = ctl._consecutive_failures
        mgr._maybe_setup(9, 0)
        conn = mgr.connections[9]
        mgr._on_ack(self._fail_payload(mgr, conn), cycle=10, success=False)
        assert ctl._consecutive_failures == start + 1


class TestEviction:
    def test_idle_connection_evicted_when_table_crowded(self):
        sim, net = build("hybrid_tdm_vc4", 6, 6)
        mgr = net.managers[0]
        from tests.core.test_circuit import setup_connection
        # shrink the wheel so few connections crowd the local table
        net.clock.active = 16
        c1 = setup_connection(sim, net, 0, 1)
        c2 = setup_connection(sim, net, 0, 2)
        assert c1.state is ConnState.ACTIVE
        assert c2.state is ConnState.ACTIVE
        # make c1 ancient, then provoke a new setup
        c1.last_used = -10_000
        mgr._maybe_setup(3, sim.cycle)
        assert 1 not in mgr.connections  # evicted
        assert mgr.teardowns_sent >= 1

    def test_recent_connections_not_evicted(self):
        sim, net = build("hybrid_tdm_vc4", 6, 6)
        mgr = net.managers[0]
        from tests.core.test_circuit import setup_connection
        net.clock.active = 16
        c1 = setup_connection(sim, net, 0, 1)
        c1.last_used = sim.cycle
        mgr._maybe_setup(3, sim.cycle)
        assert 1 in mgr.connections


class TestResetAll:
    def test_reset_clears_state(self):
        sim, net = build("hybrid_tdm_hop_vc4", 6, 6)
        mgr = net.managers[0]
        from tests.core.test_circuit import setup_connection
        setup_connection(sim, net, 0, 7)
        mgr.reset_all()
        assert not mgr.connections
        assert not mgr.by_id
        assert len(mgr.dlt) == 0


class TestResizeStaleAck:
    def test_resize_while_setup_in_flight_leaves_no_ghost(self):
        """A table resize drops every connection record; the setup that
        was already in flight must resolve through the stale-ack path
        without resurrecting a connection or leaking reservations."""
        sim, net = build("hybrid_tdm_vc4", 6, 6)
        mgr = net.managers[0]
        mgr._maybe_setup(9, sim.cycle)
        conn = mgr.connections[9]
        stale_id = conn.conn_id
        sim.run(4)                       # SETUP is mid-flight, no ack yet
        assert mgr.connections[9].state is ConnState.PENDING
        ctl = net.size_controller
        net.clock.active = 64            # leave headroom so resize fires
        ctl._resize_pending = True
        old_gen = net.clock.generation
        ctl.control(sim.cycle)
        assert net.clock.generation == old_gen + 1
        assert not mgr.connections       # reset_all dropped the record
        sim.run(300)
        assert 9 not in mgr.connections  # no ghost connection appeared
        assert stale_id not in mgr.by_id
        assert mgr.setups_ok == 0
        active = net.clock.active
        reserved = sum(t.reserved_count(active)
                       for r in net.routers for t in r.slot_state.in_tables)
        assert reserved == 0             # cleanup teardown walked the path


class TestChooseSlot:
    def _fill_all_but(self, net, mgr, free_start):
        table = net.routers[0].slot_state.in_tables[LOCAL]
        active = net.clock.active
        duration = mgr.reserve_duration
        free = {(free_start + i) % active for i in range(duration)}
        for s in range(active):
            if s not in free:
                table.set(s, LOCAL, 999)

    def test_base_protocol_probes_may_give_up(self):
        sim, net = build("hybrid_tdm_vc4", 6, 6)
        mgr = net.managers[0]
        net.clock.active = net.clock.max_size   # make probe hits rare
        free_start = net.clock.active - mgr.reserve_duration
        self._fill_all_but(net, mgr, free_start)
        results = [mgr._choose_slot(mgr.reserve_duration)
                   for _ in range(20)]
        assert None in results                  # the 8 probes gave up
        assert set(results) <= {None, free_start}
