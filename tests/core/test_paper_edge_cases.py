"""Corner cases the paper's prose pins down exactly.

* slot ids advance +2 per hop **modulo the active wheel**, including
  reservations that wrap the wheel boundary and setups that straddle a
  dynamic table resize (Section II-B/II-C);
* vicinity sharing reserves ``duration + 1`` slots — the extra header
  slot carries the hop-off address (Section III-A2);
* the 2-bit saturating sharing-failure counters escalate to a dedicated
  setup exactly at the threshold (Section III-A1).
"""

from __future__ import annotations

from repro.core.sharing import DestinationLookupTable, SaturatingCounter
from repro.core.slot_table import RouterSlotState, SlotClock
from repro.network.topology import EAST, LOCAL

from tests.conftest import build
from tests.core.test_circuit import setup_connection, walk_circuit


# ---------------------------------------------------------------------------
# +2 (mod S) slot arithmetic at the wheel boundary
# ---------------------------------------------------------------------------
class TestSlotWraparound:
    def test_plus_two_wraps_modulo_active_not_max(self):
        clock = SlotClock(8, active=4)
        # the wheel is the ACTIVE prefix: 3 + 2 wraps to 1, not 5
        assert clock.wrap(3 + 2) == 1
        assert clock.slot(7) == 3

    def test_reservation_wraps_wheel_boundary(self):
        clock = SlotClock(8, active=4)
        st = RouterSlotState(clock)
        st.reserve(LOCAL, EAST, start=3, duration=2, conn=7)
        table = st.in_tables[LOCAL]
        assert [s for s in range(4) if table.valid[s]] == [0, 3]
        # the wrapped slot 0 really is occupied, input- and output-side
        assert not st.can_reserve(LOCAL, EAST, start=0, duration=1)
        assert st.output_reserved(EAST, 0)
        assert st.release(LOCAL, start=3, duration=2, conn=7) == EAST
        assert table.reserved_count(4) == 0

    def test_next_cycle_for_slot_respects_active_wheel(self):
        clock = SlotClock(16, active=4)
        # slot 1, not before cycle 7 (slot 3): next hit is cycle 9
        assert clock.next_cycle_for_slot(1, 7) == 9
        assert clock.slot(9) == 1

    def test_chain_wraps_across_wheel_on_long_path(self):
        """A path long enough that +2/hop exceeds the wheel forces at
        least one wrapped slot id; walk_circuit follows the chain with
        the same modular arithmetic and must reach the destination."""
        sim, net = build("hybrid_tdm_vc4", 6, 6, slot_table_size=8)
        net.clock.active = 8
        conn = setup_connection(sim, net, 0, 35)
        assert conn is not None
        path = walk_circuit(net, 0, conn)
        assert path[-1] == 35
        assert net.mesh.hops(0, 35) * 2 > net.clock.active  # really wrapped

    def test_inflight_setup_dropped_after_table_resize(self):
        """A setup whose generation stamp predates a resize must be
        consumed as stale — its modular arithmetic refers to the old
        wheel — after which the path setup procedure restarts with the
        new generation (the paper: "all slot tables are reset, and the
        path setup procedure restarts")."""
        sim, net = build("hybrid_tdm_vc4", 6, 6)
        net.managers[0]._maybe_setup(35, sim.cycle)
        sim.run(2)  # the setup is somewhere mid-walk
        net.clock.generation += 1       # dynamic resize: tables reset
        net.clock.active = min(net.clock.max_size, net.clock.active * 2)
        for r in net.routers:
            r.slot_state.reset()
        sim.run(200)
        assert sum(r.counters["setup_stale"] for r in net.routers) >= 1
        # the stale setup was rejected with an ACK_FAIL, and the retry
        # carries the new generation stamp: the recovered circuit walks
        # cleanly on the NEW wheel
        from repro.core.circuit import ConnState
        conn = net.managers[0].connections.get(35)
        assert conn is not None and conn.state is ConnState.ACTIVE
        assert walk_circuit(net, 0, conn)[-1] == 35

    def test_stale_teardown_is_a_no_op(self):
        """A teardown stamped with the pre-resize generation walks into
        reset tables; the generation guard must turn it into a no-op
        rather than let it clear someone else's fresh reservation."""
        sim, net = build("hybrid_tdm_vc4", 6, 6)
        conn = setup_connection(sim, net, 0, 3)
        assert conn is not None
        # resize happens; a new connection is established on the new wheel
        net.clock.generation += 1
        for r in net.routers:
            r.slot_state.reset()
        net.managers[0].reset_all()
        conn2 = setup_connection(sim, net, 0, 3)
        assert conn2 is not None
        before = sum(r.slot_state.reserved_entries() for r in net.routers)
        # the stale teardown for the OLD connection arrives afterwards
        from repro.network.flit import ConfigPayload, ConfigType
        payload = ConfigPayload(ConfigType.TEARDOWN, 0, 3, conn.slot0,
                                conn.duration, conn.conn_id)
        payload.generation = net.clock.generation - 1
        assert net.router(0)._process_teardown(LOCAL, None, payload,
                                               sim.cycle) is None
        after = sum(r.slot_state.reserved_entries() for r in net.routers)
        assert after == before


# ---------------------------------------------------------------------------
# vicinity sharing: duration + 1 header slot
# ---------------------------------------------------------------------------
class TestVicinityHeaderSlot:
    def test_reserve_duration_adds_header_slot(self):
        sim, net = build("hybrid_tdm_hop_vc4", 6, 6)
        mgr = net.managers[0]
        assert net.router(0).cfg.circuit.vicinity
        assert mgr.reserve_duration == net.router(0).cfg.circuit.duration + 1

    def test_vicinity_setup_reserves_duration_plus_one_slots(self):
        sim, net = build("hybrid_tdm_hop_vc4", 6, 6)
        conn = setup_connection(sim, net, 0, 3)
        assert conn is not None
        table = net.router(0).slot_state.in_tables[LOCAL]
        reserved = table.reserved_count(net.clock.active)
        assert reserved == net.router(0).cfg.circuit.duration + 1

    def test_plain_tdm_has_no_header_slot(self):
        sim, net = build("hybrid_tdm_vc4", 6, 6)
        mgr = net.managers[0]
        assert mgr.reserve_duration == net.router(0).cfg.circuit.duration

    def test_vicinity_packet_carries_header_flit(self):
        sim, net = build("hybrid_tdm_hop_vc4", 6, 6)
        cfg = net.router(0).cfg
        assert cfg.packet_size("cs_vicinity") == cfg.circuit.duration + 1


# ---------------------------------------------------------------------------
# 2-bit saturating sharing-failure counters
# ---------------------------------------------------------------------------
class TestSaturatingCounter:
    def test_escalates_exactly_at_threshold(self):
        c = SaturatingCounter(threshold=2)
        assert not c.up()           # 1: below threshold
        assert c.up()               # 2: trigger
        assert c.triggered

    def test_saturates_at_three(self):
        c = SaturatingCounter(threshold=2)
        for _ in range(10):
            c.up()
        assert c.value == 3
        c.down()
        assert c.value == 2

    def test_down_floors_at_zero(self):
        c = SaturatingCounter(threshold=2)
        c.down()
        assert c.value == 0
        c.up()
        c.down()
        c.down()
        assert c.value == 0

    def test_success_just_below_threshold_averts_escalation(self):
        c = SaturatingCounter(threshold=2)
        c.up()          # 1
        c.down()        # 0 — a success resets the streak partially
        assert not c.up()   # 1 again: still below threshold
        assert not c.triggered

    def test_dlt_escalation_drops_tracking_entry(self):
        dlt = DestinationLookupTable(capacity=4, fail_threshold=2)
        assert not dlt.note_failure(5)
        assert dlt.note_failure(5)          # threshold: dedicated setup
        # counter was dropped: the next failure starts a fresh streak
        assert not dlt.note_failure(5)

    def test_dlt_success_decrements_streak(self):
        dlt = DestinationLookupTable(capacity=4, fail_threshold=2)
        dlt.note_failure(5)
        dlt.note_success(5)
        assert not dlt.note_failure(5)      # 0 -> 1, below threshold
