"""Cross-cutting property-based invariants over random configurations.

These are the heavyweight guarantees of the simulator:

* message conservation — whatever the scheme, pattern, rate or seed,
  every generated message is delivered exactly once after drain;
* credit restoration — flow-control state returns to its initial value
  when the network empties;
* slot-table consistency — input tables and output-owner maps never
  disagree, even through setups, teardowns, failures and resizes;
* flit conservation — the shared ledger balances (injected = ejected +
  consumed + in the fabric) on every scheme, mid-run and after drain,
  and every router's fast-path counters match a recount of its buffers;
* liveness — the watchdog every network carries stays quiet on healthy
  runs and raises :class:`LivelockError` when flits stop moving.
"""

from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import SCHEMES as ALL_SCHEMES
from repro.network.flit import Message, MessageClass
from repro.network.topology import LOCAL, NUM_PORTS
from repro.sim.kernel import LivelockError, Watchdog

from tests.conftest import build, drain, run_traffic

SCHEMES = ["packet_vc4", "hybrid_tdm_vc4", "hybrid_tdm_hop_vct",
           "hybrid_sdm_vc4"]
PATTERNS = ["uniform_random", "tornado", "transpose", "neighbor"]

light = settings(max_examples=8, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@light
@given(scheme=st.sampled_from(SCHEMES),
       pattern=st.sampled_from(PATTERNS),
       rate=st.floats(0.02, 0.35),
       seed=st.integers(0, 10_000))
def test_message_conservation(scheme, pattern, rate, seed):
    sim, net, sources = run_traffic(scheme, pattern, rate=rate,
                                    warmup=0, measure=600, seed=seed)
    assert drain(sim, net, max_cycles=20_000), "network failed to drain"
    generated = sum(s.messages_generated for s in sources)
    received = sum(s.messages_received for s in sources)
    assert received == generated


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_flit_ledger_balances_during_run_and_after_drain(scheme):
    """Circuit injections, consumed configuration packets and
    circuit-to-packet fallbacks all reach the conservation ledger."""
    sim, net, _ = run_traffic(scheme, "uniform_random", rate=0.45,
                              warmup=0, measure=0, width=6, height=6)
    for _ in range(5):
        sim.run(300)
        assert net.audit_conservation() is None
        assert all(r.audit_counters() is None for r in net.routers)
    assert net.ledger.injected > 0
    assert drain(sim, net, max_cycles=20_000)
    assert net.audit_conservation() is None
    assert all(r.audit_counters() is None for r in net.routers)
    assert net.watchdog.checks > 0
    assert net.watchdog.audit_violations == 0


@pytest.mark.parametrize("counter", ["_buffered_flits", "_claims",
                                     "_port_unalloc", "_unalloc_vcs",
                                     "_busy_by_vc"])
def test_watchdog_audit_reports_a_corrupted_router_counter(counter):
    """The watchdog's audit recounts every router's fast-path counters
    and claim lists from its VC buffers and owner tables."""
    sim, net, _ = run_traffic("hybrid_tdm_vc4", "uniform_random", rate=0.3,
                              warmup=0, measure=400)
    assert net.audit_conservation() is None
    router = net.routers[5]
    value = getattr(router, counter)
    if counter == "_claims":
        # a claim on a fifo no VC owns: never a switch candidate, but
        # not in the recount
        value[LOCAL][0].append((0, LOCAL, 0, deque()))
    elif isinstance(value, list):
        value[LOCAL] += 1
    else:
        setattr(router, counter, value + 1)
    detail = net.audit_conservation()
    assert detail is not None
    assert f"router 5 counters: {counter}=" in detail
    sim.run(200)                 # through the watchdog check at cycle 512
    assert net.watchdog.audit_violations == 1
    assert f"{counter}=" in net.watchdog.last_violation["detail"]


@light
@given(scheme=st.sampled_from(["packet_vc4", "hybrid_tdm_vc4"]),
       rate=st.floats(0.05, 0.4),
       seed=st.integers(0, 10_000))
def test_credits_restored_after_drain(scheme, rate, seed):
    sim, net, _ = run_traffic(scheme, "uniform_random", rate=rate,
                              warmup=0, measure=500, seed=seed)
    assert drain(sim, net, max_cycles=20_000)
    depth = net.cfg.router.vc_depth
    for r in net.routers:
        for outport in range(1, NUM_PORTS):
            if r.out_links[outport] is None:
                continue
            assert r.credits[outport][:r.rcfg.num_vcs] == \
                [depth] * r.rcfg.num_vcs


@light
@given(rate=st.floats(0.1, 0.5), seed=st.integers(0, 10_000),
       pattern=st.sampled_from(PATTERNS))
def test_slot_tables_consistent_under_protocol_churn(rate, seed, pattern):
    sim, net, sources = run_traffic("hybrid_tdm_vc4", pattern, rate=rate,
                                    width=5, height=5, warmup=0,
                                    measure=1200, seed=seed)
    active = net.clock.active
    for r in net.routers:
        st_ = r.slot_state
        owned = 0
        for out in range(NUM_PORTS):
            for slot in range(active):
                owner = st_.out_owner[out][slot]
                if owner == -1:
                    continue
                owned += 1
                hit = st_.lookup_in(owner, slot)
                assert hit is not None and hit[0] == out
        reserved = sum(t.reserved_count(active) for t in st_.in_tables)
        assert reserved == owned


@light
@given(seed=st.integers(0, 10_000), rate=st.floats(0.05, 0.4))
def test_hybrid_conservation_with_sharing_and_gating(seed, rate):
    sim, net, sources = run_traffic("hybrid_tdm_hop_vct", "transpose",
                                    rate=rate, width=5, height=5,
                                    warmup=0, measure=900, seed=seed)
    assert drain(sim, net, max_cycles=25_000)
    generated = sum(s.messages_generated for s in sources)
    received = sum(s.messages_received for s in sources)
    assert received == generated


@light
@given(rate=st.floats(0.05, 0.35), seed=st.integers(0, 10_000))
def test_sdm_plane_reservations_consistent(rate, seed):
    """cs_route and plane_owner never disagree under protocol churn."""
    sim, net, _ = run_traffic("hybrid_sdm_vc4", "transpose", rate=rate,
                              width=4, height=4, warmup=0, measure=900,
                              seed=seed)
    from repro.network.topology import LOCAL, opposite_port
    for node in range(net.mesh.num_nodes):
        r = net.router(node)
        for inport in range(NUM_PORTS):
            for plane in range(r.planes):
                out = r.cs_route[inport][plane]
                if out < 0:
                    continue
                # the output side must agree a circuit owns this plane
                assert r.plane_owner[out][plane] != -1


@light
@given(seed=st.integers(0, 1000))
def test_energy_components_nonnegative(seed):
    from repro.energy import compute_energy
    _, net, _ = run_traffic("hybrid_tdm_vc4", "tornado", 0.2,
                            warmup=200, measure=600, seed=seed)
    report = compute_energy(net)
    assert all(v >= 0 for v in report.dynamic.values())
    assert all(v >= 0 for v in report.static.values())


@pytest.mark.parametrize("scheme", SCHEMES)
def test_latency_never_below_zero_load_minimum(scheme):
    """No delivered packet can beat the physical minimum latency."""
    _, net, _ = run_traffic(scheme, "neighbor", 0.05, warmup=300,
                            measure=1000)
    # 1 hop minimum: NI link + 2 routers; circuits take >= 2 cycles/hop
    assert net.pkt_latency.samples
    assert min(net.pkt_latency.samples) >= 4


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_healthy_run_never_trips_watchdog(scheme):
    sim, net, _ = run_traffic(scheme, "uniform_random", rate=0.1,
                              warmup=0, measure=1100, seed=2)
    watchdogs = [o for o in sim.objects if isinstance(o, Watchdog)]
    assert watchdogs == [net.watchdog]
    assert net.watchdog.checks > 0
    assert net.watchdog.audit_violations == 0
    assert net.audit_conservation() is None


@pytest.mark.parametrize("scheme", ["packet_vc4", "hybrid_tdm_vc4",
                                    "hybrid_sdm_vc4"])
def test_withheld_credits_raise_livelock_error(scheme):
    """A packet whose routers never get a downstream credit back stops
    making progress; the default watchdog turns that into an error."""
    sim, net = build(scheme)
    far = net.mesh.num_nodes - 1
    net.ni(0).send(Message(src=0, dst=far, mclass=MessageClass.DATA,
                           size_flits=5, create_cycle=0))
    sim.run(3)          # the head is buffered in router 0, not yet sent
    for r in net.routers:
        for out in range(NUM_PORTS):
            if out != LOCAL and r.out_links[out] is not None:
                r.credits[out] = [0] * len(r.credits[out])
    with pytest.raises(LivelockError) as exc:
        sim.run(5000)
    # interval 512, patience 4: the check at 512 records the baseline,
    # the stalled checks at 1024, 1536, 2048 and 2560 raise
    assert exc.value.cycle == 2560
    assert exc.value.in_flight > 0
