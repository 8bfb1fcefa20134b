"""Packet router pipeline, flow-control and arbitration tests.

These use tiny 2x2 networks and hand-driven endpoints so flit timing can
be asserted exactly: with the default 2-cycle BW->SA pipeline plus the
1-cycle switch + 1-cycle link, a packet-switched hop costs 4 cycles and
a 1-flit packet from node 0 to an adjacent node arrives at the remote NI
9 cycles after injection (1 injection-link cycle + 2 routers x 4).
"""

import dataclasses

import pytest

from repro.config import SCHEMES, scheme_config
from repro.network.flit import Message, MessageClass
from repro.network.interface import Endpoint
from repro.network.topology import LOCAL
from repro.sim.checkpoint import capture_state, reset_id_counters, state_hash
from repro.traffic import attach_synthetic_sources, make_pattern

from tests.conftest import build


class Collector(Endpoint):
    def __init__(self):
        super().__init__()
        self.received = []

    def on_message(self, msg, cycle):
        self.received.append((msg, cycle))


def send_one(net, sim, src, dst, size=1, mclass=MessageClass.CTRL):
    sink = Collector()
    net.attach_endpoint(dst, sink)
    msg = Message(src=src, dst=dst, mclass=mclass, size_flits=size,
                  create_cycle=sim.cycle)
    net.ni(src).send(msg)
    return msg, sink


class TestZeroLoadTiming:
    def test_single_flit_one_hop_latency(self):
        sim, net = build("packet_vc4", 2, 2)
        msg, sink = send_one(net, sim, 0, 1)
        sim.run(40)
        assert len(sink.received) == 1
        _, cycle = sink.received[0]
        assert cycle - msg.create_cycle == 9

    def test_latency_grows_4_cycles_per_hop(self):
        latencies = {}
        for dst, hops in ((1, 1), (3, 2)):
            sim, net = build("packet_vc4", 2, 2)
            msg, sink = send_one(net, sim, 0, dst)
            sim.run(40)
            latencies[hops] = sink.received[0][1] - msg.create_cycle
        assert latencies[2] - latencies[1] == 4

    def test_multi_flit_serialisation(self):
        """A 5-flit packet finishes 4 cycles after a 1-flit one would."""
        sim, net = build("packet_vc4", 2, 2)
        msg, sink = send_one(net, sim, 0, 1, size=5,
                             mclass=MessageClass.DATA)
        sim.run(60)
        assert sink.received[0][1] - msg.create_cycle == 9 + 4

    def test_message_travels_minimal_route(self):
        sim, net = build("packet_vc4", 4, 4)
        msg, sink = send_one(net, sim, 0, 15)  # corner to corner: 6 hops
        sim.run(80)
        assert len(sink.received) == 1
        assert sink.received[0][1] - msg.create_cycle == 1 + 4 * 7


class TestCreditFlowControl:
    def test_credits_conserved_after_drain(self):
        """After all traffic drains, every credit counter is back at its
        initial value (no credit leaks or duplicates)."""
        sim, net = build("packet_vc4", 2, 2)
        for dst in (1, 2, 3):
            send_one(net, sim, 0, dst, size=5, mclass=MessageClass.DATA)
        sim.run(200)
        assert net.in_flight_flits() == 0
        depth = net.cfg.router.vc_depth
        cdepth = net.cfg.router.config_vc_depth
        for r in net.routers:
            for outport in range(1, 5):
                if r.out_links[outport] is None:
                    continue
                assert r.credits[outport][:4] == [depth] * 4
                assert r.credits[outport][4] == cdepth
        for ni in net.interfaces:
            assert ni.local_credits[:4] == [depth] * 4

    def test_no_buffer_overflow_under_load(self):
        """Heavy traffic never violates buffer bounds (push would raise)."""
        from tests.conftest import run_traffic
        sim, net, _ = run_traffic("packet_vc4", "uniform_random", 0.6,
                                  warmup=200, measure=600)
        assert net.flits_ejected > 0  # ran under saturation and survived

    def test_wormhole_ownership_released_after_tail(self):
        sim, net = build("packet_vc4", 2, 2)
        send_one(net, sim, 0, 1, size=5, mclass=MessageClass.DATA)
        sim.run(200)
        for r in net.routers:
            for outport in range(5):
                assert all(o is None for o in r.out_vc_owner[outport])


class TestArbitration:
    def test_two_sources_share_one_destination(self):
        sim, net = build("packet_vc4", 3, 3)
        sink = Collector()
        net.attach_endpoint(4, sink)  # mesh centre
        for src in (0, 8):
            msg = Message(src=src, dst=4, mclass=MessageClass.DATA,
                          size_flits=5, create_cycle=sim.cycle)
            net.ni(src).send(msg)
        sim.run(200)
        assert len(sink.received) == 2

    def test_messages_from_same_source_stay_ordered_per_destination(self):
        sim, net = build("packet_vc4", 2, 2)
        sink = Collector()
        net.attach_endpoint(3, sink)
        sent = []
        for _ in range(6):
            msg = Message(src=0, dst=3, mclass=MessageClass.CTRL,
                          size_flits=1, create_cycle=sim.cycle)
            net.ni(0).send(msg)
            sent.append(msg.id)
        sim.run(300)
        got = [m.id for m, _ in sink.received]
        assert len(got) == 6


class TestStatsPlumbing:
    def test_counters_incremented(self):
        sim, net = build("packet_vc4", 2, 2)
        send_one(net, sim, 0, 3, size=5, mclass=MessageClass.DATA)
        sim.run(100)
        c = net.aggregate_counters()
        assert c["buffer_write"] >= 10   # 5 flits x 2+ routers
        assert c["buffer_read"] == c["buffer_write"]
        # each buffer read is one crossbar traversal: no separate counter
        assert "xbar" not in c
        assert c["link"] >= 5

    def test_local_ejection_does_not_count_link(self):
        sim, net = build("packet_vc4", 2, 2)
        send_one(net, sim, 0, 1, size=1)
        sim.run(100)
        c = net.aggregate_counters()
        assert c["link"] == 1  # exactly one inter-router hop

    def test_occupancy_zero_when_idle(self, packet_net):
        sim, net = packet_net
        sim.run(20)
        assert all(r.occupancy() == 0 for r in net.routers)


def _va_gate_trajectory(scheme, force_va):
    """State hashes every 50 cycles over 600 cycles of UR traffic at 0.45
    on 6x6; with *force_va* every router's VA gate is held open.  Gating
    controllers run 32-cycle epochs, so VC sets go down and back up."""
    reset_id_counters()
    gating = scheme_config(scheme).vc_gating
    overrides = ({"vc_gating": dataclasses.replace(gating, epoch=32)}
                 if gating.enabled else {})
    sim, net = build(scheme, width=6, height=6, seed=7, **overrides)
    pattern = make_pattern("uniform_random", net.mesh, sim.rng)
    attach_synthetic_sources(net, pattern, injection_rate=0.45, rng=sim.rng)
    hashes = []
    for cycle in range(1, 601):
        if force_va:
            for r in net.routers:
                r._va_wake = 0
        sim.step()
        if cycle % 50 == 0:
            hashes.append(state_hash(capture_state(sim, net)))
    return hashes, net


@pytest.mark.parametrize("scheme", SCHEMES)
def test_va_gate_skips_only_passes_that_change_nothing(scheme):
    """Skipping VA passes until ``_va_wake`` leaves the trajectory equal
    to running a pass whenever a head waits for an output VC."""
    gated, net = _va_gate_trajectory(scheme, force_va=False)
    forced, _ = _va_gate_trajectory(scheme, force_va=True)
    assert gated == forced
    if scheme == "hybrid_tdm_hop_vct":
        # a downstream raising its active VCs must re-open the gate of
        # the routers upstream of it: make sure that happened
        assert any(r.gating.activations for r in net.routers)
