"""Tests of the benchmark itself: ``python -m pytest bench -q``.

Kept out of the tier-1 ``testpaths``: the workload test below spawns
worker processes and simulates a small grid.
"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from bench import run  # noqa: E402
from bench.compare import verdict  # noqa: E402
from bench.trace import LAYERS, Tracer, resolve  # noqa: E402
from bench.workloads import Workload  # noqa: E402


class Clock:
    """A clock the toy methods advance explicitly."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class Inner:
    def work(self, clock: Clock) -> None:
        clock.t += 3.0


class Outer:
    def work(self, clock: Clock, inner: Inner) -> str:
        clock.t += 2.0
        inner.work(clock)
        inner.work(clock)
        clock.t += 1.0
        return "done"


class ToySim:
    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        clock.t += 1.0

    def run(self, cycles: int) -> int:
        self.clock.t += cycles
        return cycles


def test_self_time_excludes_wrapped_children():
    clock = Clock()
    with Tracer(clock=clock) as tr:
        tr.wrap(Outer, "work", "outer")
        tr.wrap(Inner, "work", "inner")
        with tr.span("root"):
            clock.t += 0.5
            assert Outer().work(clock, Inner()) == "done"
    assert (tr.self_s("inner"), tr.calls("inner")) == (6.0, 2)
    assert (tr.self_s("outer"), tr.calls("outer")) == (3.0, 1)
    assert (tr.self_s("root"), tr.calls("root")) == (0.5, 1)
    assert sum(v[0] for v in tr.acc.values()) == clock.t


def test_build_span_runs_from_init_to_first_run():
    clock = Clock()
    with Tracer(clock=clock) as tr:
        tr.hook_simulator(ToySim)
        tr.wrap(Inner, "work", "inner")
        with tr.span("root"):
            sim = ToySim(clock)
            Inner().work(clock)          # traffic attachment, say
            clock.t += 2.0
            sim.run(5)
            sim.run(7)
    assert tr.builds == [6.0]            # 1 (init) + 3 (inner) + 2
    assert (tr.self_s("setup"), tr.calls("setup")) == (3.0, 1)
    assert (tr.self_s("sim.kernel"), tr.calls("sim.kernel")) == (12.0, 2)
    assert (tr.cycles, tr.run_s) == (12, 12.0)
    assert tr.self_s("root") == 0.0
    assert sum(v[0] for v in tr.acc.values()) == clock.t


def test_restore_puts_original_attributes_back():
    originals = {cls: dict(cls.__dict__) for cls in (Outer, Inner, ToySim)}
    with Tracer() as tr:
        tr.wrap(Outer, "work", "outer")
        tr.wrap(Inner, "work", "inner")
        tr.hook_simulator(ToySim)
        assert Outer.__dict__["work"] is not originals[Outer]["work"]
        assert Outer.work.__wrapped__ is originals[Outer]["work"]
    for cls, attrs in originals.items():
        assert dict(cls.__dict__) == attrs


def test_wrapping_an_inherited_method_is_refused():
    class Sub(Outer):
        pass

    with Tracer() as tr, pytest.raises(AttributeError):
        tr.wrap(Sub, "work", "outer")
    assert "work" not in Sub.__dict__


def test_layer_map_resolves_and_restores():
    targets = [resolve(t) for ts in LAYERS.values() for t in ts]
    before = {(cls, attr): cls.__dict__[attr] for cls, attr in targets}
    with Tracer().install(LAYERS):
        assert all(cls.__dict__[attr] is not before[(cls, attr)]
                   for cls, attr in targets)
    assert all(cls.__dict__[attr] is fn for (cls, attr), fn in before.items())


# ---------------------------------------------------------------------------
# compare.py verdict rules
# ---------------------------------------------------------------------------
BASE = [10.0 + 0.01 * i for i in range(10)]


def scaled(values, factor):
    return [v * factor for v in values]


def test_gain_needs_ten_pairs_won_beyond_the_spread():
    assert verdict(BASE, scaled(BASE, 0.9), 0.07, "lower") == "improved"
    assert verdict(BASE[:9], scaled(BASE[:9], 0.9), 0.07, "lower") \
        == "no-worse"
    # nine of ten pairs won is enough, eight is not
    nine = scaled(BASE, 0.9)[:9] + [11.0]
    assert verdict(BASE, nine, 0.07, "lower") == "improved"
    eight = scaled(BASE, 0.9)[:8] + [11.0, 11.0]
    assert verdict(BASE, eight, 0.07, "lower") == "no-worse"
    # every pair won, but by less than the parent's own spread
    assert verdict(BASE, [v - 0.01 for v in BASE], 0.07, "lower") \
        == "no-worse"


def test_worsening_within_bound_is_no_worse_beyond_is_regressed():
    assert verdict(BASE, scaled(BASE, 1.05), 0.07, "lower") == "no-worse"
    assert verdict(BASE, scaled(BASE, 1.10), 0.07, "lower") == "regressed"
    assert verdict(BASE, scaled(BASE, 0.90), 0.07, "higher") == "regressed"
    assert verdict(BASE, scaled(BASE, 1.10), 0.07, "higher") == "improved"


def test_spread_wider_than_bound_is_unresolved():
    wide = [5.0, 10.0, 15.0, 20.0]
    assert verdict(wide, [6.0, 11.0, 16.0, 21.0], 0.07, "lower") \
        == "unresolved"
    assert verdict(BASE, wide, 0.07, "lower") == "unresolved"
    # ... unless every change run beats every parent run
    assert verdict([10.0, 30.0], [5.0, 6.0], 0.07, "lower") == "no-worse"


# ---------------------------------------------------------------------------
# a workload passed as data, through the worker processes
# ---------------------------------------------------------------------------
TINY = Workload("tiny", "fig4",
                dict(patterns=["transpose"],
                     schemes=["packet_vc4", "hybrid_tdm_vc4"], rates=[0.3]),
                cycles=2 * (375 + 1000), rows=2)     # at SCALE 0.25


def test_tiny_workload_traced_run_attributes_its_wall():
    m = run.measure(TINY, seed=2, trace=True, repeats=1)
    assert m["errors"] == [] and (m["attempted"], m["failed"]) == (1, 0)
    record = m["records"][0]
    assert record["failures"] == []
    layers = run.layer_values(m)
    assert layers["sim.cycles"] == TINY.cycles
    assert layers["sim.kernel.calls"] == 4 and layers["setup.calls"] == 2
    assert layers["sdm.router.transfer.calls"] == 0
    assert layers["core.hybrid_router.transfer.calls"] > 0
    assert abs(sum(v for k, v in layers.items() if k.endswith(".share"))
               - 1) < 0.02
    assert len(m["imports"]) == run.IMPORT_SAMPLES
    e2e = run.e2e_values(TINY, m)
    assert all(len(v) == 1 and v[0] > 0 for v in e2e.values())


def test_tiny_workload_wrong_expectation_fails_the_run():
    wrong = Workload(**dict(TINY.__dict__, cycles=TINY.cycles + 1))
    m = run.measure(wrong, seed=2, trace=False, repeats=1)
    assert (m["attempted"], m["failed"]) == (1, 1)
    assert any("simulated cycles" in f for f in m["records"][0]["failures"])
