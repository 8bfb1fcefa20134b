"""Simulator-throughput benchmark: legacy vs fast engines.

Measures wall-clock cycles/second for the run-everything ``legacy``
scheduler and the activity-tracked ``fast`` scheduler (see
:mod:`repro.sim.kernel`) on these scenario shapes:

``idle``
    A network with quiescent sources.  The fast engine sleeps every
    component.  Models the long idle stretches of real application
    traces (the paper's Table III workloads inject at 0.5–8% of peak,
    so most cycles touch almost nothing).

``loaded_epoch``
    A burst of uniform-random traffic that stops mid-run, followed by a
    drain and a long quiescent tail — the activity profile of one
    application epoch.  The 500-active/40000-total shape averages
    ~0.25% injection duty, the sparse end of the paper's Table III
    workloads (0.5–8% of peak, with long fully-idle phases between
    kernels).  All engines do the same per-cycle work while traffic
    flows (the hot loops are shared — a bit-exact engine cannot make
    the per-flit Python cheaper), so the engines separate on the tail:
    legacy pays full price per idle cycle, fast pays a small empty-
    list iteration per cycle.

``mesh16``
    A 16x16 mesh at low injection duty (routine large-mesh sweeps).
    512 components make the legacy engine's run-everything scan
    expensive on every one of the 16000 cycles, while the traffic is
    over by ~cycle 350 and the fast engine sleeps through the rest.

``hetero_mix`` / ``trace_replay``
    The closed-loop heterogeneous system, and a recorded hetero trace
    replayed with a long idle tail.

Timing noise on shared machines is large, so each (scenario, engine)
pair is timed ``repeats`` times *interleaved* (legacy, fast, legacy,
...) and the best run per engine is kept: interleaving spreads
machine-load transients evenly across the engines, and max-of-N is
the standard estimator for "true" speed under one-sided noise.

``repro bench`` runs this and writes ``BENCH_simperf.json``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.harness.runner import prepare_synthetic

#: engines timed per scenario, in interleave order (legacy first so the
#: ratios' denominator is always measured under the same load phase)
ENGINES = ("legacy", "fast")


@dataclass
class BenchScenario:
    """One workload shape timed under every engine."""

    name: str
    scheme: str = "hybrid_tdm_vc4"
    pattern: str = "uniform_random"
    rate: float = 0.2
    stop_cycle: Optional[int] = None    #: sources stop injecting here
    cycles: int = 2500
    width: int = 4
    height: int = 4
    target_ratio: float = 1.3           #: fast/legacy cycles-per-second
    repeats: Optional[int] = None       #: override run_bench's repeats
    #: "synthetic" (default), "hetero" (closed-loop phased hetero
    #: system) or "trace_replay" (recorded hetero trace + idle tail)
    kind: str = "synthetic"
    cpu_benchmark: str = "ART"          #: hetero kinds only
    gpu_benchmark: str = "BLACKSCHOLES"


#: Default scenario set; targets match the acceptance criteria
#: (>= 3x idle, >= 2x loaded epoch, >= 3x on the 16x16 mesh).
SCENARIOS: List[BenchScenario] = [
    BenchScenario(name="idle", rate=0.0, cycles=4000,
                  width=6, height=6, target_ratio=3.0),
    BenchScenario(name="loaded_epoch", rate=0.2, stop_cycle=500,
                  cycles=40000, target_ratio=2.0),
    # 16x16 runs are slow under legacy by construction (that is the
    # point being measured); cap the interleave rounds so the default
    # bench invocation stays tractable
    BenchScenario(name="mesh16", rate=0.05, stop_cycle=250, cycles=16000,
                  width=16, height=16, target_ratio=3.0, repeats=2),
    # hetero_mix keeps every endpoint awake every cycle, so the engines
    # cannot separate — the target only guards against the fast
    # machinery adding overhead to the always-busy case.  trace_replay
    # ends its recorded traffic early and sleeps through a long tail.
    BenchScenario(name="hetero_mix", kind="hetero", cycles=4000,
                  width=6, height=6, cpu_benchmark="ART",
                  gpu_benchmark="BLACKSCHOLES",
                  target_ratio=0.8, repeats=3),
    BenchScenario(name="trace_replay", kind="trace_replay", cycles=60000,
                  width=6, height=6, cpu_benchmark="ART",
                  gpu_benchmark="BLACKSCHOLES",
                  target_ratio=2.5, repeats=3),
]

#: per-process cache of the recorded trace_replay events (the recording
#: run is paid once, not once per engine x repeat)
_TRACE_CACHE: Dict = {}


def _replay_events(scn: BenchScenario, seed: int):
    from repro.hetero.phases import PhaseConfig
    from repro.hetero.system import HeteroSystem
    from repro.traffic.trace import MessageTraceRecorder

    key = (scn.scheme, scn.cpu_benchmark, scn.gpu_benchmark, seed)
    if key not in _TRACE_CACHE:
        rec = MessageTraceRecorder()
        system = HeteroSystem(scn.scheme, scn.cpu_benchmark,
                              scn.gpu_benchmark, seed=seed,
                              width=scn.width, height=scn.height,
                              engine="fast", phases=PhaseConfig())
        system.run(warmup=500, measure=1000, recorder=rec)
        _TRACE_CACHE[key] = rec.events
    return _TRACE_CACHE[key]


def _time_run(scn: BenchScenario, engine: str, seed: int) -> float:
    """Build the scenario fresh and return measured cycles/second."""
    if scn.kind == "hetero":
        from repro.hetero.phases import PhaseConfig
        from repro.hetero.system import HeteroSystem

        system = HeteroSystem(scn.scheme, scn.cpu_benchmark,
                              scn.gpu_benchmark, seed=seed,
                              width=scn.width, height=scn.height,
                              engine=engine, phases=PhaseConfig())
        sim = system.sim
    elif scn.kind == "trace_replay":
        from repro.config import scheme_config
        from repro.hetero.system import _make_network
        from repro.sim.kernel import Simulator
        from repro.traffic.trace import attach_trace_sources

        events = _replay_events(scn, seed)
        cfg = scheme_config(scn.scheme, width=scn.width, height=scn.height)
        sim = Simulator(seed=seed, engine=engine)
        net = _make_network(cfg, sim)
        attach_trace_sources(net, events)
    else:
        sim, _net, sources = prepare_synthetic(
            scn.scheme, scn.pattern, scn.rate, seed=seed,
            width=scn.width, height=scn.height, engine=engine)
        if scn.stop_cycle is not None:
            for src in sources:
                src.stop_cycle = scn.stop_cycle
    t0 = time.perf_counter()
    sim.run(scn.cycles)
    elapsed = time.perf_counter() - t0
    return scn.cycles / elapsed if elapsed > 0 else float("inf")


def select_scenarios(names: Optional[List[str]]) -> List[BenchScenario]:
    """Resolve a ``--scenarios`` name list against :data:`SCENARIOS`."""
    if not names:
        return SCENARIOS
    by_name = {scn.name: scn for scn in SCENARIOS}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        raise ValueError(f"unknown bench scenario(s) {unknown}; "
                         f"available: {sorted(by_name)}")
    return [by_name[n] for n in names]


def run_bench(repeats: int = 5, seed: int = 1,
              scenarios: Optional[List[BenchScenario]] = None) -> Dict:
    """Time every scenario under every engine; return the report dict."""
    if scenarios is None:
        scenarios = SCENARIOS
    rows = []
    for scn in scenarios:
        best = {engine: 0.0 for engine in ENGINES}
        for _ in range(scn.repeats or repeats):
            for engine in ENGINES:              # interleaved on purpose
                cps = _time_run(scn, engine, seed)
                if cps > best[engine]:
                    best[engine] = cps
        legacy = best["legacy"]
        ratio = best["fast"] / legacy if legacy else 0.0
        rows.append({
            "scenario": scn.name,
            "kind": scn.kind,
            "scheme": scn.scheme,
            "pattern": scn.pattern,
            "rate": scn.rate,
            "stop_cycle": scn.stop_cycle,
            "cycles": scn.cycles,
            "width": scn.width,
            "height": scn.height,
            "legacy_cps": round(best["legacy"], 1),
            "fast_cps": round(best["fast"], 1),
            "ratio": round(ratio, 3),
            "target_ratio": scn.target_ratio,
            "ok": ratio >= scn.target_ratio,
        })
    return {
        "benchmark": "simperf",
        "repeats": repeats,
        "seed": seed,
        "scenarios": rows,
        "ok": all(r["ok"] for r in rows),
    }


def time_supervised_sweep(jobs: int = 0, seed: int = 1,
                          n_points: int = 8) -> Dict:
    """Wall-clock one small supervised sweep; returns a report figure.

    The grid is fixed (``n_points`` rates of one scheme on a 3x3 mesh)
    so the ``sweep_wall_seconds`` figure in ``BENCH_simperf.json`` is
    comparable across commits on the same machine.  The run directory
    is a temp dir — this benchmarks dispatch, not the results.
    """
    import shutil
    import tempfile

    from repro.config import SupervisorConfig
    from repro.harness.supervisor import (build_sweep_points,
                                          run_supervised_sweep)

    points = build_sweep_points(
        ["hybrid_tdm_vc4"], "uniform_random",
        [round(0.04 * (i + 1), 2) for i in range(n_points)],
        seed=seed, width=3, height=3, slot_table_size=32,
        warmup=200, measure=400)
    run_dir = tempfile.mkdtemp(prefix="bench-sweep-")
    try:
        t0 = time.perf_counter()
        summary = run_supervised_sweep(
            points, run_dir, SupervisorConfig(enabled=True, jobs=jobs))
        wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "points": len(points),
        "jobs": jobs or (os.cpu_count() or 1),
        "completed": summary["completed"],
        "sweep_wall_seconds": round(wall, 3),
    }


def write_bench_json(report: Dict, path: str = "BENCH_simperf.json") -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def compare_to_baseline(report: Dict, baseline: Dict,
                        tolerance: float = 0.02) -> List[str]:
    """Regression guard for the zero-overhead-when-disabled contract.

    Compares each scenario's fast-engine cycles/second
    against the same scenario in *baseline* (a previously committed
    ``BENCH_simperf.json``) and returns a list of human-readable
    failures — empty means every scenario stayed within ``tolerance``
    (default 2%) of its baseline.

    Only slowdowns fail; running faster than the baseline is fine.
    Scenarios absent from the baseline are skipped (a new scenario has
    nothing to regress against).

    A *tolerance* of 1 or more is read as a percentage — ``10`` and
    ``0.10`` both mean "allow a 10% slowdown" — so either spelling
    works on the ``--tolerance`` command line flag.
    """
    if tolerance >= 1.0:
        tolerance = tolerance / 100.0
    base_by_name = {r["scenario"]: r for r in baseline.get("scenarios", ())}
    failures: List[str] = []
    for row in report["scenarios"]:
        base = base_by_name.get(row["scenario"])
        if base is None:
            continue
        floor = base["fast_cps"] * (1.0 - tolerance)
        if row["fast_cps"] < floor:
            failures.append(
                f"{row['scenario']}: fast engine {row['fast_cps']:.1f} "
                f"cycles/s < {floor:.1f} "
                f"({100 * tolerance:.0f}% below baseline "
                f"{base['fast_cps']:.1f})")
    return failures
