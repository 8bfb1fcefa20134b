"""The benchmark's workloads: paper artefacts at a fixed argument grid.

A :class:`Workload` is plain data, so a run can ship it to a worker
process as JSON (and a test can pass a tiny grid the same way).  The
functions here run inside that worker: :func:`execute` calls the
artefact's public entry point, checks the result and extracts the
informational paper reference.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List

#: the experiment-size multiplier every worker runs at; 0.25 keeps a call
#: near 12-16 s, so a campaign of ~90 timed runs ends well within the hour
#: even on a host running 1.5x slow (at 0.35 such a host needed ~53 min)
SCALE = "0.25"
#: concurrent sweep points; fixed so the sweep is the same job on every
#: host (the report header records the host's ``nproc``)
SWEEP_JOBS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``fig4``/``fig6``/``fig8`` (a ``repro.harness.experiments``
    #: function) or ``sweep`` (``run_supervised_sweep`` over a grid)
    call: str
    kwargs: Dict = field(default_factory=dict)
    #: simulated cycles the grid runs at ``SCALE``
    cycles: int = 0
    #: result rows the grid produces
    rows: int = 0
    why: str = ""


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "fig4_sweep", "fig4",
        # packet_vc4 must stay: fig4 normalises against it (KeyError without)
        dict(patterns=["uniform_random", "transpose"],
             schemes=["packet_vc4", "hybrid_sdm_vc4", "hybrid_tdm_vc4"],
             rates=[0.15, 0.45]),
        cycles=16_500, rows=12,
        why="open-loop UR/TR at low load and near saturation; the only "
            "SDM-router workload; TR builds stable circuits, UR churns setups"),
    Workload(
        "fig8_hetero", "fig8",
        dict(gpu_benchmarks=["BLACKSCHOLES", "HOTSPOT", "STO"],
             cpu_benchmarks=["ART", "GAFORT"]),
        cycles=39_000, rows=21,
        why="closed-loop CPU/GPU/L2/MC endpoints with slack-gated switching, "
            "path sharing and VC gating; the Figure 8 path"),
    Workload(
        "fig6_mesh8", "fig6",
        dict(sizes=[8], patterns=["transpose"]),
        cycles=11_000, rows=1,
        why="64 gating routers that never sleep, saturation probes at "
            "0.45-0.65: most objects per cycle, heaviest VA/SA contention"),
    Workload(
        "sweep_fig5", "sweep",
        # warmup/measure are pre-scale: 210 + 840 simulated cycles a point;
        # shorter points would let the supervisor's 1 s wake-up dominate
        dict(schemes=["packet_vc4", "hybrid_tdm_vc4", "hybrid_tdm_vct"],
             patterns=["uniform_random", "tornado", "transpose"],
             rates=[0.05, 0.15, 0.25, 0.35], warmup=840, measure=3360),
        cycles=37_800, rows=36,
        why="the supervised parallel sweep path (supervisor, executor, "
            "store); short points make dispatch a visible share"),
)}


# ---------------------------------------------------------------------------
# running one workload call (inside the worker)
# ---------------------------------------------------------------------------
def _finite_cells(rows, skip=lambda row, i: False) -> List[str]:
    return [f"non-finite cell {i} in row {row}"
            for row in rows for i, v in enumerate(row)
            if isinstance(v, float) and not math.isfinite(v)
            and not skip(row, i)]


def _sweep_points(kwargs: Dict, seed: int) -> List[Dict]:
    from repro.harness.supervisor import build_sweep_points
    return [p for pattern in kwargs["patterns"]
            for p in build_sweep_points(
                kwargs["schemes"], pattern, kwargs["rates"], seed=seed,
                warmup=kwargs["warmup"], measure=kwargs["measure"])]


def _run_sweep(w: Workload, seed: int, work_dir: str) -> Dict:
    from repro.config import SupervisorConfig
    from repro.harness.runner import scaled
    from repro.harness.supervisor import run_supervised_sweep

    points = _sweep_points(w.kwargs, seed)
    os.makedirs(work_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_dir) as run_dir:
        summary = run_supervised_sweep(
            points, run_dir, SupervisorConfig(enabled=True, jobs=SWEEP_JOBS))
    results = summary["results"]
    rows = sorted((r["row"] for r in results),
                  key=lambda r: json.dumps(r, sort_keys=True))
    failures = [f"{len(summary['failures'])} failed points"] \
        if summary["failures"] else []
    if summary["completed"] != len(points) or summary["stopped"]:
        failures.append(f"completed {summary['completed']}/{len(points)} "
                        f"(stopped={summary['stopped']})")
    failures += [f"point {r['point']} status {r['status']} {r['row'].get('note')}"
                 for r in results if r["status"] != "ok" or r["row"]["note"]]
    failures += _finite_cells([tuple(r.values()) for r in rows])
    cycles = sum(scaled(r["point"]["warmup"]) + r["row"]["cycles"]
                 for r in results)
    return {"rows": len(rows), "cycles": cycles, "failures": failures,
            "outputs": json.dumps(rows, sort_keys=True),
            "reference": _sweep_reference(rows), "points": points}


def serial_sweep_s(points: List[Dict]) -> float:
    """The sweep's points run one after another in this process, timed
    per point only (no tracing), summed."""
    from repro.harness.runner import run_synthetic
    total = 0.0
    for p in points:
        t0 = time.perf_counter()
        run_synthetic(p["scheme"], p["pattern"], p["rate"],
                      warmup=p["warmup"], measure=p["measure"], seed=p["seed"],
                      width=p["width"], height=p["height"],
                      slot_table_size=p["slot_table_size"])
        total += time.perf_counter() - t0
    return total


def execute(w: Workload, seed: int, work_dir: str) -> Dict:
    """Run *w* once; returns rows, failures, rendered outputs, reference.

    ``cycles`` is only filled for the sweep, whose simulators run in other
    processes; in-process workloads count cycles through the tracer."""
    if w.call == "sweep":
        return _run_sweep(w, seed, work_dir)
    from repro.harness import experiments
    result = getattr(experiments, w.call)(**w.kwargs, seed=seed)
    failures = CHECKS[w.call](result)
    # fig8's AVG rows carry no cs_frac by design (NaN)
    failures += _finite_cells(result.rows,
                              skip=lambda row, i: row[0] == "AVG"
                              and i == len(row) - 1)
    return {"rows": len(result.rows), "cycles": None, "failures": failures,
            "outputs": result.text, "reference": REFERENCE[w.call](result)}


# ---------------------------------------------------------------------------
# shape checks (the benchmarks/test_bench_fig4|6|8 assertions, applied to
# whatever part of the grid the workload runs)
# ---------------------------------------------------------------------------
def _tdm_saturation_gain(curves, pattern: str) -> float:
    """Hybrid-TDM-VC4's best accepted load over Packet-VC4's, minus 1."""
    base = max(r.accepted for r in curves[(pattern, "packet_vc4")])
    tdm = max(r.accepted for r in curves[(pattern, "hybrid_tdm_vc4")])
    return tdm / base - 1


def _check_fig4(result) -> List[str]:
    curves = result.extra["curves"]
    out = [f"{p}/{s} rate {r.offered}: {r.note}"
           for (p, s), runs in curves.items() for r in runs if r.note]
    for pattern in ("tornado", "transpose"):
        if (pattern, "hybrid_tdm_vc4") in curves \
                and not _tdm_saturation_gain(curves, pattern) > 0:
            out.append(f"TDM does not beat packet at {pattern} saturation")
    if ("uniform_random", "hybrid_sdm_vc4") in curves:
        lo_pkt = curves[("uniform_random", "packet_vc4")][0]
        lo_sdm = curves[("uniform_random", "hybrid_sdm_vc4")][0]
        if not lo_sdm.avg_latency > lo_pkt.avg_latency:
            out.append("SDM low-load UR latency not above packet's")
    return out


def _check_fig6(result) -> List[str]:
    return [f"{row[1]} throughput gain vanished at {row[0]}"
            for row in result.rows if row[1] in ("TOR", "TR") and row[4] <= 0]


#: CPU speedup band.  benchmarks/test_bench_fig8 asserts 0.90-1.10 at the
#: default seed and full scale; at SCALE the CPU IPC ratio swings with the
#: seed (sd ~0.06, 0.90-1.16 over 30 random seeds), so the band is a
#: factor 1.5 either way: it still catches a scheme that starves the CPUs.
#: GPU speedups stayed within 0.978-1.017 on those seeds and keep the
#: test's band.
CPU_SPEEDUP_BAND = (2 / 3, 3 / 2)
GPU_SPEEDUP_BAND = (0.90, 1.10)


def _check_fig8(result) -> List[str]:
    avg = {r[2]: r for r in result.rows if r[0] == "AVG"}
    if set(avg) != {"hybrid_tdm_vc4", "hybrid_tdm_hop_vc4",
                    "hybrid_tdm_hop_vct"}:
        return [f"AVG rows for {sorted(avg)}"]
    out = []
    save_vc4, save_vct = avg["hybrid_tdm_vc4"][3], avg["hybrid_tdm_hop_vct"][3]
    if not save_vct > save_vc4:
        out.append("hop-VCt saves no more than VC4 on average")
    if not save_vct > 5.0:
        out.append(f"hop-VCt average saving {save_vct:.1f}% <= 5%")
    (cpu_lo, cpu_hi), (gpu_lo, gpu_hi) = CPU_SPEEDUP_BAND, GPU_SPEEDUP_BAND
    out += [f"speedup out of range: {row}" for row in avg.values()
            if not (cpu_lo < row[4] < cpu_hi and gpu_lo < row[5] < gpu_hi)]
    return out


CHECKS = {"fig4": _check_fig4, "fig6": _check_fig6, "fig8": _check_fig8}


# ---------------------------------------------------------------------------
# informational comparison with the paper's numbers (never gated)
# ---------------------------------------------------------------------------
UNVALIDATED = ("model vs paper, informational only; the simulator is "
               "otherwise unvalidated against hardware or the paper's "
               "simulator")


def _ref_fig4(result) -> Dict:
    curves = result.extra["curves"]
    out = {}
    for pattern, paper in (("uniform_random", 14.7), ("tornado", 9.3),
                           ("transpose", 27.0)):
        if (pattern, "hybrid_tdm_vc4") in curves:
            out[f"{pattern} TDM saturation gain %"] = {
                "model": round(100 * _tdm_saturation_gain(curves, pattern), 2),
                "paper": paper}
    return out


def _ref_fig6(result) -> Dict:
    return {f"{row[0]} {row[1]} throughput gain %": {
        "model": round(row[4], 2), "paper": "positive, stable with size"}
        for row in result.rows}


def _ref_fig8(result) -> Dict:
    paper = {"hybrid_tdm_vc4": 6.3, "hybrid_tdm_hop_vc4": 9.0,
             "hybrid_tdm_hop_vct": 17.1}
    return {f"{r[2]} AVG energy saving %": {"model": round(r[3], 2),
                                             "paper": paper[r[2]]}
            for r in result.rows if r[0] == "AVG" and r[2] in paper}


def _sweep_reference(rows: List[Dict]) -> Dict:
    """Figure 5's VCt extra saving over VC4, lowest to highest rate."""
    paper = {"uniform_random": "10.9 -> 2.4", "tornado": "10.0 -> 2.6",
             "transpose": "9.7 -> 4.1"}
    by = {(r["scheme"], r["pattern"], r["offered"]): r for r in rows}
    out = {}
    for pattern in sorted({r["pattern"] for r in rows}):
        extras = []
        for rate in sorted({r["offered"] for r in rows
                            if r["pattern"] == pattern}):
            try:
                base, vc4, vct = (by[(s, pattern, rate)]["energy_per_message_pj"]
                                  for s in ("packet_vc4", "hybrid_tdm_vc4",
                                            "hybrid_tdm_vct"))
            except KeyError:
                continue
            extras.append(100 * (vc4 - vct) / base)
        if extras:
            out[f"{pattern} VCt extra saving %"] = {
                "model": f"{extras[0]:.1f} -> {extras[-1]:.1f}",
                "paper": paper.get(pattern)}
    return out


REFERENCE = {"fig4": _ref_fig4, "fig6": _ref_fig6, "fig8": _ref_fig8}


def env_summary() -> Dict:
    """Versions and engine the worker runs with (for the report header)."""
    import platform

    import numpy

    from repro.sim.kernel import default_engine
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "engine": default_engine(), "scale": os.environ.get("REPRO_SCALE")}
