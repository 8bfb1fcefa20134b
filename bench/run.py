"""End-to-end figure-regeneration benchmark with per-layer attribution.

Full report (every workload: ``--repeats`` untraced runs, then one traced
run; ``--out`` saves the JSON that ``bench/compare.py`` reads)::

    python3 bench/run.py [--workload NAME ...] [--seed 2] [--repeats 3]
                         [--out report.json]

One timed run of one workload, printing one JSON result as the last line
of stdout (end-to-end metrics with ``--trace 0``, per-layer ones with
``--trace 1``)::

    python3 bench/run.py --workload fig4_sweep --seed 2 --seconds 20 --trace 0

Every workload call runs in a fresh worker process, one at a time, with
``REPRO_ENGINE``/``REPRO_BATCH_VECTOR``/``REPRO_FULL`` scrubbed and
``REPRO_SCALE`` pinned, so the import and every simulator build are paid
inside the measurement.  Run from the root of a source checkout: the
workers import ``repro`` from ``src/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench.host import HostSpeed  # noqa: E402
from bench.trace import LAYERS, Tracer  # noqa: E402
from bench.workloads import (SCALE, SWEEP_JOBS, UNVALIDATED,  # noqa: E402
                             WORKLOADS, Workload, env_summary, execute,
                             serial_sweep_s)

#: import samples behind each run's ``setup_s`` (the workers' own imports
#: plus import-only probes): one import is too noisy to gate on
IMPORT_SAMPLES = 5
#: a worker is killed past this; a timed run must end within 180 s
WORKER_TIMEOUT_S = 150.0
#: traced self times must add up to the traced wall within this share
TRACE_SUM_TOLERANCE = 0.02
WORK_DIR = os.path.join(ROOT, ".bench_work")
SCRUBBED_ENV = ("REPRO_ENGINE", "REPRO_BATCH_VECTOR", "REPRO_FULL")


class WorkerError(RuntimeError):
    """A worker process exited non-zero, timed out or printed no result."""


def load_spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def layer_names() -> List[str]:
    return ["sim.kernel", *LAYERS, "setup", "harness.experiments"]


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
def _rusage():
    return (resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN))


def worker_main(spec: Dict) -> Dict:
    """One workload call in this (fresh) process; returns its record.

    Host times in the record are reference-host seconds (raw seconds
    divided by the host factor); ``raw_wall_s`` keeps the measured wall."""
    w = Workload(**spec["workload"]) if spec["workload"] else None
    if (w is None or w.call != "sweep") and hasattr(os, "sched_setaffinity"):
        # one CPU for the workload and the sampler; the sweep's point
        # workers inherit affinity and need every CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    host = HostSpeed()
    t0 = time.perf_counter()
    import repro.harness.experiments  # noqa: F401
    import_s = time.perf_counter() - t0
    if w is None:                                  # import-only probe
        factor = host.stop()
        return {"import_s": import_s / factor, "host_factor": factor}

    traced = spec["trace"] and w.call != "sweep"
    (s0, c0) = _rusage()
    with Tracer().install(LAYERS if traced else {}) as tracer:
        t0 = time.perf_counter()
        with tracer.span("harness.experiments"):
            out = execute(w, spec["seed"], WORK_DIR)
        wall = time.perf_counter() - t0
    (s1, c1) = _rusage()
    cpu = sum(getattr(b, f) - getattr(a, f) for a, b in ((s0, s1), (c0, c1))
              for f in ("ru_utime", "ru_stime"))
    serial_s = (serial_sweep_s(out["points"])
                if spec["trace"] and w.call == "sweep" else None)
    factor = host.stop()

    cycles = tracer.cycles if out["cycles"] is None else out["cycles"]
    failures = list(out["failures"])
    if out["rows"] != w.rows:
        failures.append(f"{out['rows']} result rows, expected {w.rows}")
    if cycles != w.cycles:
        failures.append(f"{cycles} simulated cycles, expected {w.cycles}")
    if tracer.run_errors:
        failures.append(f"{tracer.run_errors} Simulator.run calls raised")
    layers = {name: [tracer.self_s(name) / factor, tracer.calls(name)]
              for name in layer_names()}
    if traced:
        total = sum(tracer.self_s(name) for name in layer_names())
        if abs(total - wall) > TRACE_SUM_TOLERANCE * wall:
            failures.append(f"layer self times sum to {total:.3f} s, "
                            f"traced wall {wall:.3f} s")
    builds = tracer.builds
    record = {
        "import_s": import_s / factor, "wall_s": wall / factor,
        "cpu_s": cpu / factor, "builds": len(builds),
        "build_median_s": statistics.median(builds) / factor if builds else 0,
        "run_s": tracer.run_s / factor, "host_factor": factor,
        "raw_wall_s": wall,
        "peak_rss_mb": max(s1.ru_maxrss, c1.ru_maxrss) / 1024.0,
        "cycles": cycles, "failures": failures,
        "outputs_sha256": hashlib.sha256(out["outputs"].encode()).hexdigest(),
        "reference": out["reference"],
        "layers": layers, "cs_plans": [tracer.counted_calls, tracer.hits],
        "env": env_summary(),
    }
    if serial_s is not None:
        record["serial_s"] = serial_s / factor
        record["points"] = len(out["points"])
    return record


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------
def worker_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["REPRO_SCALE"] = SCALE
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_worker(spec: Dict) -> Dict:
    """Run one worker process to completion (its process group is killed
    on timeout) and return the JSON record it printed last."""
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--worker"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=worker_env(), cwd=ROOT, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(json.dumps(spec),
                                          timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"worker timed out after {WORKER_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: "
                          f"{stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(w: Workload, seed: int, trace: bool,
            repeats: Optional[int] = None,
            seconds: Optional[float] = None) -> Dict:
    """Import probes, then workload calls: *repeats* of them, or as many
    as fit in *seconds* (at least one).  A call that raises or fails a
    check counts as failed."""
    imports = [run_worker({"workload": None})["import_s"]
               for _ in range(max(0, IMPORT_SAMPLES - (repeats or 1)))]
    spec = {"workload": dataclasses.asdict(w), "seed": seed, "trace": trace}
    records, errors = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        try:
            records.append(run_worker(spec))
            imports.append(records[-1]["import_s"])
        except WorkerError as exc:
            errors.append(str(exc))
        last = time.monotonic() - t0
        if repeats is not None and len(records) + len(errors) >= repeats:
            break
        if seconds is not None and time.monotonic() - start + last > seconds:
            break
    attempted = len(records) + len(errors)
    failed = sum(bool(r["failures"]) for r in records) + len(errors)
    shas = {r["outputs_sha256"] for r in records}
    if len(shas) > 1:              # the same seed must give the same result
        errors.append(f"outputs differ across calls: {sorted(shas)}")
        failed = attempted
    return {"records": records, "imports": imports, "errors": errors,
            "attempted": attempted, "failed": failed}


def e2e_values(w: Workload, m: Dict) -> Dict[str, List[float]]:
    """Per-call end-to-end metric values."""
    import_s = statistics.median(m["imports"])
    out: Dict[str, List[float]] = {k: [] for k in (
        "wall_s", "cpu_s", "sim_cycles_per_s", "setup_s", "peak_rss_mb")}
    for r in m["records"]:
        out["wall_s"].append(r["wall_s"])
        out["cpu_s"].append(r["cpu_s"])
        # the sweep simulates in worker processes: cycles per wall second
        host = r["wall_s"] if w.call == "sweep" else r["run_s"]
        out["sim_cycles_per_s"].append(r["cycles"] / host)
        # builds x median build: a gen-2 collection that lands in one of
        # them is allocation debt of the whole run, not that build's
        out["setup_s"].append(import_s + r["builds"] * r["build_median_s"])
        out["peak_rss_mb"].append(r["peak_rss_mb"])
    return out


def layer_values(m: Dict) -> Dict[str, float]:
    """Per-layer metrics of a traced measurement (medians over calls)."""
    def med(f) -> float:
        return statistics.median(f(r) for r in m["records"])

    out: Dict[str, float] = {}
    for name in layer_names():
        out[f"{name}.self_s"] = med(lambda r: r["layers"][name][0])
        out[f"{name}.calls"] = med(lambda r: r["layers"][name][1])
        out[f"{name}.share"] = med(
            lambda r: r["layers"][name][0] / r["wall_s"])
    plans = med(lambda r: r["cs_plans"][0])
    out["core.circuit.cs_plan_ratio"] = (
        med(lambda r: r["cs_plans"][1]) / plans if plans else 0.0)
    out["sim.cycles"] = med(lambda r: r["cycles"])
    out["setup.import_s"] = statistics.median(m["imports"])
    serial = [r for r in m["records"] if "serial_s" in r]
    if serial:
        s = statistics.median(r["serial_s"] for r in serial)
        wall = statistics.median(r["wall_s"] for r in serial)
        points = serial[0]["points"]
        out["harness.sweep.serial_s"] = s
        out["harness.sweep.parallel_efficiency"] = s / (SWEEP_JOBS * wall)
        out["harness.sweep.overhead_ms_per_point"] = \
            1000 * (SWEEP_JOBS * wall - s) / points
    else:
        out["harness.sweep.serial_s"] = 0.0
        out["harness.sweep.parallel_efficiency"] = 0.0
        out["harness.sweep.overhead_ms_per_point"] = 0.0
    return out


def with_units(values: Dict[str, float], specs: List[Dict]) -> Dict:
    """Attach BENCHMARK.json units; the metric sets must match exactly."""
    names = [s["name"] for s in specs]
    if set(values) != set(names):
        raise KeyError(f"metrics {sorted(set(values) ^ set(names))} are "
                       f"not both computed and listed in BENCHMARK.json")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
            for s in specs}


def timed_run(w: Workload, seed: int, seconds: float, trace: bool) -> Dict:
    """One timed run; returns the result printed as the last stdout line."""
    spec = load_spec()
    m = measure(w, seed, trace, seconds=seconds)
    for err in m["errors"]:
        print(f"error: {err}", file=sys.stderr)
    for r in m["records"]:
        for f in r["failures"]:
            print(f"check failed: {f}", file=sys.stderr)
    if not m["records"]:
        raise WorkerError("no workload call completed")
    r0 = m["records"][0]
    print(f"{w.name} seed={seed} calls={len(m['records'])} "
          f"outputs_sha256={r0['outputs_sha256']}")
    print(f"reference ({UNVALIDATED}): {json.dumps(r0['reference'])}")
    if trace:
        metrics = with_units(layer_values(m), spec["per_layer"])
    else:
        metrics = with_units({k: statistics.median(v) for k, v in
                              e2e_values(w, m).items()}, spec["end_to_end"])
    return {"correct": m["failed"] == 0, "attempted": m["attempted"],
            "failed": m["failed"], "metrics": metrics}


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------
def _stats(values: List[float]) -> Dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def git_commit() -> str:
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def full_report(names: List[str], seed: int, repeats: int) -> Dict:
    spec = load_spec()
    units = {s["name"]: s["unit"] for s in spec["end_to_end"]}
    report: Dict = {"header": {
        "commit": git_commit(), "nproc": os.cpu_count(), "seed": seed,
        "repeats": repeats, "scale": SCALE, "sweep_jobs": SWEEP_JOBS},
        "workloads": {}}
    for name in names:
        w = WORKLOADS[name]
        plain = measure(w, seed, False, repeats=repeats)
        traced = measure(w, seed, True, repeats=1)
        errors = plain["errors"] + traced["errors"]
        records = plain["records"] + traced["records"]
        shas = sorted({r["outputs_sha256"] for r in records})
        if len(shas) > 1:
            errors.append("traced and untraced outputs differ")
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"] + (len(shas) > 1)
        entry: Dict = {"why": w.why, "failures": errors + [
            f for r in records for f in r["failures"]],
            "outputs_sha256": shas[0] if len(shas) == 1 else shas,
            "e2e": {}, "layers": {}}
        if plain["records"]:
            report["header"].update(plain["records"][0]["env"])
            entry["e2e"] = {k: dict(_stats(v), unit=units[k]) for k, v in
                            e2e_values(w, plain).items()}
            entry["host"] = {
                "factor": [r["host_factor"] for r in plain["records"]],
                "raw_wall_s": [r["raw_wall_s"] for r in plain["records"]]}
            entry["reference"] = dict(plain["records"][0]["reference"],
                                      note=UNVALIDATED)
        entry["e2e"]["failed_frac"] = {
            "median": failed / max(1, attempted), "n": attempted,
            "unit": "ratio"}
        if traced["records"]:
            entry["layers"] = layer_values(traced)
            if plain["records"]:
                entry["layers"]["trace.overhead"] = (
                    traced["records"][0]["wall_s"]
                    / entry["e2e"]["wall_s"]["median"] - 1)
        report["workloads"][name] = entry
        print_entry(name, entry)
    return report


def print_entry(name: str, entry: Dict) -> None:
    print(f"\n== {name}: {entry['why']}")
    for metric, s in entry["e2e"].items():
        spread = (f"  [q1 {s['q1']:.4g}, q3 {s['q3']:.4g}]"
                  if "q1" in s else "")
        print(f"  {metric:18s} {s['median']:12.5g} {s['unit']:9s} "
              f"n={s['n']}{spread}")
    layers = entry["layers"]
    shares = sorted((k for k in layers if k.endswith(".share")),
                    key=lambda k: -layers[k])
    for k in shares:
        if layers[k] > 0:
            base = k[:-len(".share")]
            print(f"  {base:30s} {100 * layers[k]:5.1f}%  "
                  f"self {layers[base + '.self_s']:.3f} s  "
                  f"calls {int(layers[base + '.calls'])}")
    for k, v in sorted(layers.items()):
        if not k.endswith((".share", ".self_s", ".calls")):
            print(f"  {k:38s} {v:.4g}")
    for k, v in entry.get("reference", {}).items():
        print(f"  ref {k}: {v}")
    print(f"  outputs_sha256 {entry['outputs_sha256']}")
    for f in entry["failures"]:
        print(f"  FAILED: {f}")


# ---------------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--seconds", type=float,
                    help="one timed run of one workload: call it until this "
                         "many seconds are used (at least once)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --seconds: report per-layer metrics")
    ap.add_argument("--repeats", type=int, default=3,
                    help="untraced runs per workload in the full report")
    ap.add_argument("--out", help="write the full report's JSON here")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.worker:
        print(json.dumps(worker_main(json.load(sys.stdin))))
        return 0
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no simulator sources under {ROOT}/src; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    try:
        if args.seconds is not None:
            if len(names) != 1:
                ap.error("--seconds takes exactly one --workload")
            result = timed_run(WORKLOADS[names[0]], args.seed, args.seconds,
                               bool(args.trace))
            print(json.dumps(result))
            return 0
        report = full_report(names, args.seed, args.repeats)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(report, fh, indent=1)
        return 1 if any(e["failures"] for e in report["workloads"].values()) \
            else 0
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
