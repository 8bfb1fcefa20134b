"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``       one synthetic simulation, optionally traced
              (``--trace``/``--metrics``)
``trace``     short traced run: writes a JSONL + Chrome/Perfetto trace
              and prints the event summary
``sweep``     load-latency sweep over synthetic traffic (Figure 4 style)
``energy``    energy-saving comparison at one injection rate (Figure 5)
``hetero``    one heterogeneous workload mix across schemes (Figure 8)
``table3``    GPU injection / CS-fraction table (Table III)
``fig``       regenerate a whole paper artefact (fig4/fig5/fig6/fig8/
              fig9/table3) via the experiment harness
``inspect``   run a short simulation and dump live state (slot tables,
              occupancy heatmap, circuits)
``verify-replay``  snapshot mid-run, restore into a fresh build, re-run
              and fail loudly on any state-hash/stats divergence
``verify-equivalence``  run each scheme under the legacy and the
              activity-tracked fast engine from the same seed and
              require identical state hashes at every checkpoint
``bench``     time the legacy vs fast engine on idle and loaded-epoch
              scenarios plus a parallel supervised sweep; writes
              ``BENCH_simperf.json``
``profile``   cProfile one loaded epoch and print the hottest frames
``resume``    pick up a killed supervised sweep (``sweep --supervised``)
              where it left off
``chaos``     chaos-test the sweep fabric: run a real supervised sweep
              under injected SIGKILLs, supervisor loss, file corruption
              and disk-full errors, then assert the result is identical
              to an undisturbed serial run

Exit codes (uniform across commands)
------------------------------------

==== ======================================================
0    success
1    the command ran but the work failed (failed points,
     chaos mismatch, benchmark regression)
2    configuration error: bad flags, unknown scheme or pattern,
     unresumable run directory (``SweepConfigError``)
3    transient/infrastructure error: an OS-level failure
     (``OSError``: disk full, permission denied, I/O error)
130  interrupted (SIGINT)
==== ======================================================

Examples
--------

    python -m repro sweep transpose --rates 0.1,0.3,0.5
    python -m repro run hybrid_tdm_vc4 --trace out/run --metrics out/m.json
    python -m repro trace hybrid_tdm_vc4 --pattern tornado
    python -m repro sweep transpose --supervised --run-dir runs/t1
    python -m repro resume runs/t1
    python -m repro verify-replay --schemes packet_vc4,hybrid_tdm_vc4
    python -m repro hetero ART BLACKSCHOLES
    python -m repro fig fig5 --csv out.csv
    python -m repro inspect --scheme hybrid_tdm_vc4 --pattern tornado
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.config import SCHEMES, scheme_config
from repro.core.decision import DECISION_POLICIES
from repro.harness import experiments as experiments_mod
from repro.harness.report import format_table, write_csv
from repro.harness.runner import load_latency_sweep, run_synthetic
from repro.sim.kernel import Simulator, UnknownEngineError
from repro.traffic import PATTERN_NAMES

#: uniform exit codes (see module docstring / README)
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_TRANSIENT = 3
EXIT_INTERRUPT = 130


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--csv", default=None, help="also write rows to CSV")


def _emit(headers, rows, title: str, csv_path: Optional[str]) -> None:
    print(format_table(headers, rows, title=title))
    if csv_path:
        write_csv(csv_path, headers, rows)
        print(f"\nwrote {csv_path}")


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", default=None, metavar="PREFIX",
                   help="write a structured trace to PREFIX.jsonl and "
                        "PREFIX.chrome.json (Perfetto-loadable)")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="write a sampled metrics time series to PATH")
    p.add_argument("--metrics-interval", type=int, default=100,
                   help="cycles between metrics samples")


def _make_observability(trace_prefix: Optional[str],
                        metrics_path: Optional[str],
                        metrics_interval: int = 100):
    """Observability bundle from CLI flags, or None when neither is set."""
    if not trace_prefix and not metrics_path:
        return None
    from repro.obs import Observability
    return Observability(
        trace_jsonl=f"{trace_prefix}.jsonl" if trace_prefix else None,
        trace_chrome=f"{trace_prefix}.chrome.json" if trace_prefix else None,
        metrics_path=metrics_path,
        sample_interval=metrics_interval)


def _print_obs_summary(summary) -> None:
    if not summary:
        return
    if "events" in summary:
        print(f"\ntrace: {summary['events']} events "
              f"({summary['dropped']} dropped)")
        for ev, n in summary.get("counts", {}).items():
            print(f"  {ev:<16} {n}")
    for key in ("trace_jsonl", "trace_chrome", "metrics_path"):
        if summary.get(key):
            print(f"wrote {summary[key]}")


# ---------------------------------------------------------------------------
def cmd_run(args) -> int:
    obs = _make_observability(args.trace, args.metrics,
                              args.metrics_interval)
    r = run_synthetic(args.scheme, args.pattern, args.rate,
                      warmup=args.warmup, measure=args.measure,
                      seed=args.seed, width=args.width, height=args.height,
                      slot_table_size=args.slot_table_size,
                      observability=obs)
    rows = [(r.scheme, r.offered, r.accepted, r.avg_latency, r.p99_latency,
             r.cs_fraction, r.energy.total / 1e6, r.note or "ok")]
    _emit(("scheme", "offered", "accepted", "avg_lat", "p99", "cs_frac",
           "total_uJ", "status"), rows,
          f"Run: {args.scheme} @ {args.pattern} rate {args.rate}", args.csv)
    if obs is not None:
        _print_obs_summary(obs.finalize_summary)
    return 0


def cmd_trace(args) -> int:
    prefix = args.out or f"trace-{args.scheme}"
    obs = _make_observability(prefix, args.metrics, args.metrics_interval)
    r = run_synthetic(args.scheme, args.pattern, args.rate,
                      warmup=args.warmup, measure=args.measure,
                      seed=args.seed, width=args.width, height=args.height,
                      slot_table_size=args.slot_table_size,
                      observability=obs)
    print(f"{args.scheme} @ {args.pattern} rate {args.rate}: "
          f"{r.messages_delivered} messages, "
          f"avg latency {r.avg_latency:.1f}"
          + (f" ({r.note})" if r.note else ""))
    _print_obs_summary(obs.finalize_summary)
    return 0


def cmd_sweep(args) -> int:
    rates = [float(r) for r in args.rates.split(",")]
    schemes = args.schemes.split(",")
    # checked before any mode branch: every mode must reject these the
    # same way, before a worker is spawned or a run directory created
    bad = [s for s in schemes if s not in SCHEMES]
    if bad:
        print(f"unknown scheme(s) {bad}; expected {list(SCHEMES)}",
              file=sys.stderr)
        return EXIT_CONFIG
    if args.pattern not in PATTERN_NAMES:
        print(f"unknown pattern {args.pattern!r}; expected one of "
              f"{list(PATTERN_NAMES)}", file=sys.stderr)
        return EXIT_CONFIG
    if args.dry_run:
        return _dry_run_sweep(args, schemes, rates)
    if args.supervised:
        return _supervised_sweep(args, schemes, rates)
    if args.trace or args.metrics:
        return _observed_sweep(args, schemes, rates)
    rows = []
    for scheme in schemes:
        for r in load_latency_sweep(scheme, args.pattern, rates=rates,
                                    seed=args.seed, engine=args.engine):
            rows.append((scheme, r.offered, r.accepted, r.avg_latency,
                         r.p99_latency, r.cs_fraction))
    _emit(("scheme", "offered", "accepted", "avg_lat", "p99", "cs_frac"),
          rows, f"Load-latency sweep: {args.pattern}", args.csv)
    return 0


def _observed_sweep(args, schemes, rates) -> int:
    """In-process sweep with per-point trace/metrics dumps under an
    output directory (one file set per (scheme, rate) point)."""
    import os
    out_dir = args.run_dir or "obs"
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for scheme in schemes:
        for rate in rates:
            stem = os.path.join(out_dir,
                                f"{scheme}-{args.pattern}-{rate:g}")
            obs = _make_observability(
                stem if args.trace else None,
                stem + ".metrics.json" if args.metrics else None,
                args.metrics_interval)
            r = run_synthetic(scheme, args.pattern, rate, seed=args.seed,
                              observability=obs)
            rows.append((scheme, r.offered, r.accepted, r.avg_latency,
                         r.p99_latency, r.cs_fraction))
    _emit(("scheme", "offered", "accepted", "avg_lat", "p99", "cs_frac"),
          rows, f"Load-latency sweep: {args.pattern}", args.csv)
    print(f"\nper-point observability dumps under {out_dir}/")
    return 0


def _print_sweep_summary(summary) -> None:
    rows = [(res["row"].get("scheme", "?"), res["row"].get("offered", 0.0),
             res["row"].get("accepted", float("nan")),
             res["row"].get("avg_latency", float("nan")),
             res["row"].get("p99_latency", float("nan")),
             res["row"].get("note", "") or res["status"])
            for res in summary["results"]]
    print(format_table(
        ("scheme", "offered", "accepted", "avg_lat", "p99", "status"),
        rows, title="Supervised sweep results"))
    print(f"\n{summary['completed']}/{summary['total']} points completed "
          f"({summary['skipped']} already done), "
          f"{len(summary['failures'])} failures")
    for failure in summary["failures"]:
        pt = failure["point"]
        print(f"  point {failure['index']} "
              f"({pt['scheme']} @ {pt['rate']}): {failure['outcome']} "
              f"after {failure['attempts']} attempt(s)")


def _dry_run_sweep(args, schemes, rates) -> int:
    """Validate and print the resolved sweep without running anything.

    Everything a real invocation would reject — an inconsistent
    supervisor config, a missing run directory — is rejected here too
    (exit 2); a clean dry run prints every resolved point with its
    spec hash plus the sweep config hash, and exits 0.
    """
    from repro.config import CheckpointConfig
    from repro.harness.supervisor import (build_sweep_points,
                                          point_spec_hash,
                                          sweep_config_hash)

    if args.supervised:
        sup = _supervisor_config(args)      # validates; may exit 2
        if sup is None:
            return EXIT_CONFIG
        if not args.run_dir:
            print("--supervised requires --run-dir", file=sys.stderr)
            return EXIT_CONFIG
    points = build_sweep_points(schemes, args.pattern, rates,
                                seed=args.seed,
                                trace=bool(args.trace),
                                metrics=bool(args.metrics),
                                metrics_interval=args.metrics_interval,
                                engine=args.engine)
    rows = [(i, p["scheme"], p["pattern"], p["rate"],
             point_spec_hash(p)[:16]) for i, p in enumerate(points)]
    print(format_table(("index", "scheme", "pattern", "rate", "spec_hash"),
                       rows, title="Dry run: resolved sweep points"))
    # identical construction to _supervised_sweep so the printed hash
    # matches what a real run would record in sweep.json
    cfg_hash = sweep_config_hash(points, CheckpointConfig(
        enabled=args.checkpoint_cycles > 0,
        interval_cycles=args.checkpoint_cycles))
    print(f"\n{len(points)} point(s); sweep config hash {cfg_hash}")
    print("dry run: nothing executed")
    return 0


def _supervisor_config(args):
    """SupervisorConfig from sweep flags, or None after printing the
    validation error (the config-error exit path)."""
    from repro.config import SupervisorConfig
    try:
        return SupervisorConfig(
            enabled=True, timeout_s=args.timeout,
            max_retries=args.retries, jobs=args.jobs,
            lease_ttl_s=args.lease_ttl,
            heartbeat_interval_s=args.heartbeat_interval)
    except ValueError as exc:
        print(f"invalid supervisor config: {exc}", file=sys.stderr)
        return None


def _supervised_sweep(args, schemes, rates) -> int:
    from repro.config import CheckpointConfig
    from repro.harness.supervisor import (build_sweep_points,
                                          run_supervised_sweep)

    if not args.run_dir:
        print("--supervised requires --run-dir", file=sys.stderr)
        return EXIT_CONFIG
    sup = _supervisor_config(args)
    if sup is None:
        return EXIT_CONFIG
    ckpt = CheckpointConfig(enabled=args.checkpoint_cycles > 0,
                            interval_cycles=args.checkpoint_cycles)
    points = build_sweep_points(schemes, args.pattern, rates,
                                seed=args.seed,
                                trace=bool(args.trace),
                                metrics=bool(args.metrics),
                                metrics_interval=args.metrics_interval,
                                engine=args.engine)

    def progress(index, point, outcome, attempts):
        print(f"[{index + 1}/{len(points)}] {point['scheme']} "
              f"@ {point['rate']}: {outcome}")

    summary = run_supervised_sweep(points, args.run_dir, sup, ckpt,
                                   progress=progress)
    _print_sweep_summary(summary)
    return 0 if not summary["failures"] else 1


def cmd_resume(args) -> int:
    from repro.harness.supervisor import SweepConfigError, resume_sweep
    try:
        summary = resume_sweep(args.run_dir, jobs=args.jobs)
    except (FileNotFoundError, SweepConfigError) as exc:
        print(f"cannot resume: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _print_sweep_summary(summary)
    return 0 if not summary["failures"] else 1


def cmd_chaos(args) -> int:
    from repro.harness.chaos import ChaosConfig, run_chaos

    cfg = ChaosConfig(points=args.points, kill_rate=args.kill_rate,
                      corrupt_rate=args.corrupt_rate,
                      diskfull_rate=args.diskfull_rate,
                      supervisor_kill_rate=args.supervisor_kill_rate,
                      cycles=args.cycles, jobs=args.jobs, seed=args.seed,
                      timeout_s=args.timeout)
    report = run_chaos(cfg, args.run_dir, progress=print)
    print(f"\n{report['total_kills']} worker kill(s), "
          f"{report['supervisor_kills']} supervisor kill(s), "
          f"{report['total_corruptions']} corruption(s) over "
          f"{report['cycles_run']} cycle(s) in {report['elapsed_s']}s")
    if report["ok"]:
        print("CHAOS PASS: manifest complete, checksum-clean, identical "
              "to the undisturbed serial run")
        print(f"report: {report['report_path']}")
        return 0
    print("CHAOS FAIL:")
    for problem in report["problems"]:
        print(f"  {problem}")
    print(f"report: {report['report_path']}")
    return 1


def cmd_verify_replay(args) -> int:
    from repro.harness.verify import verify_replay

    failed = False
    for scheme in args.schemes.split(","):
        report = verify_replay(
            scheme, pattern=args.pattern, rate=args.rate,
            pre_cycles=args.pre, post_cycles=args.post, seed=args.seed,
            width=args.width, height=args.height,
            slot_table_size=args.slot_table_size)
        verdict = "PASS" if report.ok else "FAIL"
        print(f"{verdict} {scheme}: restore={report.restore_hash_ok} "
              f"final={report.final_hash_ok} stats={report.stats_ok} "
              f"(snapshot {report.hash_at_snapshot[:16]})")
        for mismatch in report.mismatches:
            print(f"    {mismatch}")
        failed = failed or not report.ok
    return 1 if failed else 0


def cmd_verify_equivalence(args) -> int:
    from repro.harness.verify import verify_equivalence

    engines = tuple(e.strip() for e in args.engines.split(",") if e.strip())
    failed = False
    for scheme in args.schemes.split(","):
        report = verify_equivalence(
            scheme, pattern=args.pattern, rate=args.rate,
            cycles=args.cycles, interval=args.interval, seed=args.seed,
            width=args.width, height=args.height,
            slot_table_size=args.slot_table_size,
            stop_cycle=args.stop_cycle, engines=engines)
        verdict = "PASS" if report.ok else "FAIL"
        finals = " ".join(f"{name}={report.final_hashes[name][:16]}"
                          for name in report.engines)
        print(f"{verdict} {scheme}: {report.checkpoints} checkpoints, "
              f"final {finals}")
        for mismatch in report.mismatches:
            print(f"    {mismatch}")
        failed = failed or not report.ok
    return 1 if failed else 0


def cmd_bench(args) -> int:
    import json as json_mod

    from repro.harness.bench import (compare_to_baseline, run_bench,
                                     select_scenarios, time_supervised_sweep,
                                     write_bench_json)

    scenarios = None
    if args.scenarios:
        try:
            scenarios = select_scenarios(args.scenarios.split(","))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    report = run_bench(repeats=args.repeats, seed=args.seed,
                       scenarios=scenarios)
    rows = [(r["scenario"], r["legacy_cps"], r["fast_cps"], r["ratio"],
             r["target_ratio"], "PASS" if r["ok"] else "FAIL")
            for r in report["scenarios"]]
    print(format_table(
        ("scenario", "legacy_cps", "fast_cps", "fast_x", "target", "ok"),
        rows, title=f"Engine throughput (best of {args.repeats})"))
    if not args.no_sweep:
        sweep_fig = time_supervised_sweep(jobs=args.jobs, seed=args.seed)
        report["sweep"] = sweep_fig
        print(f"\nsupervised sweep: {sweep_fig['points']} points, "
              f"{sweep_fig['jobs']} job(s): "
              f"{sweep_fig['sweep_wall_seconds']}s wall")
    write_bench_json(report, args.json)
    print(f"\nwrote {args.json}")
    ok = report["ok"]
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json_mod.load(fh)
        # >= 1 reads as percent (compare_to_baseline does the same)
        tol = args.tolerance / 100.0 if args.tolerance >= 1.0 \
            else args.tolerance
        failures = compare_to_baseline(report, baseline,
                                       tolerance=args.tolerance)
        if failures:
            ok = False
            print(f"\nregression vs {args.baseline}:")
            for failure in failures:
                print(f"  {failure}")
        else:
            print(f"\nno regression vs {args.baseline} "
                  f"(tolerance {100 * tol:.0f}%)")
    return 0 if ok else 1


def cmd_profile(args) -> int:
    from repro.harness.profiling import profile_epoch

    stop = None if args.stop_cycle < 0 else args.stop_cycle
    report = profile_epoch(
        scheme=args.scheme, pattern=args.pattern, rate=args.rate,
        cycles=args.cycles, stop_cycle=stop,
        engine=args.engine, seed=args.seed,
        width=args.width, height=args.height,
        sort=args.sort, limit=args.limit, out=args.out)
    print(report, end="")
    if args.out:
        print(f"wrote {args.out} (pstats dump)")
    return 0


def cmd_energy(args) -> int:
    base = run_synthetic("packet_vc4", args.pattern, args.rate,
                         seed=args.seed)
    rows = [("packet_vc4", base.energy.total / 1e6,
             base.energy_per_message_pj / 1000, 0.0, 0.0)]
    for scheme in ("hybrid_tdm_vc4", "hybrid_tdm_vct"):
        r = run_synthetic(scheme, args.pattern, args.rate, seed=args.seed)
        save = 100 * (1 - r.energy_per_message_pj
                      / base.energy_per_message_pj)
        rows.append((scheme, r.energy.total / 1e6,
                     r.energy_per_message_pj / 1000, r.cs_fraction, save))
    _emit(("scheme", "total_uJ", "nJ_per_msg", "cs_frac", "save_%"),
          rows, f"Energy @ {args.pattern} rate {args.rate}", args.csv)
    return 0


def cmd_hetero(args) -> int:
    from repro.hetero import HeteroSystem, PhaseConfig, run_hetero_replay

    schemes = args.schemes.split(",")
    phases = PhaseConfig() if args.phased else None

    if args.replay:
        path = f"{args.replay}.trace.jsonl"
        rows = []
        for scheme in schemes:
            res = run_hetero_replay(
                scheme, path, warmup=args.warmup, measure=args.measure,
                seed=args.seed, engine=args.engine, policy=args.policy)
            rows.append((scheme, res.cs_fraction, res.avg_pkt_latency,
                         res.energy.total / 1e6, res.messages_delivered))
        _emit(("scheme", "cs_frac", "avg_lat", "total_uJ", "messages"),
              rows, f"Trace replay: {path}", args.csv)
        return 0

    recorder = None
    rows = []
    base = None
    for i, scheme in enumerate(schemes):
        system = HeteroSystem(scheme, args.cpu, args.gpu, seed=args.seed,
                              engine=args.engine, phases=phases,
                              policy=args.policy)
        rec = None
        if args.record and i == 0:
            from repro.traffic import MessageTraceRecorder
            rec = recorder = MessageTraceRecorder()
        res = system.run(warmup=args.warmup, measure=args.measure,
                         recorder=rec)
        if base is None:
            base = res
        rows.append((scheme,
                     100 * (1 - res.energy.total / base.energy.total),
                     res.cpu_ipc / base.cpu_ipc,
                     res.gpu_throughput / base.gpu_throughput,
                     res.cs_fraction, res.gpu_injection_rate))
    _emit(("scheme", "energy_save_%", "cpu_speedup", "gpu_speedup",
           "cs_frac", "gpu_inj"), rows,
          f"Heterogeneous mix {args.cpu} x {args.gpu}", args.csv)
    if recorder is not None:
        path = f"{args.record}.trace.jsonl"
        recorder.save(path, info={
            "scheme": schemes[0], "cpu_benchmark": args.cpu,
            "gpu_benchmark": args.gpu, "warmup": args.warmup,
            "measure": args.measure, "seed": args.seed,
            "phased": bool(args.phased), "policy": args.policy})
        print(f"\nrecorded {len(recorder.events)} events "
              f"({schemes[0]}) to {path}")
    return 0


def cmd_table3(args) -> int:
    result = experiments_mod.table3(seed=args.seed)
    print(result.text)
    if args.csv:
        write_csv(args.csv, result.headers, result.rows)
    return 0


def cmd_fig(args) -> int:
    fn = getattr(experiments_mod, args.name, None)
    if fn is None or args.name not in ("fig4", "fig5", "fig6", "fig8",
                                       "fig9", "table3"):
        print(f"unknown artefact {args.name!r}; expected fig4/fig5/fig6/"
              f"fig8/fig9/table3", file=sys.stderr)
        return EXIT_CONFIG
    result = fn(seed=args.seed)
    print(result.text)
    if args.csv:
        write_csv(args.csv, result.headers, result.rows)
        print(f"\nwrote {args.csv}")
    return 0


def cmd_inspect(args) -> int:
    from repro import Simulator, build_network
    from repro import inspect as insp
    from repro.traffic import attach_synthetic_sources, make_pattern

    cfg = scheme_config(args.scheme)
    sim = Simulator(seed=args.seed)
    net = build_network(cfg, sim)
    pattern = make_pattern(args.pattern, net.mesh, sim.rng)
    attach_synthetic_sources(net, pattern, injection_rate=args.rate,
                             rng=sim.rng)
    sim.run(args.cycles)
    print(insp.network_summary(net))
    print()
    print(insp.occupancy_heatmap(net))
    print()
    if hasattr(net, "clock"):
        print(insp.vc_power_map(net))
        print()
        print(insp.circuit_listing(net))
        print()
        print(insp.slot_table_dump(net, args.node))
    return 0


# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TDM hybrid-switched NoC reproduction (Yin et al. 2014)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="one synthetic run, optionally traced")
    p.add_argument("scheme", nargs="?", default="hybrid_tdm_vc4",
                   choices=list(SCHEMES))
    p.add_argument("--pattern", default="transpose")
    p.add_argument("--rate", type=float, default=0.2)
    p.add_argument("--warmup", type=int, default=1500)
    p.add_argument("--measure", type=int, default=4000)
    p.add_argument("--width", type=int, default=6)
    p.add_argument("--height", type=int, default=6)
    p.add_argument("--slot-table-size", type=int, default=128)
    _add_obs_flags(p)
    _add_common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("trace",
                       help="short traced run (JSONL + Perfetto trace)")
    p.add_argument("scheme", nargs="?", default="hybrid_tdm_vc4",
                   choices=list(SCHEMES))
    p.add_argument("--pattern", default="transpose")
    p.add_argument("--rate", type=float, default=0.2)
    p.add_argument("--warmup", type=int, default=300)
    p.add_argument("--measure", type=int, default=700)
    p.add_argument("--width", type=int, default=4)
    p.add_argument("--height", type=int, default=4)
    p.add_argument("--slot-table-size", type=int, default=64)
    p.add_argument("--out", default=None, metavar="PREFIX",
                   help="trace file prefix (default trace-<scheme>)")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="also write a metrics time series to PATH")
    p.add_argument("--metrics-interval", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("sweep", help="load-latency sweep (Figure 4 style)")
    p.add_argument("pattern", nargs="?", default="transpose")
    p.add_argument("--rates", default="0.05,0.15,0.25,0.35,0.45")
    p.add_argument("--schemes",
                   default="packet_vc4,hybrid_tdm_vc4,hybrid_tdm_vct")
    p.add_argument("--engine", default=None,
                   choices=Simulator.ENGINES,
                   help="pin every point to one scheduler (default: "
                        "the worker's process default)")
    p.add_argument("--supervised", action="store_true",
                   help="run each point in a supervised subprocess with "
                        "timeout/retry and a failure manifest")
    p.add_argument("--dry-run", action="store_true",
                   help="validate the configuration, print the resolved "
                        "point list with spec hashes, and exit without "
                        "running anything")
    p.add_argument("--run-dir", default=None,
                   help="directory for supervised results (resumable)")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="per-point wall-clock timeout in seconds")
    p.add_argument("--retries", type=int, default=2,
                   help="retries for crashed/timed-out points")
    p.add_argument("--jobs", type=int, default=0,
                   help="concurrent supervised points (0 = one per CPU)")
    p.add_argument("--checkpoint-cycles", type=int, default=0,
                   help="snapshot each point's state every N cycles")
    p.add_argument("--lease-ttl", type=float, default=60.0,
                   help="heartbeat staleness (s) after which a worker's "
                        "lease expires and its point is reclaimed "
                        "(0 disables lease expiry)")
    p.add_argument("--heartbeat-interval", type=float, default=1.0,
                   help="period (s) of worker heartbeat writes")
    p.add_argument("--trace", action="store_true",
                   help="write per-point trace dumps (JSONL + Chrome "
                        "format) next to the results")
    p.add_argument("--metrics", action="store_true",
                   help="write per-point metrics time series next to "
                        "the results")
    p.add_argument("--metrics-interval", type=int, default=100,
                   help="cycles between metrics samples")
    _add_common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("resume",
                       help="resume a killed supervised sweep")
    p.add_argument("run_dir", help="run directory from sweep --supervised")
    p.add_argument("--jobs", type=int, default=None,
                   help="override the concurrency recorded in sweep.json")
    p.set_defaults(fn=cmd_resume)

    p = sub.add_parser("chaos",
                       help="chaos-test the supervised sweep fabric")
    p.add_argument("--run-dir", default="chaos-run",
                   help="directory for the reference + chaos runs and "
                        "chaos-report.json")
    p.add_argument("--points", type=int, default=8,
                   help="sweep-grid size for the campaign")
    p.add_argument("--kill-rate", type=float, default=0.3,
                   help="per-second SIGKILL hazard per running worker")
    p.add_argument("--corrupt-rate", type=float, default=0.4,
                   help="per-file truncate/bit-flip probability between "
                        "resume cycles")
    p.add_argument("--diskfull-rate", type=float, default=0.1,
                   help="per-write injected-ENOSPC probability inside "
                        "workers")
    p.add_argument("--supervisor-kill-rate", type=float, default=0.5,
                   help="probability of SIGKILLing the whole supervisor "
                        "per disturbed cycle")
    p.add_argument("--cycles", type=int, default=4,
                   help="resume cycles; the final one runs undisturbed")
    p.add_argument("--jobs", type=int, default=2,
                   help="concurrency of the chaos run")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="per-point wall-clock timeout in seconds")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser("verify-replay",
                       help="verify snapshot/restore determinism")
    p.add_argument("--schemes", default="packet_vc4,hybrid_tdm_vc4")
    p.add_argument("--pattern", default="transpose")
    p.add_argument("--rate", type=float, default=0.15)
    p.add_argument("--pre", type=int, default=600,
                   help="cycles before the snapshot")
    p.add_argument("--post", type=int, default=600,
                   help="cycles replayed after the snapshot")
    p.add_argument("--width", type=int, default=4)
    p.add_argument("--height", type=int, default=4)
    p.add_argument("--slot-table-size", type=int, default=64)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=cmd_verify_replay)

    p = sub.add_parser("verify-equivalence",
                       help="verify the fast engine against the legacy "
                            "oracle")
    p.add_argument("--engines", default="legacy,fast",
                   help="comma-separated engines to compare; the first "
                        "is the baseline the other is diffed against")
    p.add_argument("--schemes",
                   default="packet_vc4,hybrid_sdm_vc4,hybrid_tdm_vc4,"
                           "hybrid_tdm_vct,hybrid_tdm_hop_vc4,"
                           "hybrid_tdm_hop_vct")
    p.add_argument("--pattern", default="uniform_random")
    p.add_argument("--rate", type=float, default=0.12)
    p.add_argument("--cycles", type=int, default=300)
    p.add_argument("--interval", type=int, default=100,
                   help="cycles between state-hash checkpoints")
    p.add_argument("--stop-cycle", type=int, default=None,
                   help="stop traffic sources at this cycle so the "
                        "drain/sleep path is exercised")
    p.add_argument("--width", type=int, default=4)
    p.add_argument("--height", type=int, default=4)
    p.add_argument("--slot-table-size", type=int, default=32)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=cmd_verify_equivalence)

    p = sub.add_parser("bench",
                       help="engine cycles/sec benchmark "
                            "(legacy vs fast)")
    p.add_argument("--repeats", type=int, default=5,
                   help="interleaved timing repeats; best run kept")
    p.add_argument("--json", default="BENCH_simperf.json",
                   help="output path for the machine-readable report")
    p.add_argument("--baseline", default=None,
                   help="committed BENCH_simperf.json to regress "
                        "fast-engine throughput against")
    p.add_argument("--tolerance", type=float, default=0.02,
                   help="allowed slowdown vs the baseline; values >= 1 "
                        "are read as a percentage (10 means 10%%)")
    p.add_argument("--jobs", type=int, default=0,
                   help="concurrency for the timed supervised sweep "
                        "(0 = one per CPU)")
    p.add_argument("--no-sweep", action="store_true",
                   help="skip the supervised-sweep wall-clock figure")
    p.add_argument("--scenarios", default=None,
                   help="comma-separated scenario subset (e.g. "
                        "hetero_mix,trace_replay)")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("profile",
                       help="cProfile one loaded epoch (hot-loop report)")
    p.add_argument("scheme", nargs="?", default="hybrid_tdm_vc4",
                   choices=list(SCHEMES))
    p.add_argument("--pattern", default="uniform_random")
    p.add_argument("--rate", type=float, default=0.2)
    p.add_argument("--cycles", type=int, default=2500)
    p.add_argument("--stop-cycle", type=int, default=500,
                   help="stop traffic here so the drain/sleep path "
                        "shows up; pass -1 to never stop")
    p.add_argument("--engine", default="fast",
                   choices=Simulator.ENGINES)
    p.add_argument("--width", type=int, default=4)
    p.add_argument("--height", type=int, default=4)
    p.add_argument("--sort", default="cumulative",
                   help="pstats sort key (cumulative, tottime, calls...)")
    p.add_argument("--limit", type=int, default=25,
                   help="number of frames to print")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also dump raw pstats data to PATH")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("energy", help="energy comparison (Figure 5 style)")
    p.add_argument("pattern", nargs="?", default="tornado")
    p.add_argument("--rate", type=float, default=0.25)
    _add_common(p)
    p.set_defaults(fn=cmd_energy)

    p = sub.add_parser("hetero", help="heterogeneous mix (Figure 8 style)")
    p.add_argument("cpu", nargs="?", default="ART")
    p.add_argument("gpu", nargs="?", default="BLACKSCHOLES")
    p.add_argument("--schemes", default="packet_vc4,hybrid_tdm_vc4,"
                   "hybrid_tdm_hop_vc4,hybrid_tdm_hop_vct")
    p.add_argument("--warmup", type=int, default=2000)
    p.add_argument("--measure", type=int, default=6000)
    p.add_argument("--record", default=None, metavar="PREFIX",
                   help="record the first scheme's message trace to "
                        "PREFIX.trace.jsonl")
    p.add_argument("--replay", default=None, metavar="PREFIX",
                   help="replay PREFIX.trace.jsonl across --schemes "
                        "instead of running the closed-loop mix")
    p.add_argument("--phased", action="store_true",
                   help="phase-structured workload (compute/memory phases, "
                        "GPU kernel bursts, hotspot skew)")
    p.add_argument("--policy", default="slack",
                   choices=list(DECISION_POLICIES),
                   help="circuit-decision policy for hybrid schemes")
    p.add_argument("--engine", default=None,
                   choices=Simulator.ENGINES)
    _add_common(p)
    p.set_defaults(fn=cmd_hetero)

    p = sub.add_parser("table3", help="GPU injection & CS fractions")
    _add_common(p)
    p.set_defaults(fn=cmd_table3)

    p = sub.add_parser("fig", help="regenerate a paper artefact")
    p.add_argument("name", choices=["fig4", "fig5", "fig6", "fig8",
                                    "fig9", "table3"])
    _add_common(p)
    p.set_defaults(fn=cmd_fig)

    p = sub.add_parser("inspect", help="dump live simulation state")
    p.add_argument("--scheme", default="hybrid_tdm_vc4",
                   choices=list(SCHEMES))
    p.add_argument("--pattern", default="tornado")
    p.add_argument("--rate", type=float, default=0.2)
    p.add_argument("--cycles", type=int, default=2000)
    p.add_argument("--node", type=int, default=0)
    _add_common(p)
    p.set_defaults(fn=cmd_inspect)

    return parser


def _classify_exit(exc: BaseException) -> Optional[int]:
    """Map an escaped exception to the uniform exit-code table, or
    None for genuine bugs (which must propagate with a traceback)."""
    from repro.harness.supervisor import SweepConfigError

    if isinstance(exc, (SweepConfigError, UnknownEngineError)):
        return EXIT_CONFIG
    if isinstance(exc, OSError):
        return EXIT_TRANSIENT
    return None


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    except Exception as exc:
        code = _classify_exit(exc)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
