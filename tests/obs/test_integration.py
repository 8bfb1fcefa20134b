"""Observability end-to-end: attach to real runs, verify invariance.

The central contract: attaching a trace recorder and metrics sampler
NEVER changes simulation results — recorders draw no RNG, mutate no
state and live outside every ``state_dict``.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.runner import run_synthetic
from repro.obs import Observability, validate_jsonl
from repro.obs.trace import NULL_RECORDER


def _run(scheme="hybrid_tdm_vc4", obs=None, **kw):
    kw.setdefault("pattern", "transpose")
    kw.setdefault("rate", 0.2)
    kw.setdefault("warmup", 300)
    kw.setdefault("measure", 700)
    kw.setdefault("width", 4)
    kw.setdefault("height", 4)
    kw.setdefault("slot_table_size", 64)
    rate = kw.pop("rate")
    pattern = kw.pop("pattern")
    return run_synthetic(scheme, pattern, rate, observability=obs, **kw)


class TestTracedRun:
    def test_traced_hybrid_run_produces_valid_artifacts(self, tmp_path):
        jsonl = str(tmp_path / "t.jsonl")
        chrome = str(tmp_path / "t.chrome.json")
        metrics = str(tmp_path / "m.json")
        obs = Observability(trace_jsonl=jsonl, trace_chrome=chrome,
                            metrics_path=metrics, sample_interval=100)
        run = _run(obs=obs)
        assert run.messages_delivered > 0

        n = validate_jsonl(jsonl)
        assert n > 0
        summary = obs.finalize_summary
        assert summary["events"] == n + summary["dropped"] == n
        # the data plane must show up on both NI and router tracks
        counts = summary["counts"]
        assert counts["flit_inject"] > 0
        assert counts["flit_route"] > 0
        assert counts["flit_eject"] > 0

        doc = json.load(open(chrome))
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == n

        m = json.load(open(metrics))
        assert len(m["samples"]) >= 2
        last = m["samples"][-1]
        assert last["flits_injected"] > 0
        assert last["messages_delivered"] > 0
        assert m["histograms"]["pkt_latency"]["n"] > 0

    def test_circuit_events_recorded_on_tdm(self, tmp_path):
        jsonl = str(tmp_path / "t.jsonl")
        obs = Observability(trace_jsonl=jsonl)
        _run(obs=obs)
        counts = obs.finalize_summary["counts"]
        # a loaded TDM run sets up circuits and acknowledges them
        assert counts.get("cs_setup", 0) > 0
        assert counts.get("cs_ack", 0) > 0

    def test_traced_run_identical_to_untraced(self, tmp_path):
        plain = _run()
        obs = Observability(trace_jsonl=str(tmp_path / "t.jsonl"),
                            metrics_path=str(tmp_path / "m.json"))
        traced = _run(obs=obs)
        assert traced.avg_latency == plain.avg_latency
        assert traced.p99_latency == plain.p99_latency
        assert traced.accepted == plain.accepted
        assert traced.messages_delivered == plain.messages_delivered
        assert traced.cs_fraction == plain.cs_fraction
        assert traced.energy.total == plain.energy.total

    def test_components_default_to_null_recorder(self):
        from tests.conftest import build
        _, net = build("hybrid_tdm_vc4")
        assert all(r.obs is NULL_RECORDER for r in net.routers)
        assert all(ni.obs is NULL_RECORDER for ni in net.interfaces)
        assert all(m.obs is NULL_RECORDER for m in net.managers)

    def test_attach_is_idempotent(self, tmp_path):
        from repro.harness.runner import prepare_synthetic
        obs = Observability(trace_jsonl=str(tmp_path / "t.jsonl"))
        sim, net, _ = prepare_synthetic("hybrid_tdm_vc4", "transpose", 0.2,
                                        width=4, height=4,
                                        slot_table_size=64)
        obs.attach(sim, net)
        obs.attach(sim, net)
        assert net.routers[0].obs is obs.recorder

    def test_metrics_only_run_writes_no_trace(self, tmp_path):
        metrics = str(tmp_path / "m.json")
        obs = Observability(metrics_path=metrics)
        assert obs.recorder is NULL_RECORDER
        _run(obs=obs)
        assert json.load(open(metrics))["samples"]
        assert "events" not in obs.finalize_summary


class TestSupervisedObsDumps:
    def test_point_dumps_land_next_to_results(self, tmp_path):
        from repro.harness.supervisor import (build_sweep_points,
                                              load_results,
                                              run_supervised_sweep)
        points = build_sweep_points(
            ["packet_vc4"], "uniform_random", [0.1],
            width=3, height=3, slot_table_size=32,
            warmup=200, measure=200, trace=True, metrics=True)
        run_dir = str(tmp_path / "run")
        summary = run_supervised_sweep(points, run_dir)
        assert summary["completed"] == 1 and not summary["failures"]
        pdir = tmp_path / "run" / "points"
        assert (pdir / "point-0000.json").exists()
        assert validate_jsonl(str(pdir / "point-0000.trace.jsonl")) > 0
        chrome = json.load(open(pdir / "point-0000.trace.chrome.json"))
        assert chrome["traceEvents"]
        metrics = json.load(open(pdir / "point-0000.metrics.json"))
        assert metrics["samples"]
        # result rows must not pick up the dump files
        results = load_results(run_dir)
        assert len(results) == 1
        assert results[0]["obs"]["metrics"].endswith("point-0000.metrics.json")


class TestZeroOverheadGuard:
    def test_bench_baseline_comparison(self):
        from repro.harness.bench import compare_to_baseline
        report = {"scenarios": [
            {"scenario": "idle", "fast_cps": 100.0},
            {"scenario": "loaded_epoch", "fast_cps": 99.0},
        ]}
        baseline = {"scenarios": [
            {"scenario": "idle", "fast_cps": 100.0},
            {"scenario": "loaded_epoch", "fast_cps": 100.0},
        ]}
        assert compare_to_baseline(report, baseline, tolerance=0.02) == []
        report["scenarios"][1]["fast_cps"] = 90.0
        failures = compare_to_baseline(report, baseline, tolerance=0.02)
        assert len(failures) == 1
        assert "loaded_epoch" in failures[0]

    def test_unknown_scenario_skipped(self):
        from repro.harness.bench import compare_to_baseline
        report = {"scenarios": [{"scenario": "new", "fast_cps": 1.0}]}
        assert compare_to_baseline(report, {"scenarios": []}) == []
