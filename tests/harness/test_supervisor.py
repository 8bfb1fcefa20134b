"""Supervised sweep runner: isolation, retry, leases, manifest, resume."""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from repro.config import SupervisorConfig
from repro.harness import store
from repro.harness.executor import LocalProcessExecutor, WorkerStatus
from repro.harness.runner import run_synthetic
from repro.harness.supervisor import (
    SweepConfigError,
    amend_sweep_points,
    build_sweep_points,
    lease_path,
    load_results,
    resume_sweep,
    run_supervised_sweep,
    validate_result,
)


def _points(n_extra=0, **overrides):
    pts = build_sweep_points(["packet_vc4"], "uniform_random",
                            [0.1, 0.2][:1 + n_extra], width=3, height=3,
                            slot_table_size=32, warmup=200, measure=200)
    for p in pts:
        p.update(overrides)
    return pts


def _sup(**kw):
    kw.setdefault("timeout_s", 60.0)
    kw.setdefault("max_retries", 1)
    kw.setdefault("backoff_s", 0.01)
    kw.setdefault("backoff_cap_s", 0.05)
    return SupervisorConfig(enabled=True, **kw)


class TestSupervisedSweep:
    def test_clean_sweep_completes(self, tmp_path):
        run_dir = str(tmp_path / "run")
        summary = run_supervised_sweep(_points(n_extra=1), run_dir, _sup())
        assert summary["completed"] == 2
        assert summary["failures"] == []
        results = load_results(run_dir)
        assert len(results) == 2
        assert all(r["status"] == "ok" for r in results)
        assert all(r["row"]["messages_delivered"] > 0 for r in results)

    def test_injected_livelock_point_does_not_stop_sweep(self, tmp_path):
        pts = _points(n_extra=1)
        pts[0]["_test_fail"] = "livelock"
        run_dir = str(tmp_path / "run")
        summary = run_supervised_sweep(pts, run_dir, _sup())
        # the livelocked point is recorded, the other point still ran
        assert len(summary["failures"]) == 1
        failure = summary["failures"][0]
        assert failure["outcome"] == "livelock"
        assert failure["attempts"] == 1, "livelock must not be retried"
        results = load_results(run_dir)
        assert len(results) == 2
        assert results[0]["status"] == "livelock"
        assert "livelock@" in results[0]["row"]["note"]
        assert results[1]["status"] == "ok"

        manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
        assert manifest["total_points"] == 2
        assert manifest["failures"][0]["outcome"] == "livelock"

    def test_crash_is_retried_then_recorded(self, tmp_path):
        pts = _points()
        pts[0]["_test_fail"] = "crash"
        run_dir = str(tmp_path / "run")
        summary = run_supervised_sweep(pts, run_dir, _sup(max_retries=2))
        assert summary["completed"] == 0
        failure = summary["failures"][0]
        assert failure["outcome"] == "crash"
        assert failure["attempts"] == 3  # initial try + 2 retries

    def test_hang_times_out(self, tmp_path):
        pts = _points()
        pts[0]["_test_fail"] = "hang"
        run_dir = str(tmp_path / "run")
        summary = run_supervised_sweep(
            pts, run_dir, _sup(timeout_s=1.0, max_retries=0))
        failure = summary["failures"][0]
        assert failure["outcome"] == "timeout"
        assert failure["attempts"] == 1

    def test_resume_skips_completed_points(self, tmp_path):
        run_dir = str(tmp_path / "run")
        first = run_supervised_sweep(_points(n_extra=1), run_dir, _sup())
        assert first["skipped"] == 0
        resumed = resume_sweep(run_dir)
        assert resumed["skipped"] == 2
        assert resumed["completed"] == 2
        assert resumed["failures"] == []

    def test_resume_requires_sweep_json(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            resume_sweep(str(tmp_path / "nonexistent"))


class _RecordingExecutor(LocalProcessExecutor):
    """Logs submit/reap/wait_any calls in order.  Point 1 is reported
    as running until point 2 has been launched, so point 0's exit always
    frees a slot while another worker is still busy."""

    def __init__(self):
        super().__init__()
        self.events = []
        self._index = {}

    def submit(self, spec):
        handle = super().submit(spec)
        self._index[handle] = spec.index
        self.events.append(("submit", spec.index))
        return handle

    def poll(self, handle):
        if self._index[handle] == 1 and ("submit", 2) not in self.events:
            return WorkerStatus.RUNNING
        return super().poll(handle)

    def reap(self, handle):
        self.events.append(("reap", self._index[handle]))
        super().reap(handle)

    def wait_any(self, handles, timeout):
        self.events.append(("wait_any",))
        super().wait_any(handles, timeout)


class TestParallelSweep:
    """jobs > 1 must change wall-clock behaviour only — never results."""

    def _grid(self, n=5, **overrides):
        pts = build_sweep_points(["packet_vc4"], "uniform_random",
                                 [0.05 * (i + 1) for i in range(n)],
                                 width=3, height=3, slot_table_size=32,
                                 warmup=150, measure=150)
        for p in pts:
            p.update(overrides)
        return pts

    def test_freed_slot_relaunched_before_next_wait(self, tmp_path):
        """A slot freed by a worker exit is refilled in the same loop
        pass, not left empty until the next wake."""
        executor = _RecordingExecutor()
        summary = run_supervised_sweep(self._grid(n=3),
                                       str(tmp_path / "run"), _sup(jobs=2),
                                       executor=executor)
        assert summary["completed"] == 3
        events = executor.events
        after_exit = events[events.index(("reap", 0)) + 1:]
        next_call = next(e for e in after_exit if e[0] != "reap")
        assert next_call == ("submit", 2), events

    def test_parallel_matches_serial_results(self, tmp_path):
        pts = self._grid()
        serial = run_supervised_sweep(pts, str(tmp_path / "serial"),
                                      _sup(jobs=1))
        par = run_supervised_sweep(pts, str(tmp_path / "par"),
                                   _sup(jobs=4))
        assert serial["failures"] == par["failures"] == []
        assert serial["completed"] == par["completed"] == len(pts)
        # identical rows, in point-index order, regardless of the order
        # in which the parallel workers finished
        assert [r["row"] for r in serial["results"]] \
            == [r["row"] for r in par["results"]]

    def test_parallel_run_is_deterministic(self, tmp_path):
        pts = self._grid(n=4)
        a = run_supervised_sweep(pts, str(tmp_path / "a"), _sup(jobs=4))
        b = run_supervised_sweep(pts, str(tmp_path / "b"), _sup(jobs=4))
        assert [r["row"] for r in a["results"]] \
            == [r["row"] for r in b["results"]]

    def test_parallel_failures_ordered_and_retried(self, tmp_path):
        pts = self._grid(n=4)
        pts[2]["_test_fail"] = "crash"
        pts[0]["_test_fail"] = "livelock"
        summary = run_supervised_sweep(pts, str(tmp_path / "run"),
                                       _sup(jobs=4, max_retries=1))
        assert [f["index"] for f in summary["failures"]] == [0, 2]
        by_index = {f["index"]: f for f in summary["failures"]}
        assert by_index[0]["outcome"] == "livelock"
        assert by_index[0]["attempts"] == 1   # livelock never retried
        assert by_index[2]["outcome"] == "crash"
        assert by_index[2]["attempts"] == 2   # initial try + 1 retry
        # healthy points all completed despite the two failures
        assert summary["completed"] == 3      # 2 ok + livelock partial

        manifest = json.load(
            open(os.path.join(str(tmp_path / "run"), "manifest.json")))
        assert [f["index"] for f in manifest["failures"]] == [0, 2]

    def test_resume_partial_parallel_run(self, tmp_path):
        pts = self._grid(n=4)
        run_dir = str(tmp_path / "run")
        # simulate a sweep killed mid-way: run points 1 and 3 only, as a
        # parallel run would have completed them out of order
        first = run_supervised_sweep([pts[1], pts[3]],
                                     str(tmp_path / "pre"), _sup(jobs=2))
        os.makedirs(os.path.join(run_dir, "points"))
        # a result is only trusted together with its checksum sidecar
        for got, idx in ((0, 1), (1, 3)):
            for suffix in (".json", ".json.sha256"):
                os.rename(
                    os.path.join(str(tmp_path / "pre"), "points",
                                 f"point-{got:04d}{suffix}"),
                    os.path.join(run_dir, "points",
                                 f"point-{idx:04d}{suffix}"))
        summary = run_supervised_sweep(pts, run_dir, _sup(jobs=4))
        assert summary["skipped"] == 2
        assert summary["completed"] == 4
        assert summary["failures"] == []
        rows = [r["row"]["offered"] for r in summary["results"]]
        assert rows == sorted(rows)
        assert first["failures"] == []

    def test_resume_honours_jobs_override(self, tmp_path):
        pts = self._grid(n=2)
        run_dir = str(tmp_path / "run")
        run_supervised_sweep(pts[:1], run_dir, _sup(jobs=1))
        # sweep.json only recorded one point; grow it to the full grid
        # through the sanctioned amendment path (hand-editing the file
        # trips its integrity hash by design — see TestResumeValidation)
        amend_sweep_points(run_dir, pts)
        summary = resume_sweep(run_dir, jobs=4)
        assert summary["skipped"] == 1
        assert summary["completed"] == 2


class TestResumeValidation:
    """``resume_sweep`` must refuse specs it cannot trust (satellite:
    manifest config-hash + schema validation with clear errors)."""

    def _ran(self, tmp_path):
        run_dir = str(tmp_path / "run")
        run_supervised_sweep(_points(), run_dir, _sup())
        return run_dir

    def test_hand_edited_sweep_json_refused(self, tmp_path):
        run_dir = self._ran(tmp_path)
        path = os.path.join(run_dir, "sweep.json")
        spec = json.load(open(path))
        spec["points"][0]["rate"] = 0.99
        json.dump(spec, open(path, "w"))
        with pytest.raises(SweepConfigError, match="integrity"):
            resume_sweep(run_dir)

    def test_truncated_sweep_json_refused(self, tmp_path):
        run_dir = self._ran(tmp_path)
        path = os.path.join(run_dir, "sweep.json")
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        with pytest.raises(SweepConfigError, match="integrity"):
            resume_sweep(run_dir)

    def test_unsupported_schema_refused(self, tmp_path):
        run_dir = self._ran(tmp_path)
        path = os.path.join(run_dir, "sweep.json")
        spec = store.read_json_self_hashed(path)
        spec["schema"] = 1
        store.write_json_self_hashed(path, spec)
        with pytest.raises(SweepConfigError, match="schema"):
            resume_sweep(run_dir)

    def test_stale_config_hash_refused(self, tmp_path):
        # intact self-hash but a config_hash that no longer matches the
        # recorded points: the spec was swapped wholesale, refuse it
        run_dir = self._ran(tmp_path)
        path = os.path.join(run_dir, "sweep.json")
        spec = store.read_json_self_hashed(path)
        spec["points"][0]["rate"] = 0.99   # config_hash left stale
        store.write_json_self_hashed(path, spec)
        with pytest.raises(SweepConfigError, match="config hash"):
            resume_sweep(run_dir)

    def test_foreign_run_dir_refused(self, tmp_path):
        # launching a *different* grid into an existing run directory
        # must fail loudly, not silently mis-skip points
        run_dir = self._ran(tmp_path)
        other = _points()
        other[0]["rate"] = 0.42
        with pytest.raises(SweepConfigError, match="different config"):
            run_supervised_sweep(other, run_dir, _sup())

    def test_amended_spec_resumes(self, tmp_path):
        run_dir = self._ran(tmp_path)
        pts = _points(n_extra=1)
        amend_sweep_points(run_dir, pts)
        summary = resume_sweep(run_dir)
        assert summary["skipped"] == 1      # original point still valid
        assert summary["completed"] == 2


class TestCorruptionResume:
    """Resume after artifact corruption: detect, re-run, converge
    (parametrized over serial and parallel resume)."""

    def _grid(self):
        # trace + metrics per point: the sidecar then covers artifact
        # files as well as the result row
        pts = build_sweep_points(["packet_vc4"], "uniform_random",
                                 [0.1, 0.2], width=3, height=3,
                                 slot_table_size=32, warmup=150,
                                 measure=150, trace=True, metrics=True)
        return pts

    def _run(self, tmp_path):
        run_dir = str(tmp_path / "run")
        summary = run_supervised_sweep(self._grid(), run_dir, _sup())
        assert summary["failures"] == []
        return run_dir, [r["row"] for r in summary["results"]]

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_truncated_manifest_rebuilt(self, tmp_path, jobs):
        run_dir, rows = self._run(tmp_path)
        path = os.path.join(run_dir, "manifest.json")
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 3])
        summary = resume_sweep(run_dir, jobs=jobs)
        # nothing re-ran: the per-point files still validate, and the
        # corrupt manifest was quarantined and rebuilt from them
        assert summary["skipped"] == 2
        assert os.path.exists(path + ".corrupt")
        rebuilt = store.read_json_self_hashed(path)
        assert rebuilt["completed"] == 2
        assert [r["row"] for r in summary["results"]] == rows

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_bitflipped_result_rerun(self, tmp_path, jobs):
        run_dir, rows = self._run(tmp_path)
        path = os.path.join(run_dir, "points", "point-0001.json")
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0x10
        open(path, "wb").write(bytes(data))
        assert validate_result(run_dir, 1)[0] is None
        summary = resume_sweep(run_dir, jobs=jobs)
        assert summary["skipped"] == 1      # point 0 untouched
        assert summary["completed"] == 2    # point 1 re-ran
        assert [r["row"] for r in summary["results"]] == rows
        assert validate_result(run_dir, 1)[0] is not None

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_missing_trace_sidecar_rerun(self, tmp_path, jobs):
        run_dir, rows = self._run(tmp_path)
        os.remove(os.path.join(run_dir, "points",
                               "point-0000.trace.jsonl"))
        data, reason = validate_result(run_dir, 0)
        assert data is None and "missing artifact" in reason
        summary = resume_sweep(run_dir, jobs=jobs)
        assert summary["skipped"] == 1
        assert summary["completed"] == 2
        assert [r["row"] for r in summary["results"]] == rows
        assert os.path.exists(os.path.join(run_dir, "points",
                                           "point-0000.trace.jsonl"))


class _LostExitExecutor(LocalProcessExecutor):
    """A transport that never observes worker exits (host loss): the
    supervisor can only make progress through lease expiry."""

    def poll(self, handle):
        return WorkerStatus.LOST

    def wait_any(self, handles, timeout):
        time.sleep(min(timeout, 0.05))


class TestLeaseExpiry:
    def _sup(self, **kw):
        return _sup(jobs=2, max_retries=3, lease_ttl_s=1.0,
                    heartbeat_interval_s=0.2, **kw)

    def test_sigkilled_worker_reclaimed_and_rerun(self, tmp_path):
        """SIGKILL a real subprocess worker mid-point; its lease must
        expire, the point re-run, and the results match a clean run."""
        pts = _points(n_extra=1)
        ref = run_supervised_sweep(pts, str(tmp_path / "ref"), _sup())

        run_dir = str(tmp_path / "run")
        killed = []

        def killer():
            deadline = time.time() + 30
            while not killed and time.time() < deadline:
                lease = store.read_json(lease_path(run_dir, 0))
                if lease and lease.get("pid"):
                    try:
                        os.kill(int(lease["pid"]), signal.SIGKILL)
                        killed.append(int(lease["pid"]))
                    except OSError:
                        pass
                time.sleep(0.02)

        thread = threading.Thread(target=killer)
        thread.start()
        summary = run_supervised_sweep(pts, run_dir, self._sup(),
                                       executor=_LostExitExecutor())
        thread.join()
        assert killed, "the killer never saw a leased worker"
        assert summary["completed"] == 2
        assert summary["failures"] == []
        assert [r["row"] for r in summary["results"]] \
            == [r["row"] for r in ref["results"]]
        manifest = store.read_json_self_hashed(
            os.path.join(run_dir, "manifest.json"))
        assert manifest["points"]["0"]["attempts"] >= 2, \
            "the killed point must have been re-executed"

    def test_wedged_worker_expires(self, tmp_path):
        """A worker that stays alive but stops heartbeating (stuck in
        uninterruptible IO, say) is reclaimed by lease expiry alone."""
        pts = _points()
        pts[0]["_test_fail"] = "wedge_once"
        summary = run_supervised_sweep(pts, str(tmp_path / "run"),
                                       self._sup())
        assert summary["completed"] == 1
        assert summary["failures"] == []
        manifest = store.read_json_self_hashed(
            os.path.join(str(tmp_path / "run"), "manifest.json"))
        assert manifest["points"]["0"]["attempts"] == 2

    def test_lease_ttl_zero_disables_expiry(self, tmp_path):
        # with expiry disabled the hang must fall back to the timeout
        pts = _points()
        pts[0]["_test_fail"] = "hang"
        summary = run_supervised_sweep(
            pts, str(tmp_path / "run"),
            _sup(timeout_s=1.5, max_retries=0, lease_ttl_s=0.0,
                 heartbeat_interval_s=0.2))
        assert summary["failures"][0]["outcome"] == "timeout"


class TestQuarantine:
    def test_poison_point_quarantined_with_evidence(self, tmp_path):
        pts = _points(n_extra=1)
        pts[0]["_test_fail"] = "crash"
        run_dir = str(tmp_path / "run")
        summary = run_supervised_sweep(pts, run_dir,
                                       _sup(max_retries=1, jobs=2))
        failure = summary["failures"][0]
        assert failure["outcome"] == "crash"
        assert failure["attempts"] == 2
        # the healthy point completed: the sweep degraded, not died
        assert summary["completed"] == 1
        # evidence preserved: stderr tail inline + full copy on disk
        assert "injected crash" in failure["stderr_tail"]
        qdir = os.path.join(run_dir, failure["quarantine_dir"])
        assert os.path.exists(os.path.join(qdir, "stderr.txt"))
        # the failure manifest is atomic + self-hashed like the manifest
        failures_doc = store.read_json_self_hashed(
            os.path.join(run_dir, "failures.json"))
        assert failures_doc["failures"][0]["index"] == 0
        manifest = store.read_json_self_hashed(
            os.path.join(run_dir, "manifest.json"))
        assert manifest["points"]["0"]["status"] == "quarantined"

    def test_crash_once_recovers_on_retry(self, tmp_path):
        pts = _points()
        pts[0]["_test_fail"] = "crash_once"
        summary = run_supervised_sweep(pts, str(tmp_path / "run"),
                                       _sup(max_retries=2))
        assert summary["completed"] == 1
        assert summary["failures"] == []


class TestSweepControl:
    def test_cancel_kills_in_flight_workers(self, tmp_path):
        """cancel() is the deadline/cancel path: hung workers are
        killed now, nothing retries, and the summary says so."""
        from repro.harness.supervisor import SweepControl
        pts = build_sweep_points(["packet_vc4"], "uniform_random",
                                 [0.05, 0.1, 0.15], width=3, height=3,
                                 slot_table_size=32, warmup=200,
                                 measure=200)
        for p in pts:
            p["_test_fail"] = "hang"
        control = SweepControl()
        timer = threading.Timer(0.5, control.cancel)
        timer.start()
        start = time.monotonic()
        summary = run_supervised_sweep(pts, str(tmp_path / "run"),
                                       _sup(jobs=3), control=control)
        timer.join()
        assert time.monotonic() - start < 30.0
        assert summary["stopped"] == "cancelled"
        assert summary["completed"] == 0
        assert summary["remaining"] == 3
        assert summary["failures"] == []

    def test_yield_before_start_launches_nothing(self, tmp_path):
        from repro.harness.supervisor import SweepControl
        control = SweepControl()
        control.request_yield()
        pts = build_sweep_points(["packet_vc4"], "uniform_random",
                                 [0.05, 0.1, 0.15], width=3, height=3,
                                 slot_table_size=32, warmup=200,
                                 measure=200)
        summary = run_supervised_sweep(pts, str(tmp_path / "run"),
                                       _sup(), control=control)
        assert summary["stopped"] == "preempted"
        assert summary["completed"] == 0
        assert summary["remaining"] == 3

    def test_yield_finishes_in_flight_point_then_stops(self, tmp_path):
        """request_yield() is QoS preemption: the slot is handed back
        between points, never mid-point, and the untouched points stay
        runnable afterwards."""
        from repro.harness.supervisor import SweepControl
        pts = build_sweep_points(["packet_vc4"], "uniform_random",
                                 [0.05, 0.1, 0.15], width=3, height=3,
                                 slot_table_size=32, warmup=300,
                                 measure=20000)
        run_dir = str(tmp_path / "run")
        control = SweepControl()
        timer = threading.Timer(0.3, control.request_yield)
        timer.start()
        summary = run_supervised_sweep(pts, run_dir, _sup(jobs=1),
                                       control=control)
        timer.join()
        assert summary["stopped"] == "preempted"
        assert summary["failures"] == []
        # whatever was in flight at yield time finished cleanly...
        assert summary["completed"] >= 1
        assert summary["remaining"] >= 1
        assert summary["completed"] + summary["remaining"] == 3
        # ...and a later scheduling of the same sweep picks up only the
        # remainder (completed points skip on checksum validation)
        done = run_supervised_sweep(pts, run_dir, _sup(jobs=1))
        assert done["stopped"] is None
        assert done["skipped"] == summary["completed"]
        assert done["completed"] == 3       # includes the skipped points
        assert len(load_results(run_dir)) == 3


class TestRunnerCheckpointResume:
    def test_checkpointed_rerun_matches_uninterrupted(self, tmp_path):
        kw = dict(warmup=200, measure=300, seed=3, width=3, height=3,
                  slot_table_size=32)
        ref = run_synthetic("hybrid_tdm_vc4", "transpose", 0.2, **kw)

        ckpt = str(tmp_path / "ckpt")
        first = run_synthetic("hybrid_tdm_vc4", "transpose", 0.2,
                              checkpoint_dir=ckpt, checkpoint_cycles=100,
                              **kw)
        assert os.listdir(ckpt), "no snapshots written"
        # second invocation resumes from the last snapshot (as after a
        # crash) and must land on the same results as the clean runs
        second = run_synthetic("hybrid_tdm_vc4", "transpose", 0.2,
                               checkpoint_dir=ckpt, checkpoint_cycles=100,
                               **kw)
        for run in (first, second):
            assert run.messages_delivered == ref.messages_delivered
            assert run.avg_latency == ref.avg_latency
            assert run.accepted == ref.accepted
            assert run.energy.total == ref.energy.total
