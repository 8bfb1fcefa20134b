"""Supervised sweep fabric: leases, checksums, retry, quarantine, resume.

Long sweeps (Fig. 4/5-style grids at ``REPRO_SCALE=4``) must survive
every failure class a long local run sees, not just the ones a parent
process can observe.  The supervisor runs each sweep point in a local
subprocess (:class:`~repro.harness.executor.LocalProcessExecutor`) and
owns each running point only through a **lease**:

* a point that completes writes its result *and a checksum sidecar*
  atomically; the checksums are recorded in the manifest and re-validated
  on resume — corrupt or truncated artifacts are detected and re-run,
  never silently loaded;
* a worker that dies **with** an exit status (crash, timeout) is retried
  with capped exponential backoff, exactly as before;
* a worker that stays alive but stops heartbeating (wedged) has its
  lease expire once the heartbeat goes stale past ``lease_ttl_s``: the
  worker is killed and the point is reclaimed and re-queued well before
  ``timeout_s`` — the run never wedges;
* a point that exhausts ``max_retries`` attempts — regardless of how
  each attempt failed — is **quarantined**: its last stderr and latest
  snapshot are preserved under ``quarantine/``, the failure manifest
  records them, and the sweep degrades gracefully to completion over
  the remaining points;
* a point that **livelocks** is permanent on first occurrence (it is
  deterministic): the partial result is kept, no retry.

``run_supervised_sweep`` skips points whose result file validates
(present, checksum-clean, produced by the same point spec), which makes
``resume_sweep`` (the ``repro resume <run-dir>`` command) safe after
any combination of crashes and corruption.  The chaos harness
(:mod:`repro.harness.chaos`) drives all of this under induced failure
and asserts the result is identical to an undisturbed serial run.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import CheckpointConfig, SupervisorConfig
from repro.harness import store
from repro.harness.executor import (LocalProcessExecutor, WorkerStatus,
                                    WorkSpec)

#: result-file status values
STATUS_OK = "ok"
STATUS_LIVELOCK = "livelock"

#: on-disk schema of sweep.json / manifest.json; bump on incompatible
#: layout changes (schema 1 = the pre-lease supervisor without checksums)
SWEEP_SCHEMA = 2

#: bytes of stderr preserved inline in a quarantine record
STDERR_TAIL_BYTES = 4096


class SweepConfigError(RuntimeError):
    """A run directory cannot be safely resumed under the given spec."""


# ---------------------------------------------------------------------------
# point specs and file layout
# ---------------------------------------------------------------------------
def build_sweep_points(schemes: Sequence[str], pattern: str,
                       rates: Sequence[float], seed: int = 1,
                       width: int = 6, height: int = 6,
                       slot_table_size: int = 128,
                       warmup: int = 1500,
                       measure: int = 4000,
                       trace: bool = False,
                       metrics: bool = False,
                       metrics_interval: int = 100,
                       engine: Optional[str] = None) -> List[Dict]:
    """The (scheme x rate) grid as plain-dict point specs.

    With ``trace``/``metrics`` set, every point's worker writes a
    structured trace (JSONL + Chrome format) and/or a metrics
    time-series dump next to its result file (same ``point-NNNN``
    stem, ``.trace.jsonl`` / ``.trace.chrome.json`` / ``.metrics.json``
    suffixes).  ``engine`` pins every point to one scheduler
    ("legacy"/"fast"); None lets the worker use the process
    default."""
    point = {"warmup": warmup, "measure": measure, "seed": seed,
             "width": width, "height": height,
             "slot_table_size": slot_table_size}
    if engine is not None:
        point["engine"] = engine
    if trace:
        point["trace"] = True
    if metrics:
        point["metrics"] = True
        point["metrics_interval"] = metrics_interval
    return [dict(point, scheme=scheme, pattern=pattern, rate=float(rate))
            for scheme in schemes for rate in rates]


def _points_dir(run_dir: str) -> str:
    return os.path.join(run_dir, "points")


def _result_path(run_dir: str, index: int) -> str:
    return os.path.join(_points_dir(run_dir), f"point-{index:04d}.json")


def _sidecar_path(run_dir: str, index: int) -> str:
    return _result_path(run_dir, index) + ".sha256"


def _stderr_path(run_dir: str, index: int) -> str:
    return os.path.join(_points_dir(run_dir), f"point-{index:04d}.stderr")


def _ckpt_dir(run_dir: str, index: int) -> str:
    return os.path.join(run_dir, "ckpt", f"point-{index:04d}")


def _lease_dir(run_dir: str) -> str:
    return os.path.join(run_dir, "leases")


def lease_path(run_dir: str, index: int) -> str:
    """Lease record for an in-flight point (pid, attempt, grant time)."""
    return os.path.join(_lease_dir(run_dir), f"point-{index:04d}.lease.json")


def heartbeat_path(run_dir: str, index: int) -> str:
    return os.path.join(_lease_dir(run_dir), f"point-{index:04d}.hb")


def _quarantine_dir(run_dir: str, index: int) -> str:
    return os.path.join(run_dir, "quarantine", f"point-{index:04d}")


def _remove_quiet(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


# ---------------------------------------------------------------------------
# config hashing (what "the same sweep" means across resumes)
# ---------------------------------------------------------------------------
def point_spec_hash(point: Dict) -> str:
    """Canonical hash of one point's configuration.

    Keys starting with ``_`` (test hooks, chaos injection knobs) are
    excluded: they steer *how* an attempt is disturbed, never what the
    point computes — a chaos run and a clean run of the same grid must
    hash point-for-point equal.
    """
    spec = {k: point[k] for k in sorted(point) if not k.startswith("_")}
    return store.sha256_bytes(store.canonical_json(spec))


def sweep_config_hash(points: Sequence[Dict],
                      ckpt: CheckpointConfig) -> str:
    """Hash of everything that determines a sweep's results on disk."""
    return store.sha256_bytes(store.canonical_json({
        "schema": SWEEP_SCHEMA,
        "points": [point_spec_hash(p) for p in points],
        "checkpoint": dataclasses.asdict(ckpt),
    }))


# ---------------------------------------------------------------------------
# worker (runs in the subprocess; must be module-level for spawn)
# ---------------------------------------------------------------------------
def _run_to_row(run) -> Dict:
    row = {
        "scheme": run.scheme, "pattern": run.pattern,
        "offered": run.offered, "accepted": run.accepted,
        "avg_latency": run.avg_latency, "p99_latency": run.p99_latency,
        "cs_fraction": run.cs_fraction,
        "energy_total": run.energy.total,
        "energy_per_message_pj": run.energy_per_message_pj,
        "messages_delivered": run.messages_delivered,
        "cycles": run.cycles, "slot_wheel": run.slot_wheel,
        "note": run.note,
    }
    if run.state_hash:
        row["state_hash"] = run.state_hash
    return row


def _point_observability(point: Dict, out_path: str):
    """Observability bundle for one sweep point, or None.

    Output files share the result file's ``point-NNNN`` stem so every
    dump sits next to the JSON row it belongs to."""
    obs_trace = bool(point.get("trace"))
    if not (obs_trace or point.get("metrics")):
        return None
    from repro.obs import Observability
    stem = out_path[:-5] if out_path.endswith(".json") else out_path
    return Observability(
        trace_jsonl=stem + ".trace.jsonl" if obs_trace else None,
        trace_chrome=(stem + ".trace.chrome.json" if obs_trace else None),
        metrics_path=stem + ".metrics.json" if point.get("metrics") else None,
        sample_interval=point.get("metrics_interval", 100))


def run_worker(spec: WorkSpec) -> None:
    """Full worker entry: redirect stderr, heartbeat, chaos hooks, run.

    The executor's subprocess entry (:func:`executor._worker_entry`)
    calls this; everything here runs inside the worker process.
    """
    if spec.stderr_path:
        os.makedirs(os.path.dirname(os.path.abspath(spec.stderr_path)),
                    exist_ok=True)
        fd = os.open(spec.stderr_path,
                     os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(fd, 2)
        os.close(fd)
        # rebind the Python-level stream too: a forked worker inherits
        # whatever object the parent had in sys.stderr (pytest capture,
        # say), which does not necessarily write through fd 2
        sys.stderr = os.fdopen(2, "w", buffering=1, closefd=False)
    rate = spec.point.get("_chaos_diskfull")
    if rate:
        store.install_diskfull(
            float(rate),
            int(spec.point.get("_chaos_seed", 0)) ^ os.getpid())

    stop_hb = threading.Event()
    if spec.heartbeat_path:
        os.makedirs(os.path.dirname(os.path.abspath(spec.heartbeat_path)),
                    exist_ok=True)

        def _beat() -> None:
            seq = 0
            while True:
                try:
                    with open(spec.heartbeat_path, "w") as fh:
                        fh.write(f"{os.getpid()} {seq}\n")
                except OSError:
                    pass
                seq += 1
                if stop_hb.wait(spec.heartbeat_interval_s):
                    return

        threading.Thread(target=_beat, daemon=True,
                         name="lease-heartbeat").start()
    _worker_main(spec.point, spec.out_path, spec.ckpt_dir,
                 spec.checkpoint_cycles, stop_hb)


def _worker_main(point: Dict, out_path: str,
                 ckpt_dir: Optional[str],
                 checkpoint_cycles: int,
                 stop_hb: Optional[threading.Event] = None) -> None:
    """Execute one sweep point and write its result + checksum sidecar.

    The ``_test_fail`` key is a test hook: ``"crash"`` raises,
    ``"hang"`` sleeps past any timeout, ``"livelock"`` raises a
    LivelockError exactly as a watchdog would, ``"wedge"`` stops
    heartbeating while staying alive (a stuck-but-running worker), and
    the ``_once`` variants only fire on the first attempt (a marker
    file next to the result records that the hook already fired).
    """
    from repro.harness.runner import run_synthetic
    from repro.sim.kernel import LivelockError

    fail_mode = point.get("_test_fail")
    if fail_mode and fail_mode.endswith("_once"):
        marker = out_path + ".failed-once"
        if os.path.exists(marker):
            fail_mode = None
        else:
            with open(marker, "w") as fh:
                fh.write(fail_mode)
            fail_mode = fail_mode[:-len("_once")]
    if fail_mode == "crash":
        raise RuntimeError("injected crash (test hook)")
    if fail_mode == "hang":
        time.sleep(3600)
    if fail_mode == "wedge":
        if stop_hb is not None:
            stop_hb.set()
        time.sleep(3600)

    obs = _point_observability(point, out_path)
    status = STATUS_OK
    try:
        if fail_mode == "livelock":
            raise LivelockError(0, 1, 1, {"injected": True})
        run = run_synthetic(
            point["scheme"], point["pattern"], point["rate"],
            warmup=point.get("warmup", 1500),
            measure=point.get("measure", 4000),
            seed=point.get("seed", 1),
            width=point.get("width", 6), height=point.get("height", 6),
            slot_table_size=point.get("slot_table_size", 128),
            engine=point.get("engine"),
            checkpoint_dir=ckpt_dir,
            checkpoint_cycles=checkpoint_cycles,
            observability=obs, with_state_hash=True)
        row = _run_to_row(run)
        if run.failed:
            status = STATUS_LIVELOCK
    except LivelockError as exc:
        status = STATUS_LIVELOCK
        row = {"scheme": point["scheme"],
               "pattern": point.get("pattern"),
               "offered": point.get("rate"),
               "note": f"livelock@{exc.cycle}"}
    result = {"status": status, "point": point, "row": row}
    obs_paths: List[str] = []
    if obs is not None:
        result["obs"] = {k: v for k, v in (
            ("trace_jsonl", obs.trace_jsonl),
            ("trace_chrome", obs.trace_chrome),
            ("metrics", obs.metrics_path)) if v}
        obs_paths = list(result["obs"].values())

    # result first, checksum sidecar last: a crash in between leaves an
    # unsidecarred result that validation rejects and the supervisor
    # re-runs — never a sidecar vouching for bytes that were not written
    run_dir = os.path.dirname(os.path.dirname(os.path.abspath(out_path)))
    body = store.canonical_json(result)
    result_sha = store.sha256_bytes(body)
    store.write_bytes_atomic(out_path, body)
    artifacts = {
        os.path.relpath(p, run_dir): store.sha256_file(p)
        for p in obs_paths if os.path.exists(p)
    }
    store.write_json_atomic(_checksum_sidecar(out_path),
                            {"result": result_sha, "artifacts": artifacts})


def _checksum_sidecar(out_path: str) -> str:
    return out_path + ".sha256"


# ---------------------------------------------------------------------------
# result validation (the resume/corruption surface)
# ---------------------------------------------------------------------------
def validate_result(run_dir: str, index: int,
                    point: Optional[Dict] = None
                    ) -> Tuple[Optional[Dict], object]:
    """Validate the on-disk result for *index* against its checksums.

    Returns ``(result, sums)`` when the result file parses, matches its
    checksum sidecar, was produced by the same point spec as *point*
    (when given), and every recorded artifact is present with matching
    checksum.  Returns ``(None, reason)`` otherwise — the caller
    decides whether to discard and re-run.
    """
    path = _result_path(run_dir, index)
    data = store.read_json(path)
    if data is None:
        return None, ("missing" if not os.path.exists(path)
                      else "unparseable result")
    sums = store.read_json(_sidecar_path(run_dir, index))
    if not isinstance(sums, dict):
        return None, "missing checksum sidecar"
    # the worker always writes both keys; a sidecar missing either (a
    # bit flip can rename one) must not skip the checks it would carry
    if not isinstance(sums.get("result"), str) \
            or not isinstance(sums.get("artifacts"), dict):
        return None, "malformed checksum sidecar"
    if store.sha256_file(path) != sums["result"]:
        return None, "result checksum mismatch"
    if point is not None:
        recorded = data.get("point")
        if not isinstance(recorded, dict) \
                or point_spec_hash(recorded) != point_spec_hash(point):
            return None, "point spec mismatch (configuration changed)"
    for rel, sha in sums["artifacts"].items():
        apath = os.path.join(run_dir, rel)
        if not os.path.exists(apath):
            return None, f"missing artifact {rel}"
        if store.sha256_file(apath) != sha:
            return None, f"artifact checksum mismatch: {rel}"
    return data, sums


def _discard_result(run_dir: str, index: int) -> None:
    """Move a corrupt/stale result aside (kept as ``*.corrupt``) so the
    point re-runs; the evidence survives for post-mortems."""
    for path in (_result_path(run_dir, index), _sidecar_path(run_dir, index)):
        if os.path.exists(path):
            try:
                os.replace(path, path + ".corrupt")
            except OSError:
                _remove_quiet(path)


# ---------------------------------------------------------------------------
# supervisor
# ---------------------------------------------------------------------------
def _backoff_delay(sup: SupervisorConfig, attempt: int) -> float:
    return min(sup.backoff_cap_s,
               sup.backoff_s * (sup.backoff_factor ** attempt))


def _classify(timed_out: bool, expired: bool, result) -> str:
    """Outcome of one attempt, from its validated result (or None)."""
    if result is not None and result.get("status") == STATUS_OK:
        return "ok"
    if result is not None and result.get("status") == STATUS_LIVELOCK:
        return "livelock"
    if expired:
        return "lease_expired"
    return "timeout" if timed_out else "crash"


@dataclasses.dataclass
class _Lease:
    """Scheduler-side ownership record for one in-flight attempt."""

    handle: object
    attempts: int
    deadline: float        #: monotonic attempt-timeout deadline
    hb_path: str
    granted_wall: float    #: wall-clock grant time (heartbeat fallback)

    def heartbeat_age(self, now_wall: float) -> float:
        try:
            last = os.stat(self.hb_path).st_mtime
        except OSError:
            last = self.granted_wall
        # a slow-to-start worker is measured from its grant, never earlier
        return now_wall - max(last, self.granted_wall)


def _stderr_tail(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            fh.seek(0, os.SEEK_END)
            size = fh.tell()
            fh.seek(max(0, size - STDERR_TAIL_BYTES))
            return fh.read().decode("utf-8", "replace")
    except OSError:
        return ""


def _quarantine_point(run_dir: str, index: int, point: Dict, outcome: str,
                      attempts: int, ckpt_enabled: bool) -> Dict:
    """Preserve a poison point's evidence; returns its failure record."""
    entry: Dict = {"index": index, "point": dict(point),
                   "outcome": outcome, "attempts": attempts}
    qdir = _quarantine_dir(run_dir, index)
    os.makedirs(qdir, exist_ok=True)
    stderr = _stderr_path(run_dir, index)
    if os.path.exists(stderr):
        try:
            shutil.copyfile(stderr, os.path.join(qdir, "stderr.txt"))
            entry["stderr_sha256"] = store.sha256_file(stderr)
        except OSError:
            pass
        tail = _stderr_tail(stderr)
        if tail:
            entry["stderr_tail"] = tail
    if ckpt_enabled:
        cdir = _ckpt_dir(run_dir, index)
        try:
            snaps = sorted(n for n in os.listdir(cdir)
                           if n.startswith("ckpt-") and n.endswith(".rsnap"))
        except OSError:
            snaps = []
        if snaps:
            try:
                shutil.copyfile(os.path.join(cdir, snaps[-1]),
                                os.path.join(qdir, snaps[-1]))
                entry["snapshot"] = os.path.relpath(
                    os.path.join(qdir, snaps[-1]), run_dir)
            except OSError:
                pass
    entry["quarantine_dir"] = os.path.relpath(qdir, run_dir)
    return entry


def _load_existing_manifest(run_dir: str, cfg_hash: str) -> Dict:
    """Validate any pre-existing manifest against the incoming sweep.

    * missing → fresh run, empty records;
    * fails its own integrity hash (truncated, bit-flipped, schema-1
      legacy) → quarantined as ``manifest.json.corrupt`` and rebuilt
      from the per-point files, which carry their own checksums;
    * intact but written for a *different* configuration → hard
      :class:`SweepConfigError` — resuming someone else's run directory
      must fail loudly, not silently re-run or mis-skip points.
    """
    path = os.path.join(run_dir, "manifest.json")
    existing = store.read_json_self_hashed(path, quarantine=True)
    if existing is None:
        return {}
    schema = existing.get("schema")
    if schema != SWEEP_SCHEMA:
        raise SweepConfigError(
            f"{path}: manifest schema {schema!r} is not the supported "
            f"schema {SWEEP_SCHEMA}")
    if existing.get("config_hash") != cfg_hash:
        raise SweepConfigError(
            f"{path}: manifest config hash "
            f"{str(existing.get('config_hash'))[:16]}... does not match "
            f"this sweep's configuration {cfg_hash[:16]}... — refusing to "
            f"resume points under a different configuration")
    points = existing.get("points")
    return dict(points) if isinstance(points, dict) else {}


def run_supervised_sweep(points: Sequence[Dict], run_dir: str,
                         sup: Optional[SupervisorConfig] = None,
                         ckpt: Optional[CheckpointConfig] = None,
                         progress=None,
                         executor: Optional[LocalProcessExecutor] = None
                         ) -> Dict:
    """Run every point under supervision; returns the sweep summary.

    Up to ``sup.jobs`` points run concurrently (0 means one per CPU)
    behind *executor* (default: local subprocesses).  Retry, timeout,
    lease-expiry and backoff semantics are per point and identical to a
    serial run.  Results live in per-index files with checksum
    sidecars; the manifest and summary are ordered by point index
    regardless of completion order.

    Already-completed points whose results *validate* (checksum-clean,
    same point spec) are skipped, so calling this again on the same
    directory resumes a killed sweep; corrupt or stale results are
    moved aside and re-run.  The manifest and the failure manifest are
    rewritten atomically (with embedded integrity hashes) after every
    point finalisation, so they are always consistent on disk.
    """
    sup = sup or SupervisorConfig(enabled=True)
    ckpt = ckpt or CheckpointConfig()
    executor = executor or LocalProcessExecutor()
    os.makedirs(run_dir, exist_ok=True)
    cfg_hash = sweep_config_hash(points, ckpt)
    records: Dict[str, Dict] = _load_existing_manifest(run_dir, cfg_hash)
    store.write_json_self_hashed(os.path.join(run_dir, "sweep.json"), {
        "schema": SWEEP_SCHEMA,
        "config_hash": cfg_hash,
        "points": list(points),
        "supervisor": dataclasses.asdict(sup),
        "checkpoint": dataclasses.asdict(ckpt),
    })

    # stale leases from a previous (crashed) supervisor: no worker of
    # ours holds them; orphaned workers, if any, write deterministic
    # bytes atomically and are therefore harmless double-writers
    if os.path.isdir(_lease_dir(run_dir)):
        for name in os.listdir(_lease_dir(run_dir)):
            _remove_quiet(os.path.join(_lease_dir(run_dir), name))

    jobs = sup.jobs if sup.jobs > 0 else (os.cpu_count() or 1)
    failures: List[Dict] = []
    completed = 0
    skipped = 0
    pending: List[int] = []          # fresh points, index order
    for index in range(len(points)):
        data, sums = validate_result(run_dir, index, points[index])
        if data is not None:
            skipped += 1
            completed += 1
            old = records.get(str(index), {})
            records[str(index)] = {
                "status": data["status"],
                "attempts": old.get("attempts", 1),
                "sha256": sums["result"],
                "artifacts": sums["artifacts"],
            }
        else:
            _discard_result(run_dir, index)
            records.pop(str(index), None)
            pending.append(index)
    pending.reverse()                # pop() from the tail = lowest index
    active: Dict[int, _Lease] = {}
    waiting: List[Dict] = []         # backoff queue: {resume, index, attempts}

    def _launch(index: int, attempts: int) -> None:
        hb = heartbeat_path(run_dir, index)
        _remove_quiet(hb)
        spec = WorkSpec(
            index=index, point=dict(points[index]),
            out_path=_result_path(run_dir, index),
            ckpt_dir=_ckpt_dir(run_dir, index) if ckpt.enabled else None,
            checkpoint_cycles=ckpt.interval_cycles if ckpt.enabled else 0,
            heartbeat_path=hb,
            heartbeat_interval_s=sup.heartbeat_interval_s,
            stderr_path=_stderr_path(run_dir, index))
        handle = executor.submit(spec)
        now_wall = time.time()
        store.write_json_atomic(lease_path(run_dir, index), {
            "index": index, "attempt": attempts,
            "pid": executor.pid(handle),
            "lease_ttl_s": sup.lease_ttl_s,
            "granted_unix": now_wall,
        })
        active[index] = _Lease(
            handle=handle, attempts=attempts, hb_path=hb,
            deadline=time.monotonic() + sup.timeout_s,
            granted_wall=now_wall)

    def _fill_slots() -> None:
        # backoff-expired retries launch before fresh points: a point
        # already attempted should not starve behind the rest of the grid
        now = time.monotonic()
        waiting.sort(key=lambda w: (w["resume"], w["index"]))
        while waiting and len(active) < jobs \
                and waiting[0]["resume"] <= now:
            entry = waiting.pop(0)
            _launch(entry["index"], entry["attempts"] + 1)
        while pending and len(active) < jobs:
            _launch(pending.pop(), 1)

    def _release_lease(index: int) -> None:
        _remove_quiet(lease_path(run_dir, index))
        _remove_quiet(heartbeat_path(run_dir, index))

    def _write_manifest() -> None:
        store.write_json_self_hashed(os.path.join(run_dir, "manifest.json"), {
            "schema": SWEEP_SCHEMA,
            "config_hash": cfg_hash,
            "total_points": len(points),
            "completed": completed,
            "points": records,
            "failures": sorted(failures, key=lambda f: f["index"]),
        })

    def _write_failure_manifest() -> None:
        # same atomicity + integrity discipline as the main manifest: a
        # crash during finalisation can never leave half-written JSON
        store.write_json_self_hashed(os.path.join(run_dir, "failures.json"), {
            "schema": SWEEP_SCHEMA,
            "config_hash": cfg_hash,
            "failures": sorted(failures, key=lambda f: f["index"]),
        })

    while pending or waiting or active:
        now = time.monotonic()
        _fill_slots()

        now_wall = time.time()
        for index in sorted(active):
            lease = active[index]
            timed_out = expired = False
            if executor.poll(lease.handle) is not WorkerStatus.EXITED:
                if sup.lease_ttl_s > 0 \
                        and lease.heartbeat_age(now_wall) > sup.lease_ttl_s:
                    expired = True       # alive but no longer heartbeating
                elif now >= lease.deadline:
                    timed_out = True
                else:
                    continue
                executor.kill(lease.handle)
            executor.reap(lease.handle)
            _release_lease(index)
            del active[index]
            result, sums = validate_result(run_dir, index, points[index])
            outcome = _classify(timed_out, expired, result)
            attempts = lease.attempts
            if outcome not in ("ok", "livelock"):
                _discard_result(run_dir, index)  # clear corrupt partials
                if attempts <= sup.max_retries:
                    # transient failure: re-queue with capped backoff
                    waiting.append({
                        "resume": now + _backoff_delay(sup, attempts - 1),
                        "index": index, "attempts": attempts})
                    continue
            if progress is not None:
                progress(index, points[index], outcome, attempts)
            if outcome in ("ok", "livelock"):
                completed += 1
                records[str(index)] = {
                    "status": result["status"], "attempts": attempts,
                    "sha256": sums["result"],
                    "artifacts": sums["artifacts"],
                }
            if outcome != "ok":
                if outcome == "livelock":
                    failures.append({
                        "index": index, "point": dict(points[index]),
                        "outcome": outcome, "attempts": attempts})
                else:
                    # poison point: retries exhausted across any mix of
                    # failure classes — quarantine and keep going
                    failures.append(_quarantine_point(
                        run_dir, index, points[index], outcome, attempts,
                        ckpt.enabled))
                    records[str(index)] = {"status": "quarantined",
                                           "attempts": attempts,
                                           "outcome": outcome}
                _write_failure_manifest()
            _write_manifest()

        # refill the slots freed by this pass before blocking, so they
        # do not sit empty until the next wake
        _fill_slots()

        if active:
            # wake on a worker exit, the next deadline/retry, or (capped
            # at 1 s) the next heartbeat-staleness check
            horizon = min(lease.deadline for lease in active.values())
            if waiting:
                horizon = min(horizon, min(w["resume"] for w in waiting))
            timeout = max(0.0, min(horizon - time.monotonic(), 1.0))
            executor.wait_any([lease.handle for lease in active.values()],
                              timeout)
        elif waiting:
            resume = min(w["resume"] for w in waiting)
            delay = resume - time.monotonic()
            if delay > 0:
                time.sleep(delay)

    # final manifests even when every point was skipped
    _write_manifest()
    if failures:
        _write_failure_manifest()
    failures.sort(key=lambda f: f["index"])
    return {"total": len(points), "completed": completed,
            "skipped": skipped, "failures": failures,
            # always None: kept because existing callers read the key
            "stopped": None,
            "results": load_results(run_dir)}


def resume_sweep(run_dir: str, jobs: Optional[int] = None) -> Dict:
    """Pick up a killed supervised sweep where it left off.

    The recorded spec is validated before any point runs: ``sweep.json``
    must pass its own integrity hash, carry a supported schema version,
    and its stored config hash must match a recomputation from its
    contents — otherwise a :class:`SweepConfigError` explains exactly
    what diverged instead of silently resuming points under a different
    configuration.  *jobs*, when given, overrides the concurrency
    recorded in ``sweep.json`` (the machine resuming the sweep may not
    be the one that started it).
    """
    path = os.path.join(run_dir, "sweep.json")
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"{run_dir}: no sweep.json — not a supervised-sweep directory")
    try:
        spec = store.read_json_self_hashed(path)
    except store.StoreCorruptError as exc:
        raise SweepConfigError(
            f"{path}: failed integrity validation ({exc}); the file is "
            f"corrupt, hand-edited, or predates sweep schema "
            f"{SWEEP_SCHEMA} — re-launch the sweep instead of resuming"
        ) from exc
    schema = spec.get("schema")
    if schema != SWEEP_SCHEMA:
        raise SweepConfigError(
            f"{path}: sweep schema {schema!r} is not the supported "
            f"schema {SWEEP_SCHEMA}")
    sup = SupervisorConfig(**spec["supervisor"])
    ckpt = CheckpointConfig(**spec["checkpoint"])
    recomputed = sweep_config_hash(spec["points"], ckpt)
    if spec.get("config_hash") != recomputed:
        raise SweepConfigError(
            f"{path}: stored config hash "
            f"{str(spec.get('config_hash'))[:16]}... does not match its "
            f"own contents ({recomputed[:16]}...) — the sweep spec was "
            f"modified; use amend_sweep_points() for deliberate changes")
    if jobs is not None:
        sup = dataclasses.replace(sup, jobs=jobs)
    return run_supervised_sweep(spec["points"], run_dir, sup, ckpt)


def amend_sweep_points(run_dir: str, points: Sequence[Dict]) -> None:
    """Deliberately replace the recorded point grid of a run directory.

    This is the sanctioned way to grow/correct a sweep spec (hashes are
    recomputed); editing ``sweep.json`` by hand trips the integrity
    validation in :func:`resume_sweep` by design.  Existing results
    whose point specs no longer match are re-run on the next resume.
    """
    path = os.path.join(run_dir, "sweep.json")
    spec = store.read_json_self_hashed(path)
    if spec is None:
        raise FileNotFoundError(
            f"{run_dir}: no sweep.json — not a supervised-sweep directory")
    ckpt = CheckpointConfig(**spec["checkpoint"])
    spec["points"] = list(points)
    spec["config_hash"] = sweep_config_hash(points, ckpt)
    store.write_json_self_hashed(path, spec)
    # the manifest's hash must follow, or the next run would refuse it
    mpath = os.path.join(run_dir, "manifest.json")
    try:
        manifest = store.read_json_self_hashed(mpath)
    except store.StoreCorruptError:
        manifest = None
    if manifest is not None:
        manifest["config_hash"] = spec["config_hash"]
        manifest["total_points"] = len(points)
        store.write_json_self_hashed(mpath, manifest)


def load_results(run_dir: str) -> List[Dict]:
    """All point results present in *run_dir*, in point order."""
    out: List[Dict] = []
    pdir = _points_dir(run_dir)
    if not os.path.isdir(pdir):
        return out
    for name in sorted(os.listdir(pdir)):
        # exactly point-NNNN.json — metric/trace dumps share the stem
        # (point-NNNN.metrics.json etc.) and are not result rows
        if (name.startswith("point-") and name.endswith(".json")
                and name[len("point-"):-len(".json")].isdigit()):
            data = store.read_json(os.path.join(pdir, name))
            if data is not None:
                out.append(data)
    return out
