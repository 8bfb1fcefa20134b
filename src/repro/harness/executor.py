"""Local worker processes for the sweep fabric.

The supervisor (:mod:`repro.harness.supervisor`) never touches process
objects directly: it submits :class:`WorkSpec` descriptions to a
:class:`LocalProcessExecutor`, one subprocess per point attempt, and
from then on owns only a *lease* on the point.  Exits are observed
through process sentinels; a worker that stays alive but stops
heartbeating is caught by lease expiry instead.  Workers are only ever
killed one handle at a time, by the supervisor that launched them.
"""

from __future__ import annotations

import enum
import multiprocessing
import multiprocessing.connection
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence


class WorkerStatus(enum.Enum):
    RUNNING = "running"
    EXITED = "exited"


@dataclass
class WorkSpec:
    """Everything an executor needs to run one sweep-point attempt."""

    index: int
    point: Dict
    out_path: str                    #: result JSON destination
    ckpt_dir: Optional[str]          #: per-point snapshot dir (or None)
    checkpoint_cycles: int
    heartbeat_path: Optional[str] = None
    heartbeat_interval_s: float = 1.0
    stderr_path: Optional[str] = None


def _worker_entry(spec: WorkSpec) -> None:
    """Subprocess entry point (module-level so spawn can import it)."""
    from repro.harness.supervisor import run_worker
    run_worker(spec)


class LocalProcessExecutor:
    """One local subprocess per attempt (fork where available).

    Handles returned by :meth:`submit` are opaque to the supervisor;
    every other method takes them back.  :meth:`kill` and :meth:`reap`
    are idempotent and safe on workers that already exited — reclaim
    paths call them unconditionally.
    """

    def __init__(self, context: Optional[str] = None) -> None:
        if context is None:
            try:
                self._ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                self._ctx = multiprocessing.get_context("spawn")
        else:
            self._ctx = multiprocessing.get_context(context)

    def submit(self, spec: WorkSpec):
        proc = self._ctx.Process(target=_worker_entry, args=(spec,))
        proc.start()
        return proc

    def poll(self, handle) -> WorkerStatus:
        try:
            alive = handle.is_alive()
        except ValueError:               # handle already reaped (closed)
            alive = False
        return WorkerStatus.RUNNING if alive else WorkerStatus.EXITED

    def kill(self, handle) -> None:
        try:
            if not handle.is_alive():
                return
            handle.terminate()
            handle.join(5.0)
            if handle.is_alive():  # pragma: no cover - stuck in syscall
                handle.kill()
        except ValueError:               # already reaped: nothing to kill
            pass

    def reap(self, handle) -> None:
        """Release the process object of a finished/killed handle."""
        try:
            handle.join()
            handle.close()
        except ValueError:               # second reap: already closed
            pass

    def pid(self, handle) -> Optional[int]:
        """Worker OS pid (used by lease files and chaos), None once
        reaped."""
        try:
            return handle.pid
        except ValueError:  # pragma: no cover - reaped handle
            return None

    def wait_any(self, handles: Sequence, timeout: float) -> None:
        """Block until some worker exits or *timeout* passes."""
        sentinels = []
        for handle in handles:
            try:
                sentinels.append(handle.sentinel)
            except ValueError:  # pragma: no cover - already closed
                pass
        if sentinels:
            multiprocessing.connection.wait(sentinels,
                                            max(0.0, timeout))
        elif timeout > 0:  # pragma: no cover - no active handles
            time.sleep(min(timeout, 0.05))
