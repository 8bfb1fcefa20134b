"""Checksum-validated artifact writes for sweeps.

Every durable file the sweep fabric produces — point results, trace /
metrics sidecars, manifests — goes through this module so that one
discipline applies everywhere:

* **atomic + durable writes**: tmp file + flush + fsync + rename +
  directory fsync (shared with the snapshot layer,
  :func:`repro.sim.checkpoint.atomic_write_bytes`) — a crash never
  leaves a half-written file under a final name;
* **checksums**: canonical SHA-256 (:func:`sha256_bytes` /
  :func:`sha256_file`) recorded next to, and inside, the manifests so
  corruption is *detected* on resume instead of silently loaded, and
  the point is discarded and re-run.

The module also hosts the **disk-full chaos hook**: a worker process
may call :func:`install_diskfull` to make a seeded fraction of atomic
writes fail with ``ENOSPC`` *after* spilling a partial tmp file —
exactly the failure shape of a full disk.  The hook is process-local
(installed only inside chaos workers) and never touches the final
renamed name, so the atomicity contract holds even under injection.
"""

from __future__ import annotations

import errno
import json
import os
import random
from typing import Dict, Optional

from repro.sim.checkpoint import (atomic_write_bytes, sha256_bytes,
                                  sha256_file)

__all__ = [
    "StoreCorruptError", "canonical_json",
    "install_diskfull", "read_json", "sha256_bytes", "sha256_file",
    "write_bytes_atomic", "write_json_atomic",
]


class StoreCorruptError(RuntimeError):
    """An artifact failed checksum validation."""


# ---------------------------------------------------------------------------
# canonical JSON + atomic writers
# ---------------------------------------------------------------------------
def canonical_json(obj) -> bytes:
    """The one JSON encoding used for hashed artifacts (sorted keys,
    2-space indent, trailing newline) — byte-stable across processes."""
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


#: process-local disk-full injection state: (rate, rng) or None
_diskfull = None


def install_diskfull(rate: float, seed: int) -> None:
    """Arm the ENOSPC chaos hook for this process (0 disarms)."""
    global _diskfull
    _diskfull = (rate, random.Random(seed)) if rate > 0 else None


def write_bytes_atomic(path: str, data: bytes) -> str:
    """Atomic durable write; returns the hex SHA-256 of *data*.

    With the disk-full hook armed, a seeded fraction of calls raises
    ``OSError(ENOSPC)`` after leaving a truncated ``*.tmp`` spill —
    the final *path* is never created or modified by a failed write.
    """
    if _diskfull is not None:
        rate, rng = _diskfull
        if rng.random() < rate:
            os.makedirs(os.path.dirname(os.path.abspath(path)),
                        exist_ok=True)
            with open(path + ".tmp", "wb") as fh:  # partial spill
                fh.write(data[: max(1, len(data) // 3)])
            raise OSError(errno.ENOSPC, "injected disk full (chaos hook)",
                          path)
    atomic_write_bytes(path, data)
    return sha256_bytes(data)


def write_json_atomic(path: str, obj) -> str:
    """Atomically write *obj* as canonical JSON; returns its SHA-256."""
    return write_bytes_atomic(path, canonical_json(obj))


def read_json(path: str):
    """Parse a JSON file, or None when missing/unreadable/corrupt."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# -- self-hashed documents (manifests) --------------------------------------
SELF_HASH_KEY = "self_sha256"


def write_json_self_hashed(path: str, obj: Dict) -> str:
    """Write *obj* with an embedded integrity hash over its content.

    The hash covers the canonical encoding of the document without the
    ``self_sha256`` field, so any later bit flip or truncation is
    detectable by :func:`read_json_self_hashed` without external state.
    """
    body = {k: v for k, v in obj.items() if k != SELF_HASH_KEY}
    digest = sha256_bytes(canonical_json(body))
    return write_json_atomic(path, dict(body, **{SELF_HASH_KEY: digest}))


def read_json_self_hashed(path: str,
                          quarantine: bool = False) -> Optional[Dict]:
    """Read a self-hashed document.

    Returns the dict when present and intact, None when the file is
    missing, and raises :class:`StoreCorruptError` when it parses but
    its embedded hash does not match (bit flip, foreign edit) or the
    hash field is absent.  Unparseable files also raise — a manifest
    that exists but cannot be trusted must never be silently used.

    With ``quarantine`` set, a corrupt document is moved aside as
    ``<path>.corrupt`` (evidence preserved) and None is returned
    instead of raising — the shape callers want when a corrupt record
    should be rebuilt rather than abort the operation.
    """
    if not os.path.exists(path):
        return None
    data = read_json(path)
    if data is None or not isinstance(data, dict):
        return _corrupt(path, f"{path}: unparseable", quarantine)
    stored = data.get(SELF_HASH_KEY)
    body = {k: v for k, v in data.items() if k != SELF_HASH_KEY}
    if stored != sha256_bytes(canonical_json(body)):
        return _corrupt(path, f"{path}: self-hash mismatch", quarantine)
    return data


def _corrupt(path: str, message: str, quarantine: bool) -> None:
    if not quarantine:
        raise StoreCorruptError(message)
    try:
        os.replace(path, path + ".corrupt")
    except OSError:  # pragma: no cover - raced deletion
        pass
    return None
