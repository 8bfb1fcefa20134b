"""Crash-safe snapshots and deterministic-replay hashing.

This module turns the kernel's reproducibility contract ("runs are
exactly reproducible", :mod:`repro.sim.kernel`) into checkable
machinery:

``capture_state``
    Collects the full mutable state of a (``Simulator``, ``Network``)
    pair through the component :meth:`state_dict` protocol, plus the
    module-level id counters, and *freezes* it with a single pickle
    round-trip.  The single pass is essential: a flit can sit in a link
    pipe while its packet is tracked by the source NI and its connection
    record lives in two manager dicts — one pickling pass preserves all
    of that sharing, per-component copies would not.

``restore_state``
    Loads a captured tree onto a freshly *rebuilt* simulator/network
    pair (same config, same seed, same construction path).  Wiring —
    links, callbacks, shared controller references — is never
    serialized; it is recreated by construction and only mutable state
    is overwritten.  The RNG bit-generator state is restored in place so
    every component holding ``sim.rng`` keeps a valid reference.

``state_hash``
    A canonical SHA-256 over a captured tree.  Two trees hash equal iff
    they are structurally identical (including object-sharing topology),
    which is what the ``repro verify-replay`` command and the property
    tests compare.

``save_snapshot`` / ``load_snapshot`` / ``CheckpointManager``
    On-disk format with a checksummed header, atomic tmp-file + rename
    writes, corruption detection on load and automatic fallback to the
    previous good snapshot.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
from collections import deque
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

#: bump when the capture tree layout changes incompatibly
SNAPSHOT_VERSION = 3

#: file magic; the trailing newline keeps the header line-oriented
MAGIC = b"RSNP1\n"


class SnapshotError(RuntimeError):
    """Base error for snapshot serialization problems."""


class SnapshotCorruptError(SnapshotError):
    """A snapshot file failed validation (magic/header/checksum)."""


# ---------------------------------------------------------------------------
# checksum / durable-write surface (shared with repro.harness.store)
# ---------------------------------------------------------------------------
def sha256_bytes(data: bytes) -> str:
    """Hex SHA-256 of *data* — the checksum used everywhere on disk."""
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str, chunk: int = 1 << 20) -> str:
    """Hex SHA-256 of a file's contents, streamed in *chunk* blocks."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            block = fh.read(chunk)
            if not block:
                break
            h.update(block)
    return h.hexdigest()


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Durable atomic write: tmp file + flush + fsync + rename.

    The rename is additionally made durable by fsyncing the containing
    directory (best effort — not all filesystems support it), so a
    crash immediately after this returns cannot lose the rename.
    A crash at any earlier moment leaves at most a stray ``*.tmp``
    file; the final name is never visible half-written.
    """
    path = os.path.abspath(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    try:  # pragma: no cover - platform dependent
        dfd = os.open(os.path.dirname(path), os.O_RDONLY)
        try:
            os.fsync(dfd)
        finally:
            os.close(dfd)
    except OSError:
        pass


# ---------------------------------------------------------------------------
# capture / restore
# ---------------------------------------------------------------------------
def capture_state(sim, net) -> Dict:
    """Capture the full mutable state of *sim* + *net* as a frozen tree.

    The returned tree is decoupled from the live objects (mutating the
    simulation afterwards does not change it) and is what
    :func:`state_hash`, :func:`save_snapshot` and :func:`restore_state`
    operate on.
    """
    from repro.core import circuit as _circuit_mod
    from repro.network import flit as _flit_mod

    tree = {
        "format": SNAPSHOT_VERSION,
        "sim": sim.state_dict(),
        "ids": {
            "msg": _flit_mod._msg_ids.value,
            "pkt": _flit_mod._pkt_ids.value,
            "conn": _circuit_mod._conn_ids.value,
        },
        "net": net.state_dict(),
    }
    return _freeze(tree)


def restore_state(sim, net, tree: Dict) -> None:
    """Load a captured *tree* onto *sim* and *net*.

    *sim*/*net* must have been rebuilt through the same construction
    path (same config and seed) as the pair the tree was captured from;
    only mutable state is overwritten, wiring is left as constructed.
    The caller's *tree* is not consumed — a private frozen copy is
    loaded, so the same tree can be restored multiple times (and hashed
    afterwards) without aliasing live simulation objects.
    """
    from repro.core import circuit as _circuit_mod
    from repro.network import flit as _flit_mod

    if tree.get("format") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot format {tree.get('format')!r} != {SNAPSHOT_VERSION}")
    tree = _freeze(tree)
    sim.load_state_dict(tree["sim"])
    _flit_mod._msg_ids.value = int(tree["ids"]["msg"])
    _flit_mod._pkt_ids.value = int(tree["ids"]["pkt"])
    _circuit_mod._conn_ids.value = int(tree["ids"]["conn"])
    net.load_state_dict(tree["net"])
    # sleep flags are scheduler metadata, not state: after a restore every
    # object must re-evaluate its quiescence from the loaded state
    sim.wake_all()


def _freeze(tree: Dict) -> Dict:
    """Deep-copy *tree* via one pickle round-trip, preserving sharing."""
    try:
        return pickle.loads(pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception as exc:  # unpicklable leak (closure, generator, ...)
        raise SnapshotError(f"state tree is not picklable: {exc}") from exc


def reset_id_counters() -> None:
    """Zero the module-global message/packet/connection id allocators.

    The allocators are captured into every snapshot (the ``ids``
    sub-tree above), so they are part of the canonical state hash.  A
    run that wants a *reproducible* hash must therefore start them from
    a known point — otherwise the hash encodes how many objects the
    hosting process happened to allocate before the run, and the same
    simulation hashes differently in a fresh interpreter than in a
    long-lived one (or in a fork of it).
    """
    from repro.core import circuit as _circuit_mod
    from repro.network import flit as _flit_mod

    _flit_mod._msg_ids.value = 0
    _flit_mod._pkt_ids.value = 0
    _circuit_mod._conn_ids.value = 0


# ---------------------------------------------------------------------------
# canonical state hash
# ---------------------------------------------------------------------------
def state_hash(tree: Dict) -> str:
    """Canonical SHA-256 hex digest of a captured state tree.

    Encoding rules (documented in ARCHITECTURE.md):

    * scalars encode as a type tag + value; floats by IEEE-754 bits so
      ``-0.0`` != ``0.0`` and NaN hashes stably,
    * dicts encode in insertion order (both sides of every comparison
      are pickle round-trips of same-process state, and pickle preserves
      insertion order), sets in sorted order,
    * containers and objects are memoized by identity: the first visit
      emits content, later visits emit a back-reference — so the
      object-*sharing* topology is part of the hash,
    * objects encode their class name plus all ``__slots__`` (walking
      the MRO) and ``__dict__`` attributes, attribute names sorted,
    * callables raise ``TypeError`` naming their path in the tree — a
      closure in a state tree is a serialization leak and should fail
      loudly.

    The pieces go to one byte buffer hashed once (a list of the pieces
    would cost far more memory than their bytes); the path is only
    built while such an error unwinds.
    """
    out = bytearray()
    try:
        _encode(tree, out.extend, {})
    except _Leak as leak:
        path = "$" + "".join(reversed(leak.steps))
        raise TypeError(f"{leak.what} in state tree at {path}"
                        f"{leak.detail}") from None
    return hashlib.sha256(out).hexdigest()


class _Leak(Exception):
    """A callable inside a state tree.  Each container it unwinds
    through appends its step (``.key``, ``[i]``, ``.attr``)."""

    def __init__(self, what: str, detail: str) -> None:
        super().__init__(what)
        self.what = what
        self.detail = detail
        self.steps: List[str] = []


_pack_double = struct.Struct("<d").pack
_SEQ_TAGS = {list: b"L", tuple: b"U", deque: b"Q"}
#: per-class sorted ``__slots__`` names over the MRO (classes are static)
_slot_names: Dict[type, Tuple[str, ...]] = {}


def _class_slots(klass: type) -> Tuple[str, ...]:
    names = _slot_names.get(klass)
    if names is None:
        found = set()
        for k in klass.__mro__:
            slots = getattr(k, "__slots__", ())
            if isinstance(slots, str):
                slots = (slots,)
            found.update(n for n in slots
                         if n not in ("__dict__", "__weakref__"))
        names = _slot_names[klass] = tuple(sorted(found))
    return names


def _encode(obj, emit, memo: Dict[int, int]) -> None:
    # scalars first: never memoized (small ints / interned strings share
    # identity without sharing meaning)
    if obj is None:
        emit(b"N")
        return
    if obj is True:
        emit(b"T")
        return
    if obj is False:
        emit(b"F")
        return
    t = type(obj)
    if t is int:
        emit(b"i%d" % obj)
        return
    if t is float:
        emit(b"f" + _pack_double(obj))
        return
    if t is str:
        b = obj.encode("utf-8")
        emit(b"s%d:" % len(b))
        emit(b)
        return
    if t is bytes:
        emit(b"b%d:" % len(obj))
        emit(obj)
        return
    if isinstance(obj, Enum):
        # catches IntEnum too (its type is not int)
        emit(b"E" + type(obj).__name__.encode() + b"." + obj.name.encode())
        return
    if isinstance(obj, np.generic):
        _encode(obj.item(), emit, memo)
        return

    # containers / objects: memoized by identity so shared references
    # hash as back-refs and cycles terminate
    oid = id(obj)
    if oid in memo:
        emit(b"@%d" % memo[oid])
        return
    memo[oid] = len(memo)

    if t is dict:
        emit(b"D%d{" % len(obj))
        k = None
        try:
            for k, v in obj.items():
                if type(k) is str:
                    b = k.encode("utf-8")
                    emit(b"s%d:" % len(b))
                    emit(b)
                else:
                    _encode(k, emit, memo)
                emit(b"=")
                if type(v) is int:
                    emit(b"i%d" % v)
                else:
                    _encode(v, emit, memo)
        except _Leak as leak:
            leak.steps.append(f".{k!r}")
            raise
        emit(b"}")
        return
    tag = _SEQ_TAGS.get(t)
    if tag is not None:
        emit(tag + b"%d[" % len(obj))
        for i, v in enumerate(obj):
            tv = type(v)
            if tv is int:
                emit(b"i%d" % v)
            elif v is None:
                emit(b"N")
            else:
                try:
                    _encode(v, emit, memo)
                except _Leak as leak:
                    leak.steps.append(f"[{i}]")
                    raise
        emit(b"]")
        return
    if t in (set, frozenset):
        emit(b"S%d{" % len(obj))
        for v in sorted(obj, key=repr):
            _encode(v, emit, memo)
        emit(b"}")
        return
    if t is np.ndarray:
        emit(b"A" + str(obj.dtype).encode() + b":"
             + str(obj.shape).encode() + b":")
        emit(np.ascontiguousarray(obj).tobytes())
        return
    if callable(obj) and not hasattr(obj, "__slots__") \
            and not hasattr(obj, "__dict__"):
        raise _Leak("unhashable callable", f": {obj!r}")

    # generic object: class + slots-chain + __dict__, names sorted
    names = _class_slots(t)
    d = getattr(obj, "__dict__", None)
    if d:
        names = sorted(set(names).union(d))
    values = []
    for name in names:
        value = getattr(obj, name, _UNSET)
        if value is not _UNSET:
            values.append((name, value))
    if not values and callable(obj):
        raise _Leak("unhashable callable", f": {obj!r}")
    emit(b"O" + t.__name__.encode() + b"(")
    for name, value in values:
        if callable(value) and not isinstance(value, type):
            leak = _Leak("callable attribute",
                         f": {value!r} — exclude it from state_dict()")
            leak.steps.append(f".{name}")
            raise leak
        emit(name.encode() + b"=")
        if type(value) is int:
            emit(b"i%d" % value)
            continue
        try:
            _encode(value, emit, memo)
        except _Leak as leak:
            leak.steps.append(f".{name}")
            raise
    emit(b")")


#: marks an unset ``__slots__`` attribute
_UNSET = object()


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------
def save_snapshot(path: str, tree: Dict, cycle: int,
                  meta: Optional[Dict] = None) -> str:
    """Atomically write *tree* to *path*.

    Layout: ``MAGIC`` + one JSON header line (version, cycle, payload
    SHA-256 + byte count, caller metadata) + the pickle payload.  The
    write goes to a tmp file in the same directory, is flushed + fsynced
    and then renamed over *path*, so a crash mid-write never leaves a
    half-written file under the final name.
    """
    payload = pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "version": SNAPSHOT_VERSION,
        "cycle": int(cycle),
        "sha256": sha256_bytes(payload),
        "payload_bytes": len(payload),
        "meta": meta or {},
    }
    blob = MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n" + payload
    atomic_write_bytes(path, blob)
    return path


def load_snapshot(path: str) -> "LoadedSnapshot":
    """Read and validate a snapshot file.

    Raises :class:`SnapshotCorruptError` on bad magic, unparseable
    header, truncated payload or checksum mismatch.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise SnapshotCorruptError(f"{path}: unreadable: {exc}") from exc
    if not blob.startswith(MAGIC):
        raise SnapshotCorruptError(f"{path}: bad magic")
    rest = blob[len(MAGIC):]
    nl = rest.find(b"\n")
    if nl < 0:
        raise SnapshotCorruptError(f"{path}: truncated header")
    try:
        header = json.loads(rest[:nl])
    except ValueError as exc:
        raise SnapshotCorruptError(f"{path}: bad header: {exc}") from exc
    if header.get("version") != SNAPSHOT_VERSION:
        raise SnapshotCorruptError(
            f"{path}: snapshot version {header.get('version')!r} "
            f"!= {SNAPSHOT_VERSION}")
    payload = rest[nl + 1:]
    if len(payload) != header.get("payload_bytes"):
        raise SnapshotCorruptError(
            f"{path}: payload truncated ({len(payload)} bytes, header "
            f"says {header.get('payload_bytes')})")
    if sha256_bytes(payload) != header.get("sha256"):
        raise SnapshotCorruptError(f"{path}: checksum mismatch")
    try:
        tree = pickle.loads(payload)
    except Exception as exc:
        raise SnapshotCorruptError(f"{path}: unpicklable payload: {exc}") from exc
    return LoadedSnapshot(path=path, header=header, tree=tree)


class LoadedSnapshot(NamedTuple):
    path: str
    header: Dict
    tree: Dict


class CheckpointManager:
    """Rotating on-disk checkpoints with corrupt-file fallback.

    ``save`` writes ``ckpt-{cycle:012d}.rsnap`` atomically and prunes to
    the newest *keep* files; ``load_latest`` tries snapshots newest
    first, records any corrupt ones in :attr:`errors` and returns the
    first that validates (or None when none do).
    """

    def __init__(self, directory: str, keep: int = 2) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = directory
        self.keep = keep
        self.errors: List[str] = []
        os.makedirs(directory, exist_ok=True)

    def _path(self, cycle: int) -> str:
        return os.path.join(self.directory, f"ckpt-{cycle:012d}.rsnap")

    def list_snapshots(self) -> List[str]:
        """Snapshot paths, oldest first (names sort by cycle)."""
        names = sorted(n for n in os.listdir(self.directory)
                       if n.startswith("ckpt-") and n.endswith(".rsnap"))
        return [os.path.join(self.directory, n) for n in names]

    def save(self, tree: Dict, cycle: int,
             meta: Optional[Dict] = None) -> str:
        path = save_snapshot(self._path(cycle), tree, cycle, meta)
        self._prune()
        return path

    def _prune(self) -> None:
        snaps = self.list_snapshots()
        for path in snaps[:-self.keep]:
            try:
                os.remove(path)
            except OSError:
                pass

    def load_latest(self) -> Optional[LoadedSnapshot]:
        for path in reversed(self.list_snapshots()):
            try:
                return load_snapshot(path)
            except SnapshotCorruptError as exc:
                self.errors.append(str(exc))
        return None
