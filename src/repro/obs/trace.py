"""Structured lifecycle tracing (the observability tentpole, S13).

:class:`TraceRecorder` captures typed simulation events — flit
inject/route/eject, circuit setup/teardown/ack walks, slot-steal grants,
slot-wheel resizes, watchdog verdicts — as plain dicts
validated against :data:`EVENT_SCHEMA`, and renders them as

* **JSONL** (one event object per line, machine-greppable), and
* **Chrome trace-event JSON** loadable in Perfetto / ``chrome://tracing``
  with one track per router and per NI (instant events on a shared
  process timeline whose timestamp unit is the simulation cycle).

Zero-overhead-when-disabled contract
------------------------------------
Every instrumented component holds ``self.obs = NULL_RECORDER`` by
default and guards each emission site with ``if self.obs.enabled:`` —
the disabled path is a single attribute access and a falsy check, no
call, no allocation.  ``repro bench --baseline`` asserts the fast-engine
throughput cost of that guard stays within tolerance of the committed
``BENCH_simperf.json``.

Recorders are deliberately **outside** the snapshot protocol: no
``state_dict`` ever contains one (like the scheduler's ``_sim_awake``
flag), they draw nothing from the simulator RNG, and they mutate no
simulation state — a traced run is bit-identical to an untraced one.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Tuple

#: event name -> required payload fields (on top of the common
#: ``ev``/``cycle``/``track`` triple).  Extra fields are allowed; missing
#: required fields fail validation.
EVENT_SCHEMA: Dict[str, Tuple[str, ...]] = {
    # flit lifecycle (data plane)
    "flit_inject": ("pkt", "flit", "dst", "cs"),
    "flit_route": ("pkt", "outport"),
    "flit_eject": ("pkt", "flit", "cs", "done"),
    # circuit control plane
    "cs_setup": ("conn", "step"),      # send/reserve/reject/stale
    "cs_teardown": ("conn", "step"),   # send/release/done
    "cs_ack": ("conn", "ok"),
    "slot_steal": ("outport", "slot"),
    "cs_orphan": ("pkt", "reason"),    # orphan (lost reservation)
    "cs_fallback": ("pkt", "kind"),    # own/hitchhike/vicinity plan failed
    # controllers
    "resize": ("active", "generation"),
    "livelock": ("in_flight", "stalled_cycles"),
    "audit_violation": ("imbalance",),
}

#: Perfetto category per event (used for filtering in the trace UI).
_EVENT_CATEGORY: Dict[str, str] = {
    "flit_inject": "flit", "flit_route": "flit", "flit_eject": "flit",
    "cs_setup": "circuit", "cs_teardown": "circuit", "cs_ack": "circuit",
    "slot_steal": "circuit", "cs_orphan": "circuit",
    "cs_fallback": "circuit",
    "resize": "control",
    "livelock": "watchdog", "audit_violation": "watchdog",
}

_COMMON_FIELDS = ("ev", "cycle", "track")


def validate_event(record: Dict) -> None:
    """Raise ``ValueError`` unless *record* is a schema-valid event."""
    if not isinstance(record, dict):
        raise ValueError(f"event must be a dict, got {type(record).__name__}")
    for field in _COMMON_FIELDS:
        if field not in record:
            raise ValueError(f"event missing common field {field!r}: {record}")
    ev = record["ev"]
    required = EVENT_SCHEMA.get(ev)
    if required is None:
        raise ValueError(f"unknown event type {ev!r}")
    cycle = record["cycle"]
    if not isinstance(cycle, int) or isinstance(cycle, bool) or cycle < 0:
        raise ValueError(f"event cycle must be a non-negative int: {record}")
    if not isinstance(record["track"], str) or not record["track"]:
        raise ValueError(f"event track must be a non-empty string: {record}")
    missing = [f for f in required if f not in record]
    if missing:
        raise ValueError(f"event {ev!r} missing fields {missing}: {record}")


def validate_jsonl(path: str) -> int:
    """Validate every line of a JSONL trace file; returns the event
    count.  Raises ``ValueError`` on the first malformed line."""
    count = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from None
            try:
                validate_event(record)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            count += 1
    return count


def _noop(*_args, **_kwargs) -> None:
    return None


def ensure_parent_dir(path: str) -> None:
    """Create the directory a dump file is about to be written into."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


class NullRecorder:
    """Inert stand-in wired into every component by default.

    ``enabled`` is False so guarded emission sites never call anything;
    any typed emission method resolves to a shared no-op, so even an
    unguarded call is harmless (just slower than a guarded one).
    """

    __slots__ = ()
    enabled = False

    def __getattr__(self, name: str):
        if name.startswith("__"):
            # keep pickling/copying/introspection protocols honest
            raise AttributeError(name)
        return _noop


#: The process-wide disabled recorder (components share this instance).
NULL_RECORDER = NullRecorder()


class TraceRecorder:
    """Accumulates typed lifecycle events in memory.

    Events beyond *max_events* are counted in :attr:`dropped` instead of
    growing without bound (long traced runs should raise the cap or
    sample a shorter window; the drop count makes truncation explicit).
    """

    enabled = True

    def __init__(self, max_events: int = 500_000) -> None:
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.max_events = max_events
        self.events: List[Dict] = []
        self.dropped = 0
        self.counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # core emission
    # ------------------------------------------------------------------
    def _emit(self, ev: str, cycle: int, track: str, fields: Dict) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        record = {"ev": ev, "cycle": cycle, "track": track}
        record.update(fields)
        self.events.append(record)
        self.counts[ev] = self.counts.get(ev, 0) + 1

    # ------------------------------------------------------------------
    # typed emission API (one method per EVENT_SCHEMA entry)
    # ------------------------------------------------------------------
    def flit_inject(self, cycle: int, track: str, pkt: int, flit: int,
                    dst: int, cs: bool) -> None:
        self._emit("flit_inject", cycle, track,
                   {"pkt": pkt, "flit": flit, "dst": dst, "cs": cs})

    def flit_route(self, cycle: int, track: str, pkt: int,
                   outport: int) -> None:
        self._emit("flit_route", cycle, track,
                   {"pkt": pkt, "outport": outport})

    def flit_eject(self, cycle: int, track: str, pkt: int, flit: int,
                   cs: bool, done: bool) -> None:
        self._emit("flit_eject", cycle, track,
                   {"pkt": pkt, "flit": flit, "cs": cs, "done": done})

    def cs_setup(self, cycle: int, track: str, conn: int, step: str,
                 **extra) -> None:
        self._emit("cs_setup", cycle, track,
                   dict(extra, conn=conn, step=step))

    def cs_teardown(self, cycle: int, track: str, conn: int, step: str,
                    **extra) -> None:
        self._emit("cs_teardown", cycle, track,
                   dict(extra, conn=conn, step=step))

    def cs_ack(self, cycle: int, track: str, conn: int, ok: bool) -> None:
        self._emit("cs_ack", cycle, track, {"conn": conn, "ok": ok})

    def slot_steal(self, cycle: int, track: str, outport: int,
                   slot: int) -> None:
        self._emit("slot_steal", cycle, track,
                   {"outport": outport, "slot": slot})

    def cs_orphan(self, cycle: int, track: str, pkt: int,
                  reason: str) -> None:
        self._emit("cs_orphan", cycle, track, {"pkt": pkt, "reason": reason})

    def cs_fallback(self, cycle: int, track: str, pkt: int,
                    kind: str) -> None:
        self._emit("cs_fallback", cycle, track, {"pkt": pkt, "kind": kind})

    def resize(self, cycle: int, track: str, active: int,
               generation: int) -> None:
        self._emit("resize", cycle, track,
                   {"active": active, "generation": generation})

    def livelock(self, cycle: int, track: str, in_flight: int,
                 stalled_cycles: int) -> None:
        self._emit("livelock", cycle, track,
                   {"in_flight": in_flight, "stalled_cycles": stalled_cycles})

    def audit_violation(self, cycle: int, track: str,
                        imbalance: int) -> None:
        self._emit("audit_violation", cycle, track, {"imbalance": imbalance})

    # ------------------------------------------------------------------
    # introspection + output
    # ------------------------------------------------------------------
    def summary(self) -> Dict:
        return {"events": len(self.events), "dropped": self.dropped,
                "counts": dict(sorted(self.counts.items()))}

    def write_jsonl(self, path: str) -> int:
        """Write one event object per line; returns the event count."""
        ensure_parent_dir(path)
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.events:
                fh.write(json.dumps(record, sort_keys=True))
                fh.write("\n")
        return len(self.events)

    def write_chrome(self, path: str) -> int:
        """Write the trace in Chrome trace-event format (Perfetto).

        Every event becomes a thread-scoped instant (``ph: "i"``) whose
        timestamp is the simulation cycle; each distinct ``track``
        (``router-N``, ``ni-N``, ``sim``) becomes one named thread so
        the UI shows one lane per router/NI.
        """
        tids = {track: tid for tid, track
                in enumerate(sorted({r["track"] for r in self.events},
                                    key=_track_sort_key))}
        trace_events: List[Dict] = [{
            "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
            "args": {"name": "repro-noc-sim"},
        }]
        for track, tid in tids.items():
            trace_events.append({"name": "thread_name", "ph": "M",
                                 "pid": 0, "tid": tid,
                                 "args": {"name": track}})
            trace_events.append({"name": "thread_sort_index", "ph": "M",
                                 "pid": 0, "tid": tid,
                                 "args": {"sort_index": tid}})
        for record in self.events:
            args = {k: v for k, v in record.items()
                    if k not in _COMMON_FIELDS}
            trace_events.append({
                "name": record["ev"],
                "cat": _EVENT_CATEGORY.get(record["ev"], "misc"),
                "ph": "i", "s": "t",
                "ts": record["cycle"],
                "pid": 0, "tid": tids[record["track"]],
                "args": args,
            })
        ensure_parent_dir(path)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": trace_events,
                       "displayTimeUnit": "ns"}, fh)
            fh.write("\n")
        return len(self.events)


def _track_sort_key(track: str):
    """Stable lane order: the global ``sim`` lane first, then routers by
    node id, then NIs by node id, then anything else alphabetically."""
    kind_order = {"sim": 0, "router": 1, "ni": 2}
    kind, _, index = track.partition("-")
    order = kind_order.get(kind, 3)
    try:
        node = int(index)
    except ValueError:
        node = -1
    return (order, node, track)


def iter_events(records: Iterable[Dict],
                ev: Optional[str] = None) -> Iterable[Dict]:
    """Filter helper used by tests and ad-hoc analysis scripts."""
    for record in records:
        if ev is None or record["ev"] == ev:
            yield record
