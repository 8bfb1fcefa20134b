"""Message traces: record a simulation's traffic and replay it.

Useful for regression tests (identical traffic across schemes), for
debugging the heterogeneous models, and as the substitute for the
paper's full-system simulator traces: any workload model can be captured
once and replayed against every network scheme.

Trace format (version 2)
------------------------

A trace file is JSONL.  The first line is a header object::

    {"format": "repro-message-trace", "version": 2, "events": N, ...}

followed by one event per line::

    [cycle, src, dst, mclass, size_flits, meta]

``meta`` is the message's full metadata dict (``gpu``, ``slack``,
``kind``, ``warp``, ...).  Carrying it is what makes replay faithful for
heterogeneous traffic: circuit-switch eligibility
(:func:`repro.hetero.system.gpu_data_eligible`) keys on
``meta["gpu"]`` and the Section V-A2 slack policy
(:func:`repro.core.decision.slack_decision`) on ``meta["slack"]`` — a
trace that drops them replays every scheme as pure packet switching.

Version-1 files (bare event lines, five fields, no header, no meta)
are rejected by :meth:`MessageTraceRecorder.load` with a clear error.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

from repro.network.flit import Message, MessageClass
from repro.network.interface import Endpoint
from repro.network.network import Network

#: on-disk schema version written by :meth:`MessageTraceRecorder.save`
TRACE_VERSION = 2
#: header ``format`` discriminator
TRACE_FORMAT = "repro-message-trace"


class TraceFormatError(ValueError):
    """A trace file is unversioned, corrupt, or from the future."""


class TraceEvent(NamedTuple):
    cycle: int
    src: int
    dst: int
    mclass: int
    size_flits: int
    #: message metadata restored verbatim on replay (``gpu``, ``slack``,
    #: ``kind``/reply class, ...); never mutate a shared default
    meta: dict = {}


class MessageTraceRecorder:
    """Collects message-send events; attach via :meth:`attach`.

    ``attach`` wraps every network interface's ``send`` entry point, so
    exactly the endpoint-generated traffic is captured (network-internal
    CONFIG messages are regenerated by the replaying network and are
    skipped even if one ever crosses ``send``).  Events are stamped with
    the message's ``create_cycle``, which is what replay restores.
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self._wrapped: List = []

    def record(self, cycle: int, msg: Message) -> None:
        if msg.mclass == MessageClass.CONFIG:
            return
        self.events.append(TraceEvent(cycle, msg.src, msg.dst,
                                      int(msg.mclass), msg.size_flits,
                                      dict(msg.meta)))

    # ------------------------------------------------------------------
    def attach(self, net: Network) -> "MessageTraceRecorder":
        """Start recording every endpoint send on *net*.

        Wraps each NI's bound ``send`` with an instance attribute; the
        wrapper is plain Python state outside every ``state_dict``, so
        snapshots and state hashes are unaffected.  Call :meth:`detach`
        to stop recording (e.g. before the drain phase of a run).
        """
        for node in range(net.mesh.num_nodes):
            ni = net.ni(node)
            orig = ni.send

            def wrapped(msg: Message, _orig: Callable = orig) -> None:
                self.record(msg.create_cycle, msg)
                _orig(msg)

            ni.send = wrapped  # type: ignore[method-assign]
            self._wrapped.append((ni, orig))
        return self

    def detach(self) -> None:
        for ni, orig in self._wrapped:
            try:
                del ni.__dict__["send"]
            except KeyError:
                ni.send = orig  # type: ignore[method-assign]
        self._wrapped.clear()

    # ------------------------------------------------------------------
    def save(self, path: str, info: Optional[Dict] = None) -> None:
        """Write the versioned trace; *info* lands in the header
        (scheme, workload names, run lengths — whatever aids replay)."""
        header = {"format": TRACE_FORMAT, "version": TRACE_VERSION,
                  "events": len(self.events)}
        if info:
            header.update(info)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for ev in self.events:
                fh.write(json.dumps(list(ev)) + "\n")

    @staticmethod
    def load(path: str) -> List[TraceEvent]:
        """Load a versioned trace; see :func:`load_trace`."""
        events, _header = load_trace(path)
        return events


def load_trace(path: str):
    """Load *path*, returning ``(events, header)``.

    Raises :class:`TraceFormatError` on unversioned (legacy v1) files
    and on files whose version is newer than this reader understands.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        return [], {"format": TRACE_FORMAT, "version": TRACE_VERSION,
                    "events": 0}
    try:
        first = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{path}: not a JSONL trace ({exc})")
    if isinstance(first, list):
        raise TraceFormatError(
            f"{path}: unversioned legacy trace (no header line); "
            f"re-record it.")
    if not isinstance(first, dict) or first.get("format") != TRACE_FORMAT:
        raise TraceFormatError(
            f"{path}: missing {TRACE_FORMAT!r} header "
            f"(got {str(first)[:80]!r})")
    version = first.get("version")
    if not isinstance(version, int) or version < 1:
        raise TraceFormatError(f"{path}: bad trace version {version!r}")
    if version > TRACE_VERSION:
        raise TraceFormatError(
            f"{path}: trace version {version} is newer than this "
            f"reader (max {TRACE_VERSION})")
    events = [_parse_event(path, i, json.loads(line))
              for i, line in enumerate(lines[1:])]
    declared = first.get("events")
    if isinstance(declared, int) and declared != len(events):
        raise TraceFormatError(
            f"{path}: header declares {declared} events, file has "
            f"{len(events)} (truncated or corrupt)")
    return events, first


def _parse_event(path: str, index: int, raw) -> TraceEvent:
    if not isinstance(raw, list) or len(raw) not in (5, 6):
        raise TraceFormatError(f"{path}: event {index} malformed: {raw!r}")
    meta = raw[5] if len(raw) == 6 else {}
    if not isinstance(meta, dict):
        raise TraceFormatError(
            f"{path}: event {index} meta is not an object: {meta!r}")
    return TraceEvent(int(raw[0]), int(raw[1]), int(raw[2]),
                      int(raw[3]), int(raw[4]), meta)


class TraceSource(Endpoint):
    """Replays the events of one source node from a trace.

    Replayed messages are rebuilt with ``create_cycle=event.cycle`` and
    the recorded metadata, so latency accounting and circuit-switch
    eligibility survive the round trip even when the source is attached
    after cycle 0 (a late-attached source injects its backlog
    immediately but the messages keep their recorded age).
    """

    def __init__(self, node: int, events: Iterable[TraceEvent]) -> None:
        super().__init__()
        self._events = sorted((e for e in events if e.src == node),
                              key=lambda e: e.cycle)
        self._next = 0
        self.messages_received = 0

    def tick(self, cycle: int) -> None:
        while (self._next < len(self._events)
               and self._events[self._next].cycle <= cycle):
            ev = self._events[self._next]
            self._next += 1
            msg = Message(src=ev.src, dst=ev.dst,
                          mclass=MessageClass(ev.mclass),
                          size_flits=ev.size_flits, create_cycle=ev.cycle)
            if ev.meta:
                msg.meta.update(ev.meta)
            self.ni.send(msg)

    def quiescent(self, cycle: int) -> bool:
        # an exhausted source never sends again (events only replay
        # forward), so the NI may sleep through the post-trace tail
        return self._next >= len(self._events)

    def on_message(self, msg: Message, cycle: int) -> None:
        self.messages_received += 1

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self._events)

    def state_dict(self) -> dict:
        return {"next": self._next,
                "messages_received": self.messages_received}

    def load_state_dict(self, state: dict) -> None:
        self._next = state["next"]
        self.messages_received = state["messages_received"]


def attach_trace_sources(net: Network,
                         events: List[TraceEvent]) -> List[TraceSource]:
    """Attach replay sources for every node of *net*."""
    sources = []
    for node in range(net.mesh.num_nodes):
        src = TraceSource(node, events)
        net.attach_endpoint(node, src)
        sources.append(src)
    return sources

