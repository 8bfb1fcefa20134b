"""Synthetic traffic generation and traces (S14)."""

from repro.traffic.patterns import (
    PATTERN_NAMES,
    TrafficPattern,
    make_pattern,
)
from repro.traffic.synthetic import SyntheticSource, attach_synthetic_sources
from repro.traffic.trace import (
    TRACE_VERSION,
    MessageTraceRecorder,
    TraceEvent,
    TraceFormatError,
    TraceSource,
    attach_trace_sources,
    load_trace,
)

__all__ = [
    "PATTERN_NAMES",
    "TrafficPattern",
    "make_pattern",
    "SyntheticSource",
    "attach_synthetic_sources",
    "TRACE_VERSION",
    "MessageTraceRecorder",
    "TraceEvent",
    "TraceFormatError",
    "TraceSource",
    "attach_trace_sources",
    "load_trace",
]

