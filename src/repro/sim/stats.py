"""Statistics primitives used across the simulator.

All classes are plain accumulators with O(1) update cost so they can be
called from per-cycle hot loops.  Percentile queries on
:class:`LatencySample` retain the raw samples (network latencies are the
headline metric of the paper, so we keep full fidelity there).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional


class Counter:
    """Named integer event counters backed by a dict.

    >>> c = Counter()
    >>> c.inc("buffer_write"); c.inc("buffer_write", 2)
    >>> c["buffer_write"]
    3
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, float] = {}

    def inc(self, name: str, amount: float = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def __getitem__(self, name: str) -> float:
        return self._counts.get(name, 0)

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def items(self):
        return self._counts.items()

    def as_dict(self) -> Dict[str, float]:
        return dict(self._counts)

    def merge(self, other: "Counter") -> None:
        for k, v in other._counts.items():
            self.inc(k, v)

    def reset(self) -> None:
        self._counts.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v}" for k, v in sorted(self._counts.items()))
        return f"Counter({body})"


class RunningMean:
    """Streaming mean/variance (Welford) without storing samples."""

    __slots__ = ("n", "_mean", "_m2")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, x: float) -> None:
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)

    @property
    def mean(self) -> float:
        return self._mean if self.n else float("nan")

    @property
    def variance(self) -> float:
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)


class LatencySample:
    """Retains raw latency samples for mean/percentile reporting.

    Percentile queries sort lazily and cache the sorted array until the
    next append, so reporting several percentiles of the same window
    (avg/p50/p99/max in every sweep row) sorts once instead of once per
    query.  The cache is derived state: it is dropped from pickles (and
    therefore from ``state_dict`` hashes — whether a percentile was
    queried must never change a snapshot) and rebuilt on demand.
    """

    __slots__ = ("samples", "_sorted")

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._sorted: Optional[List[float]] = None

    def add(self, x: float) -> None:
        self.samples.append(x)
        self._sorted = None

    def extend(self, xs: Iterable[float]) -> None:
        self.samples.extend(xs)
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else float("nan")

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, p in [0, 100].

        Zero-sample runs (e.g. a point that livelocks before any flit is
        measured) yield NaN rather than raising, so sweep reports can
        still be rendered.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile p must be in [0, 100], got {p!r}")
        if not self.samples:
            return float("nan")
        xs = self._sorted
        if xs is None:
            xs = self._sorted = sorted(self.samples)
        rank = max(1, math.ceil(p / 100.0 * len(xs)))
        return xs[rank - 1]

    @property
    def max(self) -> float:
        return max(self.samples) if self.samples else float("nan")

    def __getstate__(self):
        return self.samples

    def __setstate__(self, samples) -> None:
        self.samples = samples
        self._sorted = None


class Histogram:
    """Fixed-width bucket histogram for bounded integer metrics."""

    __slots__ = ("bucket_width", "buckets", "overflow", "n")

    def __init__(self, bucket_width: int = 1, num_buckets: int = 64) -> None:
        if bucket_width < 1 or num_buckets < 1:
            raise ValueError("bucket_width and num_buckets must be >= 1")
        self.bucket_width = bucket_width
        self.buckets = [0] * num_buckets
        self.overflow = 0
        self.n = 0

    def add(self, x: float) -> None:
        idx = int(x // self.bucket_width)
        if 0 <= idx < len(self.buckets):
            self.buckets[idx] += 1
        else:
            self.overflow += 1
        self.n += 1

    def as_list(self) -> List[int]:
        return list(self.buckets)


class TimeWeighted:
    """Time-weighted integral of a piecewise-constant value.

    Used for leakage-energy accounting of power-gated structures: set the
    number of powered VCs / active slot-table entries whenever it changes
    and read ``integral`` (value x cycles) after :meth:`finalize`.
    """

    __slots__ = ("value", "_last_cycle", "integral")

    def __init__(self, value: float = 0.0, cycle: int = 0) -> None:
        self.value = value
        self._last_cycle = cycle
        self.integral = 0.0

    def set(self, value: float, cycle: int) -> None:
        if cycle < self._last_cycle:
            raise ValueError("time went backwards")
        self.integral += self.value * (cycle - self._last_cycle)
        self.value = value
        self._last_cycle = cycle

    def finalize(self, cycle: int) -> float:
        """Integrate up to *cycle* and return the integral."""
        self.set(self.value, cycle)
        return self.integral


class ConservationLedger:
    """Monotonic flit ledger for the conservation audit.

    Unlike the per-component :class:`Counter` objects, this ledger is
    never reset by a measurement-window restart: the invariant *every
    injected flit is eventually ejected, consumed in a router, or still
    in the network* must hold over the whole run.  All routers and NIs
    of one network share one instance.
    """

    __slots__ = ("injected", "ejected", "consumed")

    def __init__(self) -> None:
        self.injected = 0    #: flits that entered a router from an NI
        self.ejected = 0     #: flits handed back to an NI
        self.consumed = 0    #: config flits consumed inside a router

    @property
    def progress(self) -> int:
        """Monotonic resolution count (the watchdog's liveness metric)."""
        return self.ejected + self.consumed

    def imbalance(self, in_network: int) -> int:
        """Flits unaccounted for given *in_network* flits still in
        routers/links.  Zero iff the conservation invariant holds."""
        return self.injected - self.progress - in_network

    def as_dict(self) -> Dict[str, float]:
        return {"injected": self.injected, "ejected": self.ejected,
                "consumed": self.consumed}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ConservationLedger(inj={self.injected} ej={self.ejected}"
                f" cons={self.consumed})")


class WindowedRate:
    """Rate of events over a sliding window of whole epochs.

    Used by the VC power-gating controller (utilisation per epoch) and the
    connection manager (per-destination message frequency).
    """

    __slots__ = ("epoch_len", "_events", "_epoch_start", "last_rate")

    def __init__(self, epoch_len: int) -> None:
        if epoch_len < 1:
            raise ValueError("epoch_len must be >= 1")
        self.epoch_len = epoch_len
        self._events = 0.0
        self._epoch_start = 0
        self.last_rate = 0.0

    def record(self, amount: float = 1.0) -> None:
        self._events += amount

    def maybe_rollover(self, cycle: int) -> bool:
        """Close the epoch if *cycle* passed its end.  Returns True on close."""
        if cycle - self._epoch_start >= self.epoch_len:
            self.last_rate = self._events / max(1, cycle - self._epoch_start)
            self._events = 0.0
            self._epoch_start = cycle
            return True
        return False
