"""Metrics registry + periodic sampler (the time-series half of S13).

:class:`MetricsRegistry` holds three instrument kinds:

* **counters** — monotonic named totals (``registry.inc(name)``);
* **gauges** — named callables polled at sample time (instantaneous
  state such as in-flight flits or sleeping components);
* **histograms** — fixed-width-bucket :class:`~repro.sim.stats.Histogram`
  instances fed by instrumentation hooks (e.g. packet latency).

:class:`MetricsSampler` is a :class:`~repro.sim.kernel.SimObject`
registered with the simulator when metrics are enabled; every
``interval`` cycles (in the ``control`` phase, after all same-cycle
state changes) it appends one row — cycle, every counter, every gauge —
to the registry's in-memory series.  :meth:`MetricsRegistry.dump`
writes the series plus final histograms as a single JSON document.

Like the trace recorder, the sampler reads simulation state but never
mutates it, draws nothing from the RNG, and is excluded from every
``state_dict`` — attaching metrics cannot change a run's results.
Non-finite gauge values (e.g. a NaN mean latency before the first
packet ejects) are stored as JSON ``null``.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Dict, List

from repro.obs.trace import ensure_parent_dir
from repro.sim.kernel import SimObject
from repro.sim.stats import Histogram

#: format tag written into every metrics dump (consumer compatibility)
METRICS_FORMAT = "repro-metrics/1"


def _finite(value):
    """JSON-safe scalar: non-finite floats become None (JSON null)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class MetricsRegistry:
    """Named counters, gauges and histograms with a sampled time series."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, Callable[[], float]] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.samples: List[Dict] = []

    # ------------------------------------------------------------------
    # instruments
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Register gauge *name*; *fn* is polled at every sample."""
        self.gauges[name] = fn

    def histogram(self, name: str, bucket_width: int = 1,
                  num_buckets: int = 64) -> Histogram:
        """Create (or return the existing) histogram *name*."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(bucket_width,
                                                     num_buckets)
        return hist

    # ------------------------------------------------------------------
    # sampling + output
    # ------------------------------------------------------------------
    def sample(self, cycle: int) -> Dict:
        """Append and return one time-series row for *cycle*."""
        row: Dict = {"cycle": cycle}
        for name, value in self.counters.items():
            row[name] = _finite(value)
        for name, fn in self.gauges.items():
            row[name] = _finite(fn())
        self.samples.append(row)
        return row

    def as_dict(self, interval: int = 0) -> Dict:
        return {
            "format": METRICS_FORMAT,
            "interval": interval,
            "samples": self.samples,
            "counters": {k: _finite(v)
                         for k, v in sorted(self.counters.items())},
            "histograms": {
                name: {"bucket_width": h.bucket_width,
                       "buckets": h.as_list(),
                       "overflow": h.overflow,
                       "n": h.n}
                for name, h in sorted(self.histograms.items())},
        }

    def dump(self, path: str, interval: int = 0) -> None:
        """Write the full time series + histograms as one JSON file."""
        ensure_parent_dir(path)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(interval), fh, indent=2, sort_keys=True,
                      allow_nan=False)
            fh.write("\n")


class MetricsSampler(SimObject):
    """Samples a registry every *interval* cycles (control phase).

    Runs every cycle under both engines (it never opts into sleeping),
    so sampling cadence is identical whether or not the fast scheduler
    has put the rest of the network to sleep.  Cycle 0 is always
    sampled, giving every series a baseline row.
    """

    def __init__(self, registry: MetricsRegistry, interval: int = 100) -> None:
        if interval < 1:
            raise ValueError("sample interval must be >= 1")
        self.registry = registry
        self.interval = interval

    def control(self, cycle: int) -> None:
        if cycle % self.interval == 0:
            self.registry.sample(cycle)
