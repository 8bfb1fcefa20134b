"""Metrics registry + sampler unit tests (S13)."""

from __future__ import annotations

import json

import pytest

from repro.obs import MetricsRegistry, MetricsSampler
from repro.obs.metrics import METRICS_FORMAT
from repro.sim.stats import Histogram


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.inc("retries")
        reg.inc("retries", 2)
        assert reg.counters["retries"] == 3

    def test_gauges_polled_at_sample_time(self):
        reg = MetricsRegistry()
        state = {"v": 1}
        reg.gauge("v", lambda: state["v"])
        reg.sample(0)
        state["v"] = 9
        reg.sample(100)
        assert [row["v"] for row in reg.samples] == [1, 9]
        assert [row["cycle"] for row in reg.samples] == [0, 100]

    def test_histogram_created_once(self):
        reg = MetricsRegistry()
        h1 = reg.histogram("lat", bucket_width=4, num_buckets=8)
        h2 = reg.histogram("lat")
        assert h1 is h2
        assert isinstance(h1, Histogram)

    def test_non_finite_gauge_becomes_null(self, tmp_path):
        reg = MetricsRegistry()
        reg.gauge("nan", lambda: float("nan"))
        reg.gauge("inf", lambda: float("inf"))
        reg.gauge("ok", lambda: 1.5)
        row = reg.sample(0)
        assert row["nan"] is None and row["inf"] is None
        assert row["ok"] == 1.5
        path = str(tmp_path / "m.json")
        reg.dump(path)  # allow_nan=False would raise on a raw NaN
        doc = json.load(open(path))
        assert doc["samples"][0]["nan"] is None

    def test_dump_format(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("events", 5)
        reg.histogram("lat", bucket_width=2, num_buckets=4).add(3)
        reg.sample(0)
        path = str(tmp_path / "m.json")
        reg.dump(path, interval=50)
        doc = json.load(open(path))
        assert doc["format"] == METRICS_FORMAT
        assert doc["interval"] == 50
        assert doc["counters"] == {"events": 5}
        hist = doc["histograms"]["lat"]
        assert hist["bucket_width"] == 2
        assert hist["buckets"] == [0, 1, 0, 0]
        assert hist["overflow"] == 0 and hist["n"] == 1


class TestMetricsSampler:
    def test_interval_validated(self):
        with pytest.raises(ValueError):
            MetricsSampler(MetricsRegistry(), interval=0)

    def test_cadence_includes_cycle_zero(self):
        reg = MetricsRegistry()
        sampler = MetricsSampler(reg, interval=100)
        for cycle in range(301):
            sampler.control(cycle)
        assert [row["cycle"] for row in reg.samples] == [0, 100, 200, 300]

    def test_off_interval_cycles_skipped(self):
        reg = MetricsRegistry()
        sampler = MetricsSampler(reg, interval=7)
        sampler.control(6)
        assert reg.samples == []
        sampler.control(7)
        assert len(reg.samples) == 1
