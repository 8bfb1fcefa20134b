"""Wire tracing/metrics into a built simulation (S13 glue).

:class:`Observability` owns one optional :class:`TraceRecorder` and one
optional :class:`MetricsRegistry` plus the output paths they write to.
:meth:`Observability.attach` pushes the recorder onto every instrumented
component (routers, NIs, connection managers, the slot-size controller,
the network's watchdog, the simulator itself) and registers
the metrics sampler with a standard gauge set; :meth:`finalize` takes a
last sample and writes all configured files.

Attaching is wiring, not state: nothing here enters a ``state_dict``,
draws RNG, or alters simulation behaviour — a traced run produces the
exact same results as an untraced one (asserted by the obs test suite).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry, MetricsSampler
from repro.obs.trace import NULL_RECORDER, TraceRecorder


class Observability:
    """Bundle of trace recorder + metrics registry for one run."""

    def __init__(self, trace_jsonl: Optional[str] = None,
                 trace_chrome: Optional[str] = None,
                 metrics_path: Optional[str] = None,
                 sample_interval: int = 100,
                 max_events: int = 500_000) -> None:
        self.trace_jsonl = trace_jsonl
        self.trace_chrome = trace_chrome
        self.metrics_path = metrics_path
        self.sample_interval = sample_interval
        self.recorder = (TraceRecorder(max_events=max_events)
                         if trace_jsonl or trace_chrome else NULL_RECORDER)
        self.registry: Optional[MetricsRegistry] = (
            MetricsRegistry() if metrics_path else None)
        self.sampler: Optional[MetricsSampler] = None
        self._attached = False
        #: summary dict of the last :meth:`finalize` (callers that hand
        #: the bundle to ``run_synthetic`` read the outcome from here)
        self.finalize_summary: Dict = {}

    @property
    def enabled(self) -> bool:
        return bool(self.recorder.enabled or self.registry is not None)

    # ------------------------------------------------------------------
    def attach(self, sim, net) -> "Observability":
        """Wire this bundle into *sim*/*net* (idempotent per instance)."""
        if self._attached:
            return self
        self._attached = True
        recorder = self.recorder
        if recorder.enabled:
            sim.obs = recorder
            for router in net.routers:
                router.obs = recorder
            for ni in net.interfaces:
                ni.obs = recorder
            for manager in getattr(net, "managers", ()):
                manager.obs = recorder
            controller = getattr(net, "size_controller", None)
            if controller is not None:
                controller.obs = recorder
            net.watchdog.obs = recorder
        if self.registry is not None:
            self._register_standard(sim, net)
            self.sampler = MetricsSampler(self.registry,
                                          self.sample_interval)
            sim.add(self.sampler)
        return self

    def _register_standard(self, sim, net) -> None:
        """The default gauge/histogram set every metrics run gets."""
        reg = self.registry
        ledger = net.ledger
        reg.gauge("flits_injected", lambda: ledger.injected)
        reg.gauge("flits_ejected", lambda: ledger.ejected)
        reg.gauge("flits_consumed", lambda: ledger.consumed)
        reg.gauge("in_flight", net.in_flight_flits)
        reg.gauge("messages_delivered", lambda: net.messages_delivered)
        reg.gauge("avg_latency", lambda: net.pkt_latency.mean)
        reg.gauge("sleeping_objects", lambda: sim.sleeping_objects)
        clock = getattr(net, "clock", None)
        if clock is not None:
            reg.gauge("slot_wheel_active", lambda: clock.active)
            reg.gauge("slot_wheel_generation", lambda: clock.generation)
        controller = getattr(net, "size_controller", None)
        if controller is not None:
            reg.gauge("slot_wheel_resizes", lambda: controller.resizes)

        latency_hist = reg.histogram("pkt_latency", bucket_width=4,
                                     num_buckets=64)
        for ni in net.interfaces:
            previous = ni.on_packet_ejected

            def hook(pkt, cycle, _prev=previous, _hist=latency_hist):
                if _prev is not None:
                    _prev(pkt, cycle)
                if pkt.inject_cycle is not None:
                    _hist.add(cycle - pkt.inject_cycle)

            ni.on_packet_ejected = hook

    # ------------------------------------------------------------------
    def finalize(self, sim) -> Dict:
        """Take a closing sample, write every configured file, and
        return a summary dict (event counts, file paths)."""
        summary: Dict = {}
        if self.registry is not None:
            samples = self.registry.samples
            if not samples or samples[-1]["cycle"] != sim.cycle:
                self.registry.sample(sim.cycle)
            if self.metrics_path:
                self.registry.dump(self.metrics_path, self.sample_interval)
                summary["metrics_path"] = self.metrics_path
            summary["metrics_samples"] = len(self.registry.samples)
        if self.recorder.enabled:
            summary.update(self.recorder.summary())
            if self.trace_jsonl:
                self.recorder.write_jsonl(self.trace_jsonl)
                summary["trace_jsonl"] = self.trace_jsonl
            if self.trace_chrome:
                self.recorder.write_chrome(self.trace_chrome)
                summary["trace_chrome"] = self.trace_chrome
        self.finalize_summary = summary
        return summary
