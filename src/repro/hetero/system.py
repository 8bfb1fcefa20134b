"""The full heterogeneous system: tiles + workloads + network (S15).

:class:`HeteroSystem` builds one network scheme, attaches CPU cores,
accelerators, L2 banks and memory controllers per the Figure-7
floorplan, applies the Section V-A2 switching policy (packet-switch all
CPU traffic, hybrid-switch GPU data with warp-slack gating) and runs the
closed-loop simulation.  :class:`HeteroResult` carries the Figure-8/9 and
Table-III metrics.

Two extensions feed ROADMAP item 3:

* the phase-structured workload layer (``phases=PhaseConfig(...)``)
  swaps in :class:`~repro.hetero.phases.PhasedCPUCoreEndpoint` /
  :class:`~repro.hetero.phases.PhasedGPUCoreEndpoint` and the
  memory-controller hotspot skew;
* record/replay: ``run(recorder=...)`` captures every endpoint message
  (with its ``gpu``/``slack`` metadata) into the v2 trace format, and
  :func:`run_hetero_replay` re-injects a saved trace into any scheme —
  the open-loop substitute for the paper's full-system traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.config import NetworkConfig, scheme_config
from repro.core.decision import make_decision_policy
from repro.core.hybrid_network import build_hybrid_network
from repro.energy import EnergyParams, EnergyReport, compute_energy
from repro.hetero.cpu import CPUCoreEndpoint
from repro.hetero.gpu import GPUCoreEndpoint
from repro.hetero.memory import L2BankEndpoint, MemoryControllerEndpoint
from repro.hetero.phases import (
    HotspotLayout,
    PhaseConfig,
    PhasedCPUCoreEndpoint,
    PhasedGPUCoreEndpoint,
)
from repro.hetero.tiles import HeteroLayout, default_layout
from repro.hetero.workloads import (
    CPU_BENCHMARKS,
    CPUWorkloadProfile,
    GPU_BENCHMARKS,
    GPUWorkloadProfile,
)
from repro.network.flit import Message, MessageClass
from repro.network.network import Network, _build
from repro.network.interface import NetworkInterface
from repro.network.router import PacketRouter
from repro.sdm.network import build_sdm_network
from repro.sim.kernel import Simulator, default_engine
from repro.traffic.trace import (
    MessageTraceRecorder,
    TraceEvent,
    attach_trace_sources,
    load_trace,
)


def gpu_data_eligible(msg: Message) -> bool:
    """Section V-A2: only GPU data messages are hybrid-switched."""
    return msg.mclass == MessageClass.DATA and bool(msg.meta.get("gpu"))


def _make_network(cfg: NetworkConfig, sim: Simulator,
                  policy: str = "slack") -> Network:
    """Build the scheme's network with the named decision policy."""
    if cfg.switching == "tdm":
        return build_hybrid_network(
            cfg, sim,
            decision_fn=make_decision_policy(policy),
            eligible_fn=gpu_data_eligible)
    if cfg.switching == "sdm":
        return build_sdm_network(
            cfg, sim,
            decision_fn=make_decision_policy(policy),
            eligible_fn=gpu_data_eligible)
    return _build(cfg, sim, PacketRouter, NetworkInterface, Network)


@dataclass
class HeteroResult:
    scheme: str
    cpu_benchmark: str
    gpu_benchmark: str
    cycles: int
    cpu_instructions: float
    gpu_iterations: int
    energy: EnergyReport
    cs_fraction: float
    avg_pkt_latency: float
    gpu_injection_rate: float  #: measured flits/accel-node/cycle
    messages_delivered: int = 0

    @property
    def cpu_ipc(self) -> float:
        return self.cpu_instructions / max(1, self.cycles)

    @property
    def gpu_throughput(self) -> float:
        return self.gpu_iterations / max(1, self.cycles)


class HeteroSystem:
    """One scheme x workload-mix instantiation of the Figure-7 system."""

    def __init__(self, scheme: str, cpu_benchmark: str, gpu_benchmark: str,
                 seed: int = 0, width: int = 6, height: int = 6,
                 cfg: Optional[NetworkConfig] = None,
                 engine: Optional[str] = None,
                 phases: Optional[PhaseConfig] = None,
                 policy: str = "slack") -> None:
        self.scheme = scheme
        self.cpu_name = cpu_benchmark
        self.gpu_name = gpu_benchmark
        self.cpu_profile: CPUWorkloadProfile = CPU_BENCHMARKS[cpu_benchmark]
        self.gpu_profile: GPUWorkloadProfile = GPU_BENCHMARKS[gpu_benchmark]
        self.phases = phases
        self.policy = policy

        self.cfg = cfg or scheme_config(scheme, width=width, height=height)
        self.sim = Simulator(seed=seed, engine=engine or default_engine())
        self.net = _make_network(self.cfg, self.sim, policy)
        self.layout: HeteroLayout = default_layout(self.net.mesh)
        self._attach_endpoints()
        self._perf_base = (0.0, 0)

    # ------------------------------------------------------------------
    def _attach_endpoints(self) -> None:
        rng = self.sim.rng
        self.cpus: Dict[int, CPUCoreEndpoint] = {}
        self.gpus: Dict[int, GPUCoreEndpoint] = {}
        self.l2s: Dict[int, L2BankEndpoint] = {}
        self.mcs: Dict[int, MemoryControllerEndpoint] = {}
        cpu_layout = self.layout
        if self.phases is not None:
            cpu_layout = HotspotLayout(self.layout, self.phases, rng)
        for node in self.layout.cpu_nodes:
            if self.phases is not None:
                ep: CPUCoreEndpoint = PhasedCPUCoreEndpoint(
                    node, self.cfg, cpu_layout, self.cpu_profile, rng,
                    self.phases)
            else:
                ep = CPUCoreEndpoint(node, self.cfg, cpu_layout,
                                     self.cpu_profile, rng)
            self.net.attach_endpoint(node, ep)
            self.cpus[node] = ep
        for node in self.layout.accel_nodes:
            if self.phases is not None:
                gep: GPUCoreEndpoint = PhasedGPUCoreEndpoint(
                    node, self.cfg, self.layout, self.gpu_profile, rng,
                    self.phases)
            else:
                gep = GPUCoreEndpoint(node, self.cfg, self.layout,
                                      self.gpu_profile, rng)
            self.net.attach_endpoint(node, gep)
            self.gpus[node] = gep
        for node in self.layout.l2_nodes:
            l2 = L2BankEndpoint(node, self.cfg, self.layout, rng)
            self.net.attach_endpoint(node, l2)
            self.l2s[node] = l2
        for node in self.layout.mem_nodes:
            mc = MemoryControllerEndpoint(node, self.cfg, rng)
            self.net.attach_endpoint(node, mc)
            self.mcs[node] = mc

    # ------------------------------------------------------------------
    def _perf_counters(self):
        instr = sum(c.instructions_retired for c in self.cpus.values())
        iters = sum(g.iterations for g in self.gpus.values())
        return instr, iters

    def run(self, warmup: int = 2000, measure: int = 6000,
            energy_params: Optional[EnergyParams] = None,
            recorder: Optional[MessageTraceRecorder] = None) -> HeteroResult:
        """Run warmup then a measured window; with *recorder*, capture
        every endpoint message (warmup included, so a replay can apply
        the same warmup/measure split)."""
        if recorder is not None:
            recorder.attach(self.net)
        try:
            self.sim.run(warmup)
            self.net.reset_stats()
            self._perf_base = self._perf_counters()
            self.sim.run(measure)
        finally:
            if recorder is not None:
                recorder.detach()
        instr, iters = self._perf_counters()
        instr -= self._perf_base[0]
        iters -= self._perf_base[1]

        cs_frac = (self.net.cs_flit_fraction()
                   if hasattr(self.net, "cs_flit_fraction") else 0.0)
        gpu_flits = sum(
            self.net.ni(n).counters["flit_injected"]
            for n in self.layout.accel_nodes)
        inj = gpu_flits / (max(1, self.net.measured_cycles)
                           * max(1, len(self.layout.accel_nodes)))
        return HeteroResult(
            scheme=self.scheme,
            cpu_benchmark=self.cpu_name,
            gpu_benchmark=self.gpu_name,
            cycles=self.net.measured_cycles,
            cpu_instructions=instr,
            gpu_iterations=iters,
            energy=compute_energy(self.net, energy_params),
            cs_fraction=cs_frac,
            avg_pkt_latency=self.net.pkt_latency.mean,
            gpu_injection_rate=inj,
            messages_delivered=self.net.messages_delivered,
        )


def run_hetero_replay(scheme: str,
                      trace: Union[str, List[TraceEvent]],
                      warmup: int = 2000, measure: int = 6000,
                      seed: int = 0, width: int = 6, height: int = 6,
                      cfg: Optional[NetworkConfig] = None,
                      engine: Optional[str] = None,
                      policy: str = "slack",
                      energy_params: Optional[EnergyParams] = None,
                      ) -> HeteroResult:
    """Replay a recorded heterogeneous trace against *scheme*.

    *trace* is a path to a v2 trace file or an in-memory event list.
    Messages are re-injected at their recorded cycles with metadata
    restored, so ``meta['gpu']`` keeps GPU DATA hybrid-switch eligible
    and ``meta['slack']`` still drives the Section V-A2 gate — the same
    trace replays as circuit-heavy or packet-only purely as a function
    of the scheme.  Use the recording's warmup/measure split (saved in
    the trace header) for like-for-like ``cs_fraction`` numbers.
    """
    header: Dict = {}
    if isinstance(trace, str):
        events, header = load_trace(trace)
    else:
        events = list(trace)
    cfg = cfg or scheme_config(scheme, width=width, height=height)
    sim = Simulator(seed=seed, engine=engine or default_engine())
    net = _make_network(cfg, sim, policy)
    attach_trace_sources(net, events)
    sim.run(warmup)
    net.reset_stats()
    sim.run(measure)

    layout = default_layout(net.mesh)
    cs_frac = (net.cs_flit_fraction()
               if hasattr(net, "cs_flit_fraction") else 0.0)
    gpu_flits = sum(net.ni(n).counters["flit_injected"]
                    for n in layout.accel_nodes)
    inj = gpu_flits / (max(1, net.measured_cycles)
                       * max(1, len(layout.accel_nodes)))
    return HeteroResult(
        scheme=scheme,
        cpu_benchmark=str(header.get("cpu_benchmark", "replay")),
        gpu_benchmark=str(header.get("gpu_benchmark", "replay")),
        cycles=net.measured_cycles,
        cpu_instructions=0.0,
        gpu_iterations=0,
        energy=compute_energy(net, energy_params),
        cs_fraction=cs_frac,
        avg_pkt_latency=net.pkt_latency.mean,
        gpu_injection_rate=inj,
        messages_delivered=net.messages_delivered,
    )
