"""One entry point per paper artefact (tables, figures, ablations).

Every function returns an :class:`ExperimentResult` whose ``rows`` carry
the same quantities the paper's figure/table reports, and whose ``text``
renders them as an ASCII table.  The pytest-benchmark drivers under
``benchmarks/`` call these functions; they are equally usable from a
REPL or the example scripts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import scheme_config
from repro.energy import compute_energy
from repro.harness.report import format_table
from repro.harness.runner import (
    SynthRun,
    load_latency_sweep,
    run_synthetic,
    saturation_throughput,
    scaled,
)
from repro.hetero import CPU_BENCHMARKS, GPU_BENCHMARKS, HeteroSystem

PATTERNS = ("uniform_random", "tornado", "transpose")
PATTERN_SHORT = {"uniform_random": "UR", "tornado": "TOR", "transpose": "TR"}
FIG4_SCHEMES = ("packet_vc4", "hybrid_sdm_vc4", "hybrid_tdm_vc4",
                "hybrid_tdm_vct")
FIG8_SCHEMES = ("packet_vc4", "hybrid_tdm_vc4", "hybrid_tdm_hop_vc4",
                "hybrid_tdm_hop_vct")


@dataclass
class ExperimentResult:
    name: str
    headers: Sequence[str]
    rows: List[Sequence]
    notes: str = ""
    extra: Dict = field(default_factory=dict)

    @property
    def text(self) -> str:
        body = format_table(self.headers, self.rows, title=self.name)
        return body + ("\n" + self.notes if self.notes else "")


def _geomean(values: Iterable[float]) -> float:
    vals = [max(v, 1e-9) for v in values]
    return math.exp(sum(math.log(v) for v in vals) / len(vals)) if vals \
        else float("nan")


# ---------------------------------------------------------------------------
# Figure 4: load-latency curves for UR/TOR/TR x four schemes
# ---------------------------------------------------------------------------
def fig4(patterns: Sequence[str] = PATTERNS,
         schemes: Sequence[str] = FIG4_SCHEMES,
         rates: Sequence[float] = (0.05, 0.15, 0.25, 0.35, 0.45, 0.55),
         seed: int = 1) -> ExperimentResult:
    rows: List[Sequence] = []
    curves: Dict[Tuple[str, str], List[SynthRun]] = {}
    for pattern in patterns:
        for scheme in schemes:
            runs = load_latency_sweep(scheme, pattern, rates=rates,
                                      seed=seed)
            curves[(pattern, scheme)] = runs
            for r in runs:
                rows.append((PATTERN_SHORT.get(pattern, pattern), scheme,
                             r.offered, r.accepted, r.avg_latency,
                             r.p99_latency, r.cs_fraction))
    # saturation-throughput improvement of TDM over the packet baseline
    notes_lines = []
    for pattern in patterns:
        base = max(r.accepted for r in curves[(pattern, "packet_vc4")])
        for scheme in schemes:
            if scheme == "packet_vc4":
                continue
            best = max(r.accepted for r in curves[(pattern, scheme)])
            notes_lines.append(
                f"{PATTERN_SHORT.get(pattern, pattern)}: {scheme} "
                f"saturation throughput {100 * (best / base - 1):+.1f}% "
                f"vs Packet-VC4")
    return ExperimentResult(
        name="Figure 4: load-latency curves (paper: TDM throughput "
             "+14.7%/+9.3%/+27.0% for UR/TOR/TR)",
        headers=("pattern", "scheme", "offered", "accepted", "avg_lat",
                 "p99_lat", "cs_frac"),
        rows=rows, notes="\n".join(notes_lines), extra={"curves": curves})


# ---------------------------------------------------------------------------
# Figure 5: network energy saving vs injection rate
# ---------------------------------------------------------------------------
def fig5(patterns: Sequence[str] = PATTERNS,
         rates: Sequence[float] = (0.05, 0.15, 0.25, 0.35),
         seed: int = 1) -> ExperimentResult:
    rows: List[Sequence] = []
    for pattern in patterns:
        for rate in rates:
            base = run_synthetic("packet_vc4", pattern, rate, seed=seed)
            vc4 = run_synthetic("hybrid_tdm_vc4", pattern, rate, seed=seed)
            vct = run_synthetic("hybrid_tdm_vct", pattern, rate, seed=seed)
            s4 = 1 - vc4.energy_per_message_pj / base.energy_per_message_pj
            st = 1 - vct.energy_per_message_pj / base.energy_per_message_pj
            rows.append((PATTERN_SHORT.get(pattern, pattern), rate,
                         100 * s4, 100 * st, 100 * (st - s4),
                         vc4.cs_fraction))
    return ExperimentResult(
        name="Figure 5: network energy saving vs injection rate "
             "(vs Packet-VC4; paper: VCt adds 2.4-10.9% UR / 2.6-10.0% "
             "TOR / 4.1-9.7% TR, UR negative at low rate)",
        headers=("pattern", "rate", "save_VC4_%", "save_VCt_%",
                 "VCt_extra_%", "cs_frac"),
        rows=rows)


# ---------------------------------------------------------------------------
# Figure 6: scalability to larger meshes
# ---------------------------------------------------------------------------
def fig6(sizes: Sequence[int] = (6, 8),
         patterns: Sequence[str] = PATTERNS,
         seed: int = 1) -> ExperimentResult:
    """Throughput improvement & energy saving of Hybrid-TDM-VCt vs
    Packet-VC4 as the mesh scales (paper: 8x8 -> 16x16, slot tables
    grow to 256 entries beyond 64 nodes)."""
    rows: List[Sequence] = []
    for size in sizes:
        st_size = 256 if size * size > 64 else 128
        for pattern in patterns:
            kw = dict(width=size, height=size, seed=seed,
                      slot_table_size=st_size)
            base_sat = saturation_throughput("packet_vc4", pattern, **kw)
            hyb_sat = saturation_throughput("hybrid_tdm_vct", pattern, **kw)
            # energy sampled at 75% of the baseline's saturation load
            rate75 = 0.75 * base_sat
            base = run_synthetic("packet_vc4", pattern, rate75, **kw)
            hyb = run_synthetic("hybrid_tdm_vct", pattern, rate75, **kw)
            esave = 1 - hyb.energy_per_message_pj / base.energy_per_message_pj
            rows.append((f"{size}x{size}",
                         PATTERN_SHORT.get(pattern, pattern),
                         base_sat, hyb_sat,
                         100 * (hyb_sat / base_sat - 1),
                         100 * esave, hyb.cs_fraction))
    return ExperimentResult(
        name="Figure 6: scalability of Hybrid-TDM-VCt (throughput "
             "improvement and energy saving @75% baseline capacity; "
             "paper: stable for TOR/TR, negligible for UR at scale)",
        headers=("mesh", "pattern", "sat_packet", "sat_hybrid",
                 "thr_improv_%", "energy_save_%", "cs_frac"),
        rows=rows)


# ---------------------------------------------------------------------------
# Figure 8: realistic heterogeneous workloads
# ---------------------------------------------------------------------------
def fig8(gpu_benchmarks: Optional[Sequence[str]] = None,
         cpu_benchmarks: Optional[Sequence[str]] = None,
         schemes: Sequence[str] = FIG8_SCHEMES,
         warmup: int = 1500, measure: int = 5000,
         seed: int = 3) -> ExperimentResult:
    gpu_benchmarks = tuple(gpu_benchmarks or GPU_BENCHMARKS)
    cpu_benchmarks = tuple(cpu_benchmarks or CPU_BENCHMARKS)
    rows: List[Sequence] = []
    agg: Dict[str, List[Tuple[float, float, float]]] = {
        s: [] for s in schemes if s != "packet_vc4"}
    for gpu in gpu_benchmarks:
        for cpu in cpu_benchmarks:
            base = None
            for scheme in schemes:
                system = HeteroSystem(scheme, cpu, gpu, seed=seed)
                res = system.run(warmup=scaled(warmup),
                                 measure=scaled(measure))
                if scheme == "packet_vc4":
                    base = res
                    continue
                esave = 1 - res.energy.total / base.energy.total
                cpu_sp = res.cpu_ipc / max(base.cpu_ipc, 1e-12)
                gpu_sp = res.gpu_throughput / max(base.gpu_throughput, 1e-12)
                agg[scheme].append((1 - esave, cpu_sp, gpu_sp))
                rows.append((gpu, cpu, scheme, 100 * esave, cpu_sp, gpu_sp,
                             res.cs_fraction))
    for scheme, triples in agg.items():
        if not triples:
            continue
        rows.append(("AVG", "-", scheme,
                     100 * (1 - _geomean(t[0] for t in triples)),
                     _geomean(t[1] for t in triples),
                     _geomean(t[2] for t in triples), float("nan")))
    return ExperimentResult(
        name="Figure 8: heterogeneous workload mixes (paper averages: "
             "energy saving 6.3%/9.0%/17.1% for VC4/hop-VC4/hop-VCt; "
             "CPU -1.6%, GPU +2.6% for hop-VCt)",
        headers=("gpu", "cpu", "scheme", "energy_save_%", "cpu_speedup",
                 "gpu_speedup", "cs_frac"),
        rows=rows)


# ---------------------------------------------------------------------------
# Figure 9: dynamic / static energy breakdown
# ---------------------------------------------------------------------------
def fig9(gpu_benchmarks: Optional[Sequence[str]] = None,
         cpu_benchmarks: Sequence[str] = ("ART", "GAFORT"),
         seed: int = 3, warmup: int = 1500,
         measure: int = 5000) -> ExperimentResult:
    """Per-component energy of Hybrid-TDM-VC4 vs Packet-VC4, averaged
    over CPU applications, grouped by GPU benchmark (Figure 9 a/b)."""
    gpu_benchmarks = tuple(gpu_benchmarks or GPU_BENCHMARKS)
    rows: List[Sequence] = []
    buf_savings, cs_dyn_over, cs_sta_over = [], [], []
    dyn_savings, sta_savings = [], []
    for gpu in gpu_benchmarks:
        acc: Dict[str, Dict[str, float]] = {}
        for scheme in ("packet_vc4", "hybrid_tdm_vc4"):
            dyn: Dict[str, float] = {}
            sta: Dict[str, float] = {}
            for cpu in cpu_benchmarks:
                system = HeteroSystem(scheme, cpu, gpu, seed=seed)
                res = system.run(warmup=scaled(warmup),
                                 measure=scaled(measure))
                for comp, v in res.energy.dynamic.items():
                    dyn[comp] = dyn.get(comp, 0.0) + v / len(cpu_benchmarks)
                for comp, v in res.energy.static.items():
                    sta[comp] = sta.get(comp, 0.0) + v / len(cpu_benchmarks)
            acc[scheme] = {"dyn": dyn, "sta": sta}
            for comp in ("buffer", "cs", "xbar", "arbiter", "clock", "link"):
                rows.append((gpu, scheme, comp, dyn.get(comp, 0.0),
                             sta.get(comp, 0.0)))
        p, h = acc["packet_vc4"], acc["hybrid_tdm_vc4"]
        buf_savings.append(1 - h["dyn"]["buffer"] / max(p["dyn"]["buffer"], 1e-9))
        dyn_savings.append(1 - sum(h["dyn"].values()) / sum(p["dyn"].values()))
        sta_savings.append(1 - sum(h["sta"].values()) / sum(p["sta"].values()))
        cs_dyn_over.append(h["dyn"]["cs"] / sum(h["dyn"].values()))
        cs_sta_over.append(h["sta"]["cs"] / sum(h["sta"].values()))
    notes = (
        f"avg buffer dynamic saving: {100 * _avg(buf_savings):.1f}% "
        f"(paper 51.3%); avg dynamic saving: {100 * _avg(dyn_savings):.1f}% "
        f"(paper 20.8%); avg CS dynamic overhead: "
        f"{100 * _avg(cs_dyn_over):.2f}% (paper 0.6%); avg static saving: "
        f"{100 * _avg(sta_savings):.1f}% (paper 17.3% w/ gating+sharing); "
        f"avg CS static overhead: {100 * _avg(cs_sta_over):.2f}% "
        f"(paper 2.1%)")
    return ExperimentResult(
        name="Figure 9: network energy breakdown (pJ, averaged over CPU "
             "apps)",
        headers=("gpu", "scheme", "component", "dynamic_pj", "static_pj"),
        rows=rows, notes=notes)


def _avg(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs) if xs else float("nan")


# ---------------------------------------------------------------------------
# Table III: GPU injection rates and circuit-switched flit fractions
# ---------------------------------------------------------------------------
PAPER_TABLE3 = {
    "BLACKSCHOLES": (0.18, 55.7), "HOTSPOT": (0.09, 29.1),
    "LIB": (0.20, 34.4), "LPS": (0.20, 55.0), "NN": (0.18, 38.9),
    "PATHFINDER": (0.13, 49.1), "STO": (0.05, 18.5),
}


def table3(gpu_benchmarks: Optional[Sequence[str]] = None,
           cpu_benchmark: str = "ART", seed: int = 3,
           warmup: int = 1500, measure: int = 5000) -> ExperimentResult:
    gpu_benchmarks = tuple(gpu_benchmarks or GPU_BENCHMARKS)
    rows: List[Sequence] = []
    for gpu in gpu_benchmarks:
        system = HeteroSystem("hybrid_tdm_vc4", cpu_benchmark, gpu,
                              seed=seed)
        res = system.run(warmup=scaled(warmup), measure=scaled(measure))
        paper_inj, paper_cs = PAPER_TABLE3.get(gpu, (float("nan"),) * 2)
        rows.append((gpu, res.gpu_injection_rate, paper_inj,
                     100 * res.cs_fraction, paper_cs))
    return ExperimentResult(
        name="Table III: GPU injection ratio and % circuit-switched flits "
             "(Hybrid-TDM-VC4)",
        headers=("gpu", "inj_measured", "inj_paper", "cs_%_measured",
                 "cs_%_paper"),
        rows=rows)


# ---------------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ---------------------------------------------------------------------------
def ablation_slot_table(pattern: str = "transpose", rate: float = 0.30,
                        sizes: Sequence[int] = (8, 16, 32, 64, 128),
                        seed: int = 1) -> ExperimentResult:
    """Time-division granularity trade-off (Section II-C): fixed slot
    table sizes, no dynamic sizing."""
    from dataclasses import replace
    rows: List[Sequence] = []
    for size in sizes:
        cfg = scheme_config("hybrid_tdm_vc4", slot_table_size=size)
        cfg = replace(cfg, slot_table=replace(cfg.slot_table,
                                              dynamic_sizing=False))
        r = run_synthetic("hybrid_tdm_vc4", pattern, rate, cfg=cfg,
                          seed=seed)
        rows.append((size, r.avg_latency, r.accepted, r.cs_fraction,
                     r.energy_per_message_pj))
    return ExperimentResult(
        name=f"Ablation: static slot-table size ({pattern} @ {rate})",
        headers=("slots", "avg_lat", "accepted", "cs_frac", "pJ/msg"),
        rows=rows)


def ablation_stealing(pattern: str = "tornado", rate: float = 0.35,
                      seed: int = 1) -> ExperimentResult:
    """Time-slot stealing on/off (Section II-D)."""
    from dataclasses import replace
    rows: List[Sequence] = []
    for stealing in (True, False):
        cfg = scheme_config("hybrid_tdm_vc4")
        cfg = replace(cfg, circuit=replace(cfg.circuit,
                                           slot_stealing=stealing))
        r = run_synthetic("hybrid_tdm_vc4", pattern, rate, cfg=cfg,
                          seed=seed)
        rows.append(("on" if stealing else "off", r.avg_latency,
                     r.accepted, r.cs_fraction))
    return ExperimentResult(
        name=f"Ablation: time-slot stealing ({pattern} @ {rate})",
        headers=("stealing", "avg_lat", "accepted", "cs_frac"),
        rows=rows)


def ablation_sharing(gpu_benchmarks: Sequence[str] = ("BLACKSCHOLES", "STO"),
                     cpu_benchmark: str = "EQUAKE", seed: int = 3,
                     warmup: int = 1500,
                     measure: int = 5000) -> ExperimentResult:
    """Section V-B3: circuit-switched path sharing effectiveness."""
    rows: List[Sequence] = []
    for gpu in gpu_benchmarks:
        base = HeteroSystem("packet_vc4", cpu_benchmark, gpu, seed=seed) \
            .run(warmup=scaled(warmup), measure=scaled(measure))
        for scheme in ("hybrid_tdm_vc4", "hybrid_tdm_hop_vc4"):
            res = HeteroSystem(scheme, cpu_benchmark, gpu, seed=seed) \
                .run(warmup=scaled(warmup), measure=scaled(measure))
            rows.append((gpu, scheme,
                         100 * (1 - res.energy.total / base.energy.total),
                         res.cs_fraction,
                         res.gpu_throughput / base.gpu_throughput))
    return ExperimentResult(
        name="Ablation: circuit-switched path sharing (paper: hop adds "
             "2.8% energy saving on average)",
        headers=("gpu", "scheme", "energy_save_%", "cs_frac",
                 "gpu_speedup"),
        rows=rows)


def ablation_decision_policy(pattern: str = "tornado", rate: float = 0.35,
                             seed: int = 1) -> ExperimentResult:
    """Switching-decision policy comparison: the paper's stall-threshold
    policy, the always/never extremes, and the FeedbackDecision
    extension (Section V-B2 future work)."""
    from repro.core.decision import (FeedbackDecision, always_circuit,
                                     never_circuit)
    from repro.core.hybrid_network import build_hybrid_network
    from repro.sim.kernel import Simulator
    from repro.traffic import attach_synthetic_sources, make_pattern

    policies = (
        ("stall_threshold", None),                 # manager default
        ("feedback", FeedbackDecision()),
        ("always_circuit", always_circuit()),
        ("never_circuit", never_circuit()),
    )
    rows: List[Sequence] = []
    for name, policy in policies:
        cfg = scheme_config("hybrid_tdm_vc4")
        sim = Simulator(seed=seed)
        net = build_hybrid_network(cfg, sim, decision_fn=policy)
        pat = make_pattern(pattern, net.mesh, sim.rng)
        attach_synthetic_sources(net, pat, injection_rate=rate,
                                 rng=sim.rng)
        sim.run(scaled(1500))
        net.reset_stats()
        sim.run(scaled(4000))
        e = compute_energy(net)
        rows.append((name, net.accepted_load(), net.pkt_latency.mean,
                     net.cs_flit_fraction(),
                     e.total / max(1, net.messages_delivered) / 1000))
    return ExperimentResult(
        name=f"Ablation: switching decision policy ({pattern} @ {rate})",
        headers=("policy", "accepted", "avg_lat", "cs_frac", "nJ/msg"),
        rows=rows)


def ablation_gating_metric(gpu_benchmark: str = "HOTSPOT",
                           cpu_benchmark: str = "EQUAKE", seed: int = 3,
                           warmup: int = 1500,
                           measure: int = 5000) -> ExperimentResult:
    """VC gating metric comparison: utilisation (the paper's policy) vs
    queue delay (the Section V-B4 future-work suggestion)."""
    from dataclasses import replace
    rows: List[Sequence] = []
    base = HeteroSystem("packet_vc4", cpu_benchmark, gpu_benchmark,
                        seed=seed).run(warmup=scaled(warmup),
                                       measure=scaled(measure))
    for metric in ("utilisation", "queue_delay"):
        cfg = scheme_config("hybrid_tdm_vct")
        cfg = replace(cfg, vc_gating=replace(cfg.vc_gating, metric=metric))
        res = HeteroSystem("hybrid_tdm_vct", cpu_benchmark, gpu_benchmark,
                           seed=seed, cfg=cfg) \
            .run(warmup=scaled(warmup), measure=scaled(measure))
        rows.append((metric,
                     100 * (1 - res.energy.total / base.energy.total),
                     res.cpu_ipc / base.cpu_ipc,
                     res.gpu_throughput / base.gpu_throughput))
    return ExperimentResult(
        name="Ablation: VC gating metric (utilisation vs queue delay)",
        headers=("metric", "energy_save_%", "cpu_speedup", "gpu_speedup"),
        rows=rows)


def ablation_vc_gating(gpu_benchmark: str = "HOTSPOT",
                       cpu_benchmark: str = "EQUAKE", seed: int = 3,
                       warmup: int = 1500,
                       measure: int = 5000) -> ExperimentResult:
    """Section V-B4: hybrid switching vs packet switching, both with
    aggressive VC power gating (paper: hybrid saves ~10% more)."""
    from dataclasses import replace
    rows: List[Sequence] = []
    base = HeteroSystem("packet_vc4", cpu_benchmark, gpu_benchmark,
                        seed=seed).run(warmup=scaled(warmup),
                                       measure=scaled(measure))
    # packet-switched network with gating enabled
    cfg = scheme_config("packet_vc4")
    cfg = replace(cfg, vc_gating=replace(cfg.vc_gating, enabled=True))
    pkt_gate = HeteroSystem("packet_vc4", cpu_benchmark, gpu_benchmark,
                            seed=seed, cfg=cfg) \
        .run(warmup=scaled(warmup), measure=scaled(measure))
    hyb_gate = HeteroSystem("hybrid_tdm_hop_vct", cpu_benchmark,
                            gpu_benchmark, seed=seed) \
        .run(warmup=scaled(warmup), measure=scaled(measure))
    for label, res in (("packet_vc4+gating", pkt_gate),
                       ("hybrid_tdm_hop_vct", hyb_gate)):
        rows.append((label,
                     100 * (1 - res.energy.total / base.energy.total),
                     res.cs_fraction,
                     res.cpu_ipc / base.cpu_ipc,
                     res.gpu_throughput / base.gpu_throughput))
    return ExperimentResult(
        name="Ablation: VC power gating on packet vs hybrid network",
        headers=("scheme", "energy_save_%", "cs_frac", "cpu_speedup",
                 "gpu_speedup"),
        rows=rows)
