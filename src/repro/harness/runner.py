"""Synthetic-workload run primitives (Section IV methodology).

The paper warms the network up with 1000 packets and simulates 100,000
packets.  A Python cycle-level model cannot afford that per sweep point,
so runs are cycle-budgeted and scaled by ``REPRO_SCALE`` (default 1.0 ~
a few thousand measured cycles per point; 4.0 approaches paper-length
statistics for overnight runs).

Robustness: a run that livelocks (the network's watchdog raising
:class:`~repro.sim.kernel.LivelockError`) is reported as a failed
:class:`SynthRun` (``note`` set, stats as measured up to the stall)
instead of aborting a whole sweep.  Long runs can be checkpointed
periodically and resumed after a crash via the ``checkpoint_dir`` /
``checkpoint_cycles`` parameters (see :mod:`repro.sim.checkpoint`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.config import NetworkConfig, scheme_config
from repro.energy import EnergyParams, EnergyReport, compute_energy
from repro.network.network import Network, build_network
from repro.sim.kernel import LivelockError, Simulator, default_engine
from repro.traffic import attach_synthetic_sources, make_pattern


def scale() -> float:
    """Global experiment-size multiplier from ``REPRO_SCALE``."""
    try:
        return max(0.05, float(os.environ.get("REPRO_SCALE", "1.0")))
    except ValueError:
        return 1.0


def scaled(cycles: int) -> int:
    return max(200, int(cycles * scale()))


@dataclass
class SynthRun:
    """Everything measured in one synthetic-traffic simulation."""

    scheme: str
    pattern: str
    offered: float              #: flits/node/cycle offered
    accepted: float             #: accepted load (PS-flit equivalents)
    avg_latency: float
    p99_latency: float
    cs_fraction: float
    energy: EnergyReport
    messages_delivered: int
    cycles: int
    slot_wheel: int             #: final active slot-table size (TDM)
    note: str = ""              #: "" = clean run; e.g. "livelock@1234"
    #: canonical hash of the final simulation state (only when the run
    #: was asked for it); lets sweep fabrics compare runs bit-for-bit
    state_hash: str = ""

    @property
    def energy_per_message_pj(self) -> float:
        return self.energy.total / max(1, self.messages_delivered)

    @property
    def failed(self) -> bool:
        return bool(self.note)


def prepare_synthetic(scheme: str, pattern: str, rate: float,
                      seed: int = 1, width: int = 6, height: int = 6,
                      slot_table_size: int = 128,
                      cfg: Optional[NetworkConfig] = None,
                      engine: Optional[str] = None,
                      ) -> Tuple[Simulator, Network, list]:
    """Build the (sim, net, sources) triple for one synthetic run.

    This is the canonical construction path: snapshot restore requires
    rebuilding an *identical* object graph, so everything that runs a
    synthetic workload — including the replay verifier — must go through
    here (construction order matters: traffic attachment draws from the
    seeded generator).  ``engine`` selects the
    scheduler ("fast" activity-tracked, "legacy" run-everything);
    None means
    :func:`~repro.sim.kernel.default_engine` (the ``REPRO_ENGINE``
    override, else "fast").  All engines produce identical state
    trajectories (see ``verify_equivalence``).
    """
    if engine is None:
        engine = default_engine()
    if cfg is None:
        cfg = scheme_config(scheme, width=width, height=height,
                            slot_table_size=slot_table_size)
    sim = Simulator(seed=seed, engine=engine)
    net: Network = build_network(cfg, sim)
    pat = make_pattern(pattern, net.mesh, sim.rng)
    sources = attach_synthetic_sources(net, pat, injection_rate=rate,
                                       rng=sim.rng)
    return sim, net, sources


def run_synthetic(scheme: str, pattern: str, rate: float,
                  warmup: int = 1500, measure: int = 4000,
                  seed: int = 1, width: int = 6, height: int = 6,
                  slot_table_size: int = 128,
                  cfg: Optional[NetworkConfig] = None,
                  energy_params: Optional[EnergyParams] = None,
                  checkpoint_dir: Optional[str] = None,
                  checkpoint_cycles: int = 0,
                  observability=None,
                  with_state_hash: bool = False,
                  engine: Optional[str] = None) -> SynthRun:
    """One (scheme, pattern, rate) simulation with warmup + measurement.

    With ``checkpoint_dir`` set (and ``checkpoint_cycles > 0``), the run
    snapshots its full state every ``checkpoint_cycles`` cycles and, on
    entry, resumes from the latest valid snapshot found there — so a
    crashed or killed run repeats at most one checkpoint interval.

    *observability* is an optional :class:`repro.obs.Observability`
    bundle: it is attached after construction and finalized (files
    written) before the function returns, clean run or livelock alike.
    Attaching never changes results — the recorder draws no RNG and is
    excluded from snapshots.
    """
    # ids are global allocators captured into snapshots and the state
    # hash; start them from zero so the hash of this run is a function
    # of the run alone, not of what the hosting process allocated
    # before it (a forked worker and a fresh interpreter must agree)
    from repro.sim.checkpoint import reset_id_counters
    reset_id_counters()
    if cfg is None:
        cfg = scheme_config(scheme, width=width, height=height,
                            slot_table_size=slot_table_size)
    sim, net, _sources = prepare_synthetic(
        scheme, pattern, rate, seed=seed, width=width, height=height,
        slot_table_size=slot_table_size, cfg=cfg, engine=engine)
    if observability is not None:
        observability.attach(sim, net)

    manager = None
    if checkpoint_dir is not None and checkpoint_cycles > 0:
        from repro.sim.checkpoint import CheckpointManager, capture_state, \
            restore_state
        manager = CheckpointManager(checkpoint_dir, keep=cfg.checkpoint.keep)
        latest = manager.load_latest()
        if latest is not None:
            restore_state(sim, net, latest.tree)

    warm = scaled(warmup)
    total = warm + scaled(measure)
    note = ""
    try:
        while sim.cycle < warm:
            step = (warm - sim.cycle if manager is None
                    else min(checkpoint_cycles, warm - sim.cycle))
            sim.run(step)
            if sim.cycle == warm:
                net.reset_stats()
            if manager is not None:
                # the warm-boundary snapshot is taken *after* reset_stats
                # so a resume never re-runs the reset ambiguity
                manager.save(capture_state(sim, net), sim.cycle)
        while sim.cycle < total:
            step = (total - sim.cycle if manager is None
                    else min(checkpoint_cycles, total - sim.cycle))
            sim.run(step)
            if manager is not None and sim.cycle < total:
                manager.save(capture_state(sim, net), sim.cycle)
    except LivelockError as exc:
        # degrade gracefully: report the point as failed/saturated with
        # whatever was measured up to the stall
        note = f"livelock@{exc.cycle}"

    if observability is not None:
        observability.finalize(sim)
    final_hash = ""
    if with_state_hash:
        from repro.sim.checkpoint import capture_state, state_hash
        final_hash = state_hash(capture_state(sim, net))
    cs = net.cs_flit_fraction() if hasattr(net, "cs_flit_fraction") else 0.0
    wheel = net.clock.active if hasattr(net, "clock") else 0
    return SynthRun(
        scheme=scheme,
        pattern=pattern,
        offered=rate,
        accepted=net.accepted_load(),
        avg_latency=net.pkt_latency.mean,
        p99_latency=net.pkt_latency.percentile(99),
        cs_fraction=cs,
        energy=compute_energy(net, energy_params),
        messages_delivered=net.messages_delivered,
        cycles=net.measured_cycles,
        slot_wheel=wheel,
        note=note,
        state_hash=final_hash,
    )


#: default injection-rate grid for the load-latency curves (Fig. 4)
DEFAULT_RATES: Sequence[float] = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30,
                                  0.35, 0.40, 0.45, 0.50, 0.55)


def load_latency_sweep(scheme: str, pattern: str,
                       rates: Sequence[float] = DEFAULT_RATES,
                       **kwargs) -> List[SynthRun]:
    """Latency/throughput across an injection-rate grid.

    A rate point that livelocks yields a failed :class:`SynthRun`
    (``run.failed``) rather than aborting the remaining points.
    """
    return [run_synthetic(scheme, pattern, r, **kwargs) for r in rates]


def saturation_throughput(scheme: str, pattern: str,
                          probe_rates: Sequence[float] = (0.45, 0.55, 0.65),
                          **kwargs) -> float:
    """Maximum accepted load: probe deep in saturation and take the best.

    (The standard methodology: offered load beyond saturation, accepted
    throughput plateaus at network capacity.)  Livelocked probes count
    with whatever they accepted before stalling.
    """
    best = 0.0
    for r in probe_rates:
        run = run_synthetic(scheme, pattern, r, **kwargs)
        best = max(best, run.accepted)
    return best
