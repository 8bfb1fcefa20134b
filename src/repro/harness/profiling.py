"""Hot-loop profiling of a loaded simulation epoch (``repro profile``).

Runs one bench-style scenario (burst of traffic, stop, drain — the
``loaded_epoch`` shape) under :mod:`cProfile` and reports the top
frames.  This is the measurement loop behind every hot-path change in
:mod:`repro.sim.kernel` and the router/NI transfer code: optimise what
this shows, re-run, and check the engine ratio with ``repro bench``.

The profile deliberately excludes network construction: the profiler
starts right before ``sim.run`` so the frames are the per-cycle work.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Optional

from repro.harness.runner import prepare_synthetic


def profile_epoch(scheme: str = "hybrid_tdm_vc4",
                  pattern: str = "uniform_random",
                  rate: float = 0.2,
                  cycles: int = 2500,
                  stop_cycle: Optional[int] = 500,
                  engine: str = "fast",
                  seed: int = 1,
                  width: int = 4, height: int = 4,
                  sort: str = "cumulative",
                  limit: int = 25,
                  out: Optional[str] = None) -> str:
    """Profile one loaded epoch; returns the formatted stats report.

    With *out* set the raw :mod:`pstats` dump is also written there
    (loadable with ``python -m pstats`` or snakeviz for drill-down).
    """
    sim, _net, sources = prepare_synthetic(
        scheme, pattern, rate, seed=seed,
        width=width, height=height, engine=engine)
    if stop_cycle is not None:
        for src in sources:
            src.stop_cycle = stop_cycle

    prof = cProfile.Profile()
    prof.enable()
    sim.run(cycles)
    prof.disable()

    if out:
        prof.dump_stats(out)
    buf = io.StringIO()
    stats = pstats.Stats(prof, stream=buf)
    stats.strip_dirs().sort_stats(sort).print_stats(limit)
    header = (f"# {scheme} @ {pattern} rate {rate} "
              f"({'stop@' + str(stop_cycle) + ', ' if stop_cycle else ''}"
              f"{cycles} cycles, {engine} engine, seed {seed})\n")
    return header + buf.getvalue()

