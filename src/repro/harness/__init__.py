"""Experiment harness (S17): regenerates every table and figure.

* :mod:`repro.harness.runner` — single-run and sweep primitives for the
  synthetic experiments (Section IV).
* :mod:`repro.harness.experiments` — one entry point per paper artefact:
  ``fig4`` (load-latency), ``fig5`` (energy vs injection), ``fig6``
  (scalability), ``fig8`` (realistic workloads), ``fig9`` (energy
  breakdown), ``table3`` (CS flit fractions) plus ablations.
* :mod:`repro.harness.report` — ASCII-table / CSV rendering.

Experiment sizes scale with the ``REPRO_SCALE`` environment variable
(0.25 = smoke test, 1.0 = default, 4.0 = paper-length runs).
"""

from repro.harness.runner import (
    SynthRun,
    prepare_synthetic,
    run_synthetic,
    load_latency_sweep,
    saturation_throughput,
)
from repro.harness.report import format_table, write_csv
from repro.harness.supervisor import (
    SweepConfigError,
    amend_sweep_points,
    build_sweep_points,
    load_results,
    resume_sweep,
    run_supervised_sweep,
)
from repro.harness.executor import LocalProcessExecutor
from repro.harness.verify import ReplayReport, verify_replay
from repro.harness import experiments

__all__ = [
    "SynthRun",
    "prepare_synthetic",
    "run_synthetic",
    "load_latency_sweep",
    "saturation_throughput",
    "format_table",
    "write_csv",
    "experiments",
    "SweepConfigError",
    "amend_sweep_points",
    "build_sweep_points",
    "load_results",
    "resume_sweep",
    "run_supervised_sweep",
    "LocalProcessExecutor",
    "ReplayReport",
    "verify_replay",
]
