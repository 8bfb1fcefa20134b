"""Property-based differential testing of the engines (Hypothesis).

For ANY (scheme, mesh side, rate, cycle count, stop point, seed) the
legacy and activity-tracked engines must agree bit-for-bit.  When
Hypothesis finds a divergence it shrinks toward the smallest workload
that still diverges, and the assertion message
carries the first divergent checkpoint cycle and the diverging engines
from the report — together these pin down a minimal divergent trace
for debugging.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness.verify import verify_equivalence

SCHEMES = ("packet_vc4", "hybrid_tdm_vc4", "hybrid_tdm_vct",
           "hybrid_sdm_vc4")

_settings = settings(max_examples=10, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@given(scheme=st.sampled_from(SCHEMES),
       side=st.integers(min_value=2, max_value=3),
       rate=st.floats(min_value=0.0, max_value=0.3),
       cycles=st.integers(min_value=20, max_value=200),
       stop_frac=st.none() | st.floats(min_value=0.1, max_value=0.9),
       seed=st.integers(min_value=1, max_value=100))
@_settings
def test_engines_agree_on_random_workloads(scheme, side, rate, cycles,
                                           stop_frac, seed):
    stop_cycle = None if stop_frac is None else max(1, int(cycles
                                                           * stop_frac))
    report = verify_equivalence(
        scheme, rate=rate, cycles=cycles, interval=max(1, cycles // 4),
        seed=seed, width=side, height=side, slot_table_size=32,
        stop_cycle=stop_cycle, engines=("legacy", "fast"))
    assert report.ok, (
        f"engines {report.divergent_engines} diverged at cycle "
        f"{report.first_divergence}: {report.mismatches}")
