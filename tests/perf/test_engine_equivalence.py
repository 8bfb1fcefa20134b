"""Differential equivalence: the fast engine vs the legacy oracle.

The fast engine is allowed to skip work only when skipping is
unobservable.  These tests enforce that with an exact oracle: the same
workload, built from the same seed, must produce bit-identical
canonical state hashes under both engines at every checkpoint, with
the run-everything legacy scheduler as the baseline.  The pure
divergence report and the engine-selection plumbing are covered too.
"""

from __future__ import annotations

import pytest

from repro.config import SCHEMES
from repro.harness.runner import prepare_synthetic
from repro.harness.verify import compare_engine_runs, verify_equivalence
from repro.sim.kernel import UnknownEngineError, default_engine

ALL_SCHEMES = sorted(SCHEMES)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_engines_equivalent_under_load(scheme):
    report = verify_equivalence(scheme, rate=0.12, cycles=200,
                                interval=100)
    assert report.ok, report.mismatches
    assert report.engines == ("legacy", "fast")
    assert report.checkpoints == 2
    assert report.first_divergence == -1
    assert report.final_hashes["legacy"] == report.final_hashes["fast"]


@pytest.mark.parametrize("scheme",
                         ["packet_vc4", "hybrid_tdm_vc4", "hybrid_sdm_vc4"])
def test_engines_equivalent_through_drain(scheme):
    """Burst then stop the sources: the drain and the quiescent tail are
    where the fast engine sleeps components, so equivalence there is
    the non-trivial half of the property."""
    report = verify_equivalence(scheme, rate=0.25, cycles=400,
                                interval=100, stop_cycle=100)
    assert report.ok, report.mismatches
    assert report.checkpoints == 4


def test_engine_subset_is_selectable():
    """The engine list is ordered: the first is the baseline."""
    report = verify_equivalence("packet_vc4", cycles=100, interval=100,
                                engines=("fast", "legacy"))
    assert report.ok, report.mismatches
    assert report.engines == ("fast", "legacy")
    assert set(report.final_hashes) == {"fast", "legacy"}


def test_rejects_degenerate_engine_lists():
    with pytest.raises(ValueError):
        verify_equivalence("packet_vc4", cycles=100, engines=("fast",))
    with pytest.raises(ValueError):
        verify_equivalence("packet_vc4", cycles=100,
                           engines=("legacy", "legacy"))
    with pytest.raises(UnknownEngineError, match="valid engines"):
        verify_equivalence("packet_vc4", cycles=100,
                           engines=("legacy", "bogus"))


def test_divergence_is_reported_not_swallowed(monkeypatch):
    """Force a divergence and check the report localises it — both the
    cycle and which engine broke from the baseline."""
    from repro.harness import verify as verify_mod

    real_hash = verify_mod.state_hash
    calls = {"n": 0}

    def corrupting_hash(tree):
        calls["n"] += 1
        h = real_hash(tree)
        # second run (fast), second checkpoint -> flip the hash
        return "corrupt" + h if calls["n"] == 4 else h

    monkeypatch.setattr(verify_mod, "state_hash", corrupting_hash)
    report = verify_equivalence("packet_vc4", cycles=200, interval=100)
    assert not report.ok
    assert report.first_divergence == 200
    assert report.divergent_engines == ["fast"]
    assert any("state hash at cycle 200" in m for m in report.mismatches)
    assert any("fast" in m for m in report.mismatches)


# ---------------------------------------------------------------------------
# divergence report (pure comparison core; engine names are opaque labels)
# ---------------------------------------------------------------------------
class TestCompareEngineRuns:
    ENGINES = ("legacy", "fast")

    @staticmethod
    def _fps(n):
        return [{"cycle": (i + 1) * 100, "messages_delivered": 5 * i}
                for i in range(n)]

    def test_all_equal_reports_no_divergence(self):
        hashes = {e: ["h1", "h2", "h3"] for e in self.ENGINES}
        fps = {e: self._fps(3) for e in self.ENGINES}
        cycle, divergent, mismatches = compare_engine_runs(
            self.ENGINES, hashes, fps, interval=100, cycles=300)
        assert (cycle, divergent, mismatches) == (-1, [], [])

    def test_single_engine_divergence_is_attributed(self):
        hashes = {"legacy": ["h1", "h2", "h3"],
                  "fast": ["h1", "hX", "hY"]}
        fps = {e: self._fps(3) for e in self.ENGINES}
        fps["fast"][1] = dict(fps["fast"][1], messages_delivered=99)
        cycle, divergent, mismatches = compare_engine_runs(
            self.ENGINES, hashes, fps, interval=100, cycles=300)
        assert cycle == 200
        assert divergent == ["fast"]
        assert any("fast" in m and "cycle 200" in m for m in mismatches)
        assert any("messages_delivered" in m for m in mismatches)

    def test_multiple_engines_can_diverge_at_one_checkpoint(self):
        """A shared divergence is attributed to every run that broke
        from the baseline, not just the first one compared."""
        runs = ("base", "run_a", "run_b")
        hashes = {"base": ["h1", "h2"],
                  "run_a": ["h1", "hA"],
                  "run_b": ["h1", "hB"]}
        fps = {e: self._fps(2) for e in runs}
        cycle, divergent, mismatches = compare_engine_runs(
            runs, hashes, fps, interval=100, cycles=200)
        assert cycle == 200
        assert divergent == ["run_a", "run_b"]
        assert len([m for m in mismatches if "state hash" in m]) == 2

    def test_truncated_interval_localises_to_run_end(self):
        hashes = {"legacy": ["h1", "h2"], "fast": ["h1", "hX"]}
        fps = {e: self._fps(2) for e in self.ENGINES}
        cycle, divergent, _ = compare_engine_runs(
            self.ENGINES, hashes, fps, interval=100, cycles=150)
        assert cycle == 150          # second checkpoint is the 150 mark
        assert divergent == ["fast"]

    def test_mismatched_checkpoint_counts_rejected(self):
        hashes = {"legacy": ["h1", "h2"], "fast": ["h1"]}
        fps = {"legacy": self._fps(2), "fast": self._fps(1)}
        with pytest.raises(ValueError):
            compare_engine_runs(self.ENGINES, hashes, fps,
                                interval=100, cycles=200)

    def test_fewer_than_two_engines_rejected(self):
        with pytest.raises(ValueError):
            compare_engine_runs(("legacy",), {"legacy": ["h1"]},
                                {"legacy": self._fps(1)},
                                interval=100, cycles=100)


# ---------------------------------------------------------------------------
# engine selection plumbing
# ---------------------------------------------------------------------------
class TestEngineSelection:
    def test_env_override_selects_legacy(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "legacy")
        assert default_engine() == "legacy"
        sim, _, _ = prepare_synthetic("packet_vc4", "uniform_random",
                                      0.0, seed=1, width=3, height=3,
                                      slot_table_size=32)
        assert sim.engine == "legacy"

    def test_env_override_rejects_unknown(self, monkeypatch):
        for name in ("warp", "batch"):
            monkeypatch.setenv("REPRO_ENGINE", name)
            with pytest.raises(UnknownEngineError,
                               match="valid engines: fast, legacy"):
                default_engine()

    def test_explicit_engine_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "legacy")
        sim, _, _ = prepare_synthetic("packet_vc4", "uniform_random",
                                      0.0, seed=1, width=3, height=3,
                                      slot_table_size=32, engine="fast")
        assert sim.engine == "fast"
