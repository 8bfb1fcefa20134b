"""Harness tests: runner primitives, report rendering, experiments."""

import os

import pytest

from repro.harness import experiments as E
from repro.harness.report import format_table, write_csv
from repro.harness.runner import (
    DEFAULT_RATES,
    SynthRun,
    load_latency_sweep,
    run_synthetic,
    saturation_throughput,
    scale,
    scaled,
)


@pytest.fixture(autouse=True)
def small_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.25")


class TestScaling:
    def test_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert scale() == 2.5
        assert scaled(1000) == 2500

    def test_scale_invalid_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "lots")
        assert scale() == 1.0

    def test_scaled_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        assert scaled(1000) >= 200


class TestRunner:
    def test_run_synthetic_returns_complete_record(self):
        r = run_synthetic("hybrid_tdm_vc4", "tornado", 0.2, seed=2)
        assert isinstance(r, SynthRun)
        assert r.scheme == "hybrid_tdm_vc4"
        assert r.accepted > 0
        assert r.avg_latency > 0
        assert r.p99_latency >= r.avg_latency
        assert r.energy.total > 0
        assert r.slot_wheel >= 2
        assert r.energy_per_message_pj > 0

    def test_packet_run_has_no_cs(self):
        r = run_synthetic("packet_vc4", "tornado", 0.2, seed=2)
        assert r.cs_fraction == 0.0
        assert r.slot_wheel == 0

    def test_sweep_covers_rates(self):
        runs = load_latency_sweep("packet_vc4", "neighbor",
                                  rates=(0.05, 0.2), seed=2)
        assert [r.offered for r in runs] == [0.05, 0.2]

    def test_saturation_at_least_single_probe(self):
        sat = saturation_throughput("packet_vc4", "neighbor",
                                    probe_rates=(0.5,), seed=2)
        assert sat > 0.2

    def test_default_rates_ascending(self):
        assert list(DEFAULT_RATES) == sorted(DEFAULT_RATES)

    def test_state_hash_independent_of_process_history(self):
        """The canonical state hash must be a function of the run, not
        of how many objects this process allocated before it: a forked
        worker and a fresh interpreter have to agree on it (a resumed
        sweep may re-run a point in either)."""
        kw = dict(width=3, height=3, slot_table_size=32,
                  warmup=150, measure=250, seed=1,
                  with_state_hash=True)
        first = run_synthetic("packet_vc4", "uniform_random", 0.1, **kw)
        # pollute the global allocators as a long test session would
        from repro.network.flit import Message, MessageClass
        for _ in range(1000):
            Message(0, 1, MessageClass.DATA, 1, 0)
        second = run_synthetic("packet_vc4", "uniform_random", 0.1, **kw)
        assert first.state_hash
        assert first.state_hash == second.state_hash
        assert first.messages_delivered == second.messages_delivered


class TestLivelockSurvival:
    """A livelocked point degrades to a failed SynthRun, never an abort."""

    @pytest.fixture
    def livelock_everything(self, monkeypatch):
        from repro.sim.kernel import LivelockError, Simulator

        def boom(self, cycles):
            raise LivelockError(self.cycle, 3, 100, {"injected": True})

        monkeypatch.setattr(Simulator, "run", boom)

    def test_run_synthetic_survives_livelock(self, livelock_everything):
        r = run_synthetic("packet_vc4", "tornado", 0.2, seed=2)
        assert r.failed
        assert r.note.startswith("livelock@")
        assert r.messages_delivered == 0

    def test_sweep_keeps_going_past_livelock(self, livelock_everything):
        runs = load_latency_sweep("packet_vc4", "neighbor",
                                  rates=(0.05, 0.2), seed=2)
        assert len(runs) == 2
        assert all(r.failed for r in runs)

    def test_saturation_survives_livelock(self, livelock_everything):
        sat = saturation_throughput("packet_vc4", "neighbor",
                                    probe_rates=(0.5,), seed=2)
        assert sat == 0.0


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(("a", "beta"), [(1, 2.5), (10, 0.001)],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "beta" in lines[1]
        assert len(lines) == 5

    def test_write_csv(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_csv(path, ("x", "y"), [(1, 2), (3, 4)])
        content = open(path).read().strip().splitlines()
        assert content[0] == "x,y"
        assert content[1:] == ["1,2", "3,4"]

    def test_nan_renders_as_na_in_tables(self):
        nan, inf = float("nan"), float("inf")
        text = format_table(("lat",), [(nan,), (inf,), (1.5,)])
        cells = [line.strip() for line in text.splitlines()[2:]]
        assert cells == ["n/a", "n/a", "1.500"]
        assert "nan" not in text and "inf" not in text

    def test_nan_csv_round_trip(self, tmp_path):
        """Livelocked points write an *empty* cell, never 'nan', and the
        emptiness survives a csv read-back."""
        import csv

        path = str(tmp_path / "out.csv")
        write_csv(path, ("rate", "lat"),
                  [(0.1, 12.5), (0.9, float("nan"))])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["rate", "lat"], ["0.1", "12.5"], ["0.9", ""]]


class TestExperiments:
    """Each experiment entry point must run end to end (tiny sizes)."""

    def test_fig4_smoke(self):
        res = E.fig4(patterns=("tornado",),
                     schemes=("packet_vc4", "hybrid_tdm_vc4"),
                     rates=(0.1, 0.45), seed=2)
        assert res.rows
        assert "saturation" in res.notes
        assert "tornado" in str(res.extra["curves"].keys()) or \
            ("tornado", "packet_vc4") in res.extra["curves"]
        assert res.text

    def test_fig5_smoke(self):
        res = E.fig5(patterns=("tornado",), rates=(0.2,), seed=2)
        assert len(res.rows) == 1
        row = res.rows[0]
        assert row[0] == "TOR"

    def test_fig6_smoke(self):
        res = E.fig6(sizes=(4,), patterns=("tornado",), seed=2)
        assert len(res.rows) == 1
        mesh, pattern, sat_p, sat_h, thr, esave, cs = res.rows[0]
        assert mesh == "4x4"
        assert sat_p > 0 and sat_h > 0

    def test_fig8_smoke(self):
        res = E.fig8(gpu_benchmarks=("HOTSPOT",),
                     cpu_benchmarks=("EQUAKE",),
                     schemes=("packet_vc4", "hybrid_tdm_vc4"),
                     measure=1500, seed=2)
        assert any(r[0] == "AVG" for r in res.rows)
        data_rows = [r for r in res.rows if r[0] != "AVG"]
        assert len(data_rows) == 1

    def test_fig9_smoke(self):
        res = E.fig9(gpu_benchmarks=("HOTSPOT",), cpu_benchmarks=("ART",),
                     measure=1500, seed=2)
        comps = {r[2] for r in res.rows}
        assert comps == {"buffer", "cs", "xbar", "arbiter", "clock",
                         "link"}
        assert "51.3" in res.notes  # paper reference numbers quoted

    def test_table3_smoke(self):
        res = E.table3(gpu_benchmarks=("STO",), measure=1500, seed=2)
        assert len(res.rows) == 1
        gpu, inj, inj_paper, cs, cs_paper = res.rows[0]
        assert gpu == "STO"
        assert inj_paper == 0.05
        assert cs_paper == 18.5

    def test_ablation_slot_table(self):
        res = E.ablation_slot_table(sizes=(8, 64), rate=0.2, seed=2)
        assert len(res.rows) == 2

    def test_ablation_stealing(self):
        res = E.ablation_stealing(rate=0.2, seed=2)
        assert {r[0] for r in res.rows} == {"on", "off"}

    def test_ablation_sharing(self):
        res = E.ablation_sharing(gpu_benchmarks=("HOTSPOT",),
                                 measure=1200, seed=2)
        assert len(res.rows) == 2

    def test_ablation_vc_gating(self):
        res = E.ablation_vc_gating(measure=1200, seed=2)
        assert len(res.rows) == 2
        labels = {r[0] for r in res.rows}
        assert "packet_vc4+gating" in labels
