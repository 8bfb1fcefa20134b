"""CLI and inspection utility tests."""

import pytest

from repro import inspect as insp
from repro.cli import build_parser, main

from tests.conftest import build, run_traffic


class TestInspect:
    def test_network_summary_fields(self):
        sim, net, _ = run_traffic("hybrid_tdm_vc4", "tornado", 0.2,
                                  warmup=300, measure=700)
        text = insp.network_summary(net)
        assert "TDM network" in text
        assert "TDM wheel" in text
        assert "circuit-switched flit fraction" in text

    def test_slot_table_dump_shows_reservations(self):
        from tests.core.test_circuit import setup_connection
        sim, net = build("hybrid_tdm_vc4", 6, 6)
        setup_connection(sim, net, 0, 3)
        text = insp.slot_table_dump(net, 0)
        assert "router 0" in text
        assert "reserved entries: 4" in text

    def test_slot_table_dump_on_packet_router(self):
        _, net = build("packet_vc4")
        assert "no slot tables" in insp.slot_table_dump(net, 0)

    def test_occupancy_heatmap_dimensions(self):
        _, net = build("packet_vc4", 3, 5)
        lines = insp.occupancy_heatmap(net).splitlines()
        assert len(lines) == 6  # title + 5 rows
        assert all(len(l.split()) == 3 for l in lines[1:])

    def test_vc_power_map(self):
        sim, net = build("hybrid_tdm_vct")
        sim.run(2500)
        text = insp.vc_power_map(net)
        assert "2" in text  # gated to min_vcs when idle

    def test_circuit_listing(self):
        from tests.core.test_circuit import setup_connection
        sim, net = build("hybrid_tdm_vc4", 6, 6)
        setup_connection(sim, net, 0, 3)
        text = insp.circuit_listing(net)
        assert "0 -> 3" in text
        assert "total: 1" in text

    def test_circuit_listing_packet_network(self):
        _, net = build("packet_vc4")
        assert "no circuit control plane" in insp.circuit_listing(net)


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        for cmd in ("sweep", "energy", "hetero", "table3", "fig",
                    "inspect"):
            args = parser.parse_args([cmd] if cmd not in ("fig",)
                                     else [cmd, "fig5"])
            assert args.command == cmd

    def test_sweep_command_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        rc = main(["sweep", "neighbor", "--rates", "0.1",
                   "--schemes", "packet_vc4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Load-latency sweep" in out
        assert "packet_vc4" in out

    def test_energy_command_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        rc = main(["energy", "tornado", "--rate", "0.2"])
        assert rc == 0
        assert "save_%" in capsys.readouterr().out

    def test_inspect_command_runs(self, capsys):
        rc = main(["inspect", "--cycles", "300", "--pattern", "neighbor"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "buffer occupancy" in out

    def test_csv_written(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        csv = str(tmp_path / "sweep.csv")
        rc = main(["sweep", "neighbor", "--rates", "0.1",
                   "--schemes", "packet_vc4", "--csv", csv])
        assert rc == 0
        assert open(csv).readline().startswith("scheme,")

    def test_fig_unknown_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig", "fig7"])

    def test_verify_replay_command_passes(self, capsys):
        rc = main(["verify-replay", "--schemes", "packet_vc4",
                   "--pre", "150", "--post", "150",
                   "--width", "3", "--height", "3",
                   "--slot-table-size", "32"])
        assert rc == 0
        assert "PASS packet_vc4" in capsys.readouterr().out

    def test_verify_equivalence_rejects_unknown_engine(self, capsys):
        from repro.cli import EXIT_CONFIG
        rc = main(["verify-equivalence", "--engines", "legacy,bogus",
                   "--schemes", "packet_vc4"])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert err == ["error: unknown engine 'bogus'; "
                       "valid engines: fast, legacy"]
        assert "PASS" not in captured.out   # rejected before any run

    @pytest.mark.parametrize("name", ["bogus", "batch"])
    def test_run_rejects_unknown_engine_env(self, capsys, monkeypatch,
                                            name):
        from repro.cli import EXIT_CONFIG
        monkeypatch.setenv("REPRO_ENGINE", name)
        rc = main(["run", "packet_vc4", "--width", "3", "--height", "3",
                   "--warmup", "10", "--measure", "10"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert f"REPRO_ENGINE value {name!r}" in err[0]
        assert "valid engines: fast, legacy" in err[0]

    def test_supervised_sweep_requires_run_dir(self, capsys):
        rc = main(["sweep", "neighbor", "--supervised"])
        assert rc == 2
        assert "--run-dir" in capsys.readouterr().err

    def test_supervised_sweep_and_resume(self, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        run_dir = str(tmp_path / "run")
        rc = main(["sweep", "neighbor", "--rates", "0.1",
                   "--schemes", "packet_vc4", "--supervised",
                   "--run-dir", run_dir])
        assert rc == 0
        assert "1/1 points completed" in capsys.readouterr().out
        rc = main(["resume", run_dir])
        assert rc == 0
        assert "(1 already done)" in capsys.readouterr().out

    def test_resume_rejects_corrupt_sweep_spec(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        run_dir = str(tmp_path / "run")
        rc = main(["sweep", "neighbor", "--rates", "0.1",
                   "--schemes", "packet_vc4", "--supervised",
                   "--run-dir", run_dir])
        assert rc == 0
        capsys.readouterr()
        import json as json_mod
        import os
        path = os.path.join(run_dir, "sweep.json")
        spec = json_mod.load(open(path))
        spec["points"][0]["rate"] = 0.9
        json_mod.dump(spec, open(path, "w"))
        rc = main(["resume", run_dir])
        assert rc == 2
        assert "cannot resume" in capsys.readouterr().err

    def test_chaos_command_smoke(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        rc = main(["chaos", "--run-dir", str(tmp_path / "c"),
                   "--points", "2", "--cycles", "2", "--jobs", "2",
                   "--kill-rate", "0", "--corrupt-rate", "0.5",
                   "--diskfull-rate", "0", "--supervisor-kill-rate", "0",
                   "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "CHAOS PASS" in out

    def test_run_command_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        rc = main(["run", "packet_vc4", "--pattern", "neighbor",
                   "--rate", "0.1", "--width", "4", "--height", "4",
                   "--warmup", "200", "--measure", "400"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Run: packet_vc4" in out
        assert "trace:" not in out  # no obs flags -> no obs summary

    def test_run_command_with_metrics(self, tmp_path, capsys, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_SCALE", "0.1")
        metrics = str(tmp_path / "m.json")
        rc = main(["run", "packet_vc4", "--pattern", "neighbor",
                   "--rate", "0.1", "--width", "4", "--height", "4",
                   "--warmup", "200", "--measure", "400",
                   "--metrics", metrics, "--metrics-interval", "50"])
        assert rc == 0
        assert f"wrote {metrics}" in capsys.readouterr().out
        doc = json.load(open(metrics))
        assert doc["interval"] == 50
        assert doc["samples"]

    def test_trace_command_writes_valid_artifacts(self, tmp_path, capsys,
                                                  monkeypatch):
        import json

        from repro.obs import validate_jsonl

        monkeypatch.setenv("REPRO_SCALE", "0.1")
        prefix = str(tmp_path / "tr")
        rc = main(["trace", "hybrid_tdm_vc4", "--out", prefix])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert f"wrote {prefix}.jsonl" in out
        assert validate_jsonl(f"{prefix}.jsonl") > 0
        doc = json.load(open(f"{prefix}.chrome.json"))
        assert doc["traceEvents"]

    def test_sweep_with_metrics_dumps_per_point(self, tmp_path, capsys,
                                                monkeypatch):
        import json

        monkeypatch.setenv("REPRO_SCALE", "0.05")
        out_dir = str(tmp_path / "obs")
        rc = main(["sweep", "neighbor", "--rates", "0.1",
                   "--schemes", "packet_vc4", "--metrics",
                   "--run-dir", out_dir])
        assert rc == 0
        metrics = tmp_path / "obs" / "packet_vc4-neighbor-0.1.metrics.json"
        assert metrics.exists()
        assert json.load(open(metrics))["samples"]


class TestSweepDryRun:
    def test_dry_run_prints_points_and_runs_nothing(self, tmp_path,
                                                    capsys):
        run_dir = str(tmp_path / "run")
        rc = main(["sweep", "neighbor", "--rates", "0.1,0.2",
                   "--schemes", "packet_vc4", "--supervised",
                   "--run-dir", run_dir, "--dry-run"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Dry run: resolved sweep points" in out
        assert "2 point(s)" in out
        assert "sweep config hash" in out
        assert "dry run: nothing executed" in out
        import os
        assert not os.path.exists(run_dir)

    def test_dry_run_hash_matches_real_run(self, tmp_path, capsys,
                                           monkeypatch):
        """The printed config hash must equal what a real supervised
        run records — otherwise the dry run lies about resumability."""
        import json

        monkeypatch.setenv("REPRO_SCALE", "0.05")
        rc = main(["sweep", "neighbor", "--rates", "0.1",
                   "--schemes", "packet_vc4", "--dry-run"])
        assert rc == 0
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if "sweep config hash" in line][0].split()[-1]
        run_dir = str(tmp_path / "run")
        rc = main(["sweep", "neighbor", "--rates", "0.1",
                   "--schemes", "packet_vc4", "--supervised",
                   "--run-dir", run_dir])
        assert rc == 0
        capsys.readouterr()
        from repro.harness import store as hstore
        doc = hstore.read_json_self_hashed(f"{run_dir}/sweep.json")
        assert doc["config_hash"] == printed

    def test_dry_run_rejects_unknown_pattern(self, capsys):
        rc = main(["sweep", "vortex", "--dry-run"])
        assert rc == 2
        assert "unknown pattern" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["plain", "supervised", "dry-run"])
    @pytest.mark.parametrize("pattern,schemes,message", [
        ("bogus", "packet_vc4", "unknown pattern"),
        ("neighbor", "packet_vc9", "unknown scheme"),
    ], ids=["pattern", "scheme"])
    def test_every_mode_rejects_unknown_pattern_or_scheme(
            self, tmp_path, capsys, monkeypatch, mode, pattern, schemes,
            message):
        """A bad pattern or scheme is a configuration error in every
        sweep mode: exit 2 before any worker runs or any point is
        written."""
        import os

        monkeypatch.setenv("REPRO_SCALE", "0.05")
        monkeypatch.chdir(tmp_path)
        run_dir = str(tmp_path / "run")
        argv = ["sweep", pattern, "--rates", "0.1", "--schemes", schemes]
        if mode == "supervised":
            argv += ["--supervised", "--run-dir", run_dir]
        elif mode == "dry-run":
            argv += ["--dry-run"]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(os.path.join(run_dir, "points"))

    def test_dry_run_rejects_bad_supervisor_config(self, tmp_path,
                                                   capsys):
        rc = main(["sweep", "neighbor", "--supervised",
                   "--run-dir", str(tmp_path / "run"),
                   "--lease-ttl", "1", "--heartbeat-interval", "5",
                   "--dry-run"])
        assert rc == 2
        assert "heartbeat" in capsys.readouterr().err


class TestExitCodes:
    """One uniform exit-code table across every command (README)."""

    def test_classification_table(self):
        import urllib.error

        from repro.cli import (EXIT_CONFIG, EXIT_TRANSIENT,
                               _classify_exit)
        from repro.harness.supervisor import SweepConfigError

        assert _classify_exit(SweepConfigError("x")) == EXIT_CONFIG
        assert _classify_exit(ConnectionRefusedError()) == EXIT_TRANSIENT
        assert _classify_exit(urllib.error.URLError("down")) \
            == EXIT_TRANSIENT
        assert _classify_exit(ValueError("bug")) is None

    def test_interrupt_maps_to_130(self, capsys, monkeypatch):
        import repro.cli as cli

        def boom(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_sweep", boom)
        assert cli.main(["sweep"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_genuine_bug_propagates(self, monkeypatch):
        import repro.cli as cli

        def boom(args):
            raise RuntimeError("bug, not an exit code")

        monkeypatch.setattr(cli, "cmd_sweep", boom)
        with pytest.raises(RuntimeError):
            cli.main(["sweep"])


class TestHeteroCLI:
    def test_record_replay_roundtrip(self, tmp_path, capsys):
        prefix = str(tmp_path / "mix")
        rc = main(["hetero", "ART", "BLACKSCHOLES",
                   "--schemes", "hybrid_tdm_vc4",
                   "--warmup", "300", "--measure", "800",
                   "--record", prefix])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recorded" in out and prefix in out
        rc = main(["hetero", "--replay", prefix,
                   "--schemes", "packet_vc4,hybrid_tdm_vc4",
                   "--warmup", "300", "--measure", "800"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Trace replay" in out
        assert "packet_vc4" in out and "hybrid_tdm_vc4" in out

    def test_phased_flag_runs(self, capsys):
        rc = main(["hetero", "ART", "BLACKSCHOLES",
                   "--schemes", "packet_vc4", "--phased",
                   "--policy", "feedback",
                   "--warmup", "200", "--measure", "500"])
        assert rc == 0
        assert "Heterogeneous mix" in capsys.readouterr().out

    def test_bench_unknown_scenario_is_config_error(self, capsys):
        rc = main(["bench", "--scenarios", "not_a_scenario"])
        assert rc == 2
        assert "unknown bench scenario" in capsys.readouterr().err
