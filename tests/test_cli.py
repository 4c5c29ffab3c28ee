"""Tests for the command-line interface (repro.cli)."""

import json
import os

import pytest

from repro import cli
from repro.cli import EXPERIMENTS, build_parser, main
from repro import config


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["run", "table4"])
        assert args.seed == 0
        assert not args.exact
        assert args.network == "alexnet"


class TestRun:
    def test_table4(self, capsys):
        assert main(["run", "table4"]) == 0
        out = capsys.readouterr().out
        assert "Prefix-sum" in out
        assert "118.30" in out

    def test_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "SparTen" in capsys.readouterr().out

    def test_fig14(self, capsys):
        assert main(["run", "fig14"]) == 0
        assert "pairs" in capsys.readouterr().out

    def test_dataflows(self, capsys):
        assert main(["run", "dataflows", "--layer", "Layer3"]) == 0
        assert "filter-stat" in capsys.readouterr().out

    def test_coarse_pruning(self, capsys):
        assert main(["run", "coarse-pruning"]) == 0
        assert "fine" in capsys.readouterr().out

    def test_seed_changes_workload(self, capsys):
        # coarse-pruning draws its weights from the seed directly.
        main(["run", "coarse-pruning", "--seed", "0"])
        first = capsys.readouterr().out
        main(["run", "coarse-pruning", "--seed", "1"])
        second = capsys.readouterr().out
        assert first != second

    def test_layer_option_changes_output(self, capsys):
        main(["run", "dataflows", "--layer", "Layer2"])
        first = capsys.readouterr().out
        main(["run", "dataflows", "--layer", "Layer4"])
        second = capsys.readouterr().out
        assert first != second

    def test_prescreen(self, capsys):
        """The CLI grid: 6 cluster counts x 5 unit counts, GB-H only."""
        assert main(["run", "prescreen", "--layer", "Layer3"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == (
            "Pre-screened sweep on Layer3: "
            "30 points scored analytically, 3 simulated"
        )

    def test_every_experiment_is_registered_with_description(self):
        for name, (runner, description) in EXPERIMENTS.items():
            assert callable(runner)
            assert len(description) > 10, name


class TestReport:
    def test_report_subcommand_parses(self):
        args = build_parser().parse_args(["report", "-o", "/tmp/r.md"])
        assert args.command == "report"
        assert args.output == "/tmp/r.md"

    def test_generate_report_writes_sections(self, tmp_path, monkeypatch):
        """Wiring test: the writer assembles whatever sections produce
        (the real sections run in the benchmark harness, not here)."""
        from repro.eval import report as report_mod

        monkeypatch.setattr(
            report_mod, "_sections", lambda seed: [("Stub", f"seed={seed}")]
        )
        path = tmp_path / "REPORT.md"
        text = report_mod.generate_report(str(path), seed=7, echo=lambda *_: None)
        assert path.exists()
        assert "## Stub" in text
        assert "seed=7" in text


class TestRunConfig:
    """Flags configure one call through a bound RunConfig, never the env."""

    def test_in_process_calls_leave_env_alone_and_share_no_flags(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_FIDELITY", "analytical")
        monkeypatch.delenv("REPRO_EVENTS", raising=False)
        seen = []
        dispatch = cli._dispatch

        def spy(args):
            seen.append(config.current())
            return dispatch(args)

        monkeypatch.setattr(cli, "_dispatch", spy)
        before = dict(os.environb)
        events_path = tmp_path / "events.jsonl"
        assert main(["estimate", "--network", "alexnet", "--layer", "Layer2"]) == 0
        assert main(["profile", "--layer", "Layer2", "--schemes", "dense",
                     "--trace", str(tmp_path / "trace.json")]) == 0
        assert dict(os.environb) == before
        assert main(["run", "table1", "--events", str(events_path)]) == 0
        assert dict(os.environb) == before
        assert main(["run", "table1"]) == 0
        assert dict(os.environb) == before
        estimate, profile, with_events, plain = seen
        assert estimate.fidelity == "analytical"
        assert profile.fidelity == "timeline"  # --trace raised it for that call
        assert with_events.fidelity == "analytical"
        assert with_events.events == str(events_path)
        assert plain.fidelity == "analytical"
        assert plain.events is None
        assert events_path.exists()

    def test_manifest_env_lists_flags_and_non_default_knobs(
        self, tmp_path, monkeypatch, capsys
    ):
        for var in ("REPRO_EVENTS", "REPRO_METRICS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("REPRO_JOBS", "1")  # the default: not listed
        monkeypatch.setenv("REPRO_CLAIM_TTL", "2")
        events_path = tmp_path / "events.jsonl"
        metrics_path = tmp_path / "metrics.prom"
        manifest_path = tmp_path / "manifest.json"
        assert main([
            "run", "table1", "--events", str(events_path),
            "--metrics", str(metrics_path), "--manifest", str(manifest_path),
        ]) == 0
        manifest = json.loads(manifest_path.read_text())
        env = manifest["env"]
        assert env["REPRO_EVENTS"] == str(events_path)
        assert env["REPRO_METRICS"] == str(metrics_path)
        assert env["REPRO_CLAIM_TTL"] == "2"
        assert "REPRO_JOBS" not in env
        assert all(isinstance(v, str) for v in env.values())
        assert manifest["metrics_snapshot"] == str(metrics_path)
        assert metrics_path.exists()

    @pytest.mark.parametrize("argv, is_store", [
        (["run", "fig7", "--resume", "DIR"], True),
        (["report", "--resume", "DIR"], True),
        (["sweep", "--store", "DIR"], True),
        (["worker", "--store", "DIR"], True),
        (["top", "--store", "DIR"], False),
        (["inspect", "--store", "DIR"], False),
    ])
    def test_only_writing_commands_make_the_flag_dir_the_store(
        self, argv, is_store, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        cfg = cli._run_config(build_parser().parse_args(argv))
        assert cfg.cache_dir == ("DIR" if is_store else None)
