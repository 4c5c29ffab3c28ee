"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


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
