"""The run configuration: one parse table, one bound config, no env writes."""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import threading
import uuid

import pytest

from repro import config, telemetry
from repro.config import KNOBS, RunConfig

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Knobs whose raw value is parsed (and so can be garbage).
VALIDATED = [k for k in KNOBS if k.kind in (int, float) or k.choices]

#: ``os.environ`` methods that change the environment.
_ENV_WRITERS = {"setdefault", "pop", "update", "clear", "popitem", "__setitem__", "__delitem__"}


class TestParseTable:
    def test_one_knob_per_field_with_unique_names(self):
        assert [k.field for k in KNOBS] == [f.name for f in dataclasses.fields(RunConfig)]
        names = [k.env for k in KNOBS]
        assert len(set(names)) == len(names) == 25
        assert all(name.startswith("REPRO_") for name in names)

    def test_empty_environment_is_all_defaults(self):
        assert RunConfig.from_env({}) == RunConfig()
        assert RunConfig().as_env() == {}

    @pytest.mark.parametrize("knob", VALIDATED, ids=lambda k: k.env)
    def test_garbage_warns_once_and_yields_the_default(self, knob, capsys):
        raw = f"garbage-{uuid.uuid4().hex[:8]}"
        telemetry.reset()
        try:
            for _ in range(3):
                cfg = RunConfig.from_env({knob.env: raw})
                assert getattr(cfg, knob.field) == knob.default
            assert telemetry.get_recorder().counters()["env.invalid"] == 1
        finally:
            telemetry.reset()
        err = capsys.readouterr().err
        assert err.count(raw) == 1
        assert knob.env in err

    def test_below_minimum_clamps(self):
        cfg = RunConfig.from_env({"REPRO_JOBS": "-17", "REPRO_CLAIM_TTL": "0.0001"})
        assert cfg.jobs == 1
        assert cfg.claim_ttl == 0.1

    @pytest.mark.parametrize("run", ["first", "second"])
    def test_a_bad_value_warns_again_in_a_later_test(self, run, monkeypatch, capsys):
        # conftest clears the warn-once registry per test: the same
        # (variable, value) warns in each of these two runs.
        monkeypatch.setenv("REPRO_JOBS", "-4")
        assert config.current().jobs == 1
        assert "REPRO_JOBS" in capsys.readouterr().err

    def test_equal_values_parse_to_equal_configs(self):
        assert RunConfig.from_env({"REPRO_ITEM_TIMEOUT": "0"}) == RunConfig.from_env(
            {"REPRO_ITEM_TIMEOUT": "0.0"}
        )
        assert RunConfig.from_env({"REPRO_PROGRESS": "1"}).progress == "on"
        assert RunConfig.from_env({"REPRO_LOG_LEVEL": " DEBUG "}).log_level == "debug"

    def test_text_knobs_keep_an_explicit_empty_value(self):
        assert RunConfig.from_env({"REPRO_EVENTS": ""}).events == ""
        assert RunConfig.from_env({}).events is None

    def test_as_env_renders_non_default_knobs(self):
        cfg = dataclasses.replace(
            RunConfig(), events="e.jsonl", claim_ttl=2.0, retry_backoff=0.25,
            no_native=True, jobs=1,
        )
        assert cfg.as_env() == {
            "REPRO_EVENTS": "e.jsonl",
            "REPRO_CLAIM_TTL": "2",
            "REPRO_RETRY_BACKOFF": "0.25",
            "REPRO_NO_NATIVE": "1",
        }
        assert RunConfig.from_env(cfg.as_env()) == cfg


class TestBinding:
    def test_unbound_follows_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIDELITY", "timeline")
        assert config.current().fidelity == "timeline"
        monkeypatch.setenv("REPRO_FIDELITY", "trace")
        assert config.current().fidelity == "trace"

    def test_use_binds_for_the_block_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD", "0/2")
        outer = config.current()
        with config.use(dataclasses.replace(outer, shard="1/2")) as inner:
            assert config.current() is inner
            assert config.current().shard == "1/2"
        assert config.current() == outer

    def test_new_threads_start_unbound(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD", raising=False)
        seen = {}
        with config.use(dataclasses.replace(config.current(), shard="1/2")):
            thread = threading.Thread(target=lambda: seen.update(cfg=config.current()))
            thread.start()
            thread.join()
        assert seen["cfg"].shard is None


def _env_attr(node: ast.AST) -> bool:
    """Whether *node* is ``os.environ``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _env_writes(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        for target in targets:
            if isinstance(target, ast.Subscript) and _env_attr(target.value):
                lines.append(node.lineno)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if _env_attr(func.value) and func.attr in _ENV_WRITERS:
                lines.append(node.lineno)
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "os"
                and func.attr in ("putenv", "unsetenv")
            ):
                lines.append(node.lineno)
    return sorted(lines)


def _repro_names(tree: ast.AST) -> list[int]:
    """Lines naming a ``REPRO_*`` variable as a bare string (an env read)."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith("REPRO_")
        and node.value.replace("_", "").isalnum()
        and node.value.isupper()
    )


def test_tripwire_no_env_writes_and_repro_reads_only_in_config():
    writes, reads = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = path.relative_to(SRC).as_posix()
        writes += [f"{rel}:{line}" for line in _env_writes(tree)]
        if rel != "config.py":
            reads += [f"{rel}:{line}" for line in _repro_names(tree)]
    assert writes == [], f"os.environ writes under src/: {writes}"
    assert reads == [], f"REPRO_* names read outside config.py: {reads}"


def test_tripwire_catches_what_it_looks_for():
    source = (
        "import os\n"
        "os.environ['REPRO_X'] = '1'\n"
        "del os.environ['REPRO_X']\n"
        "os.environ.setdefault('A', 'b')\n"
        "os.environ.pop('A', None)\n"
        "os.environ.update(A='b')\n"
        "os.putenv('A', 'b')\n"
        "v = os.environ.get('REPRO_JOBS')\n"
        "w = [k for k in os.environ if k.startswith('REPRO_')]\n"
        "doc = 'set REPRO_JOBS to fan out'\n"
    )
    tree = ast.parse(source)
    assert _env_writes(tree) == [2, 3, 4, 5, 6, 7]
    assert _repro_names(tree) == [2, 3, 8, 9]
