"""Tests for the `python -m repro.bench` and `python -m repro.obs.trace`
command-line runners."""

import json

import pytest

from repro.bench.__main__ import main
from repro.bench.paper import EXPERIMENTS
from repro.obs.trace import main as trace_main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_fast_experiment(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "stingray" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_every_listed_experiment_importable(self):
        import importlib
        for name, experiment in EXPERIMENTS.items():
            module = importlib.import_module(
                "repro.bench.experiments." + name)
            assert callable(module.run)
            assert experiment.description
            names = [claim.name for claim in experiment.claims]
            assert len(names) == len(set(names)), name


class TestTraceCli:
    def test_writes_chrome_trace_artifact(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert trace_main(["--ops", "6", "--output", str(out),
                           "--metrics-output", str(metrics),
                           "--metrics-interval-us", "5000"]) == 0
        document = json.loads(out.read_text())
        events = document["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        cats = {e["cat"] for e in events if e["ph"] == "X"}
        assert {"client", "net", "engine", "device"} <= cats
        assert json.loads(metrics.read_text())
        err = capsys.readouterr().err
        assert "traced" in err and "coverage" in err

    def test_stdout_output(self, capsys):
        assert trace_main(["--ops", "2", "--jbofs", "2"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["traceEvents"]

    def test_deterministic_across_runs(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert trace_main(["--ops", "4", "--output", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("module", [
    "repro.bench", "repro.scenarios", "repro.lint", "repro.lint.sanitize"])
def test_help_of_every_entry_point_exits_zero(module):
    """``--help`` formats every option's help string (argparse applies
    ``%`` to it), so a stray ``%`` only shows up here."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-m", module, "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "usage" in done.stdout.lower()


@pytest.mark.parametrize("entry, argv", [
    ("repro.scenarios.cli", ["run", "diurnal", "--workers", "1"]),
])
def test_engine_options_are_gone(entry, argv, capsys):
    """There is one engine: selectors of another are rejected at
    argparse, before anything runs."""
    import importlib

    with pytest.raises(SystemExit) as refusal:
        importlib.import_module(entry).main(argv)
    assert refusal.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()
