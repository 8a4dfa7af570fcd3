"""Tests for the `python -m repro.bench` command-line runner and the
``--help`` of every entry point."""

import pytest

from repro.bench.__main__ import main
from repro.bench.paper import EXPERIMENTS


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
