"""simlint rule catalog, suppressions, CLI, tree cleanliness, and the
order-dependence sanitizer.

Each rule gets a positive fixture (must fire with the right rule ID),
a clean fixture (must stay silent), and a suppression fixture.  The
fixtures are written under ``tmp_path`` in a ``repro/<layer>/``
layout so scope and layering resolution work exactly as on the real
tree.
"""

import re
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.lint import run, to_text
from repro.lint.rules import catalog_lines, catalog_range, default_rules

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_snippet(tmp_path, relpath, code):
    """Write ``code`` at ``tmp_path/relpath`` and lint the tree."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code), encoding="utf-8")
    return run([str(tmp_path)])


def rules_hit(report):
    return {finding.rule for finding in report.findings}


class TestSIM001DirectRandomUse:
    def test_import_random_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/bad.py", """\
            import random

            def jitter():
                return random.random()
            """)
        assert "SIM001" in rules_hit(report)
        assert report.exit_code == 1

    def test_from_random_import_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/hw/bad.py", """\
            from random import choice
            """)
        assert "SIM001" in rules_hit(report)

    def test_named_stream_clean(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/good.py", """\
            from repro.sim.rng import derive_stream

            def jitter(seed):
                return derive_stream(seed, "core.jitter").random()
            """)
        assert report.exit_code == 0

    def test_rng_module_allowlisted(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/sim/rng.py", """\
            import random

            RandomStream = random.Random
            """)
        assert "SIM001" not in rules_hit(report)

    def test_suppression(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/bad.py", """\
            import random  # simlint: ignore[SIM001]
            """)
        assert report.exit_code == 0


class TestSIM002WallClockUse:
    def test_time_time_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/bad.py", """\
            import time

            def stamp():
                return time.time()
            """)
        assert "SIM002" in rules_hit(report)

    def test_datetime_now_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/net/bad.py", """\
            import datetime

            def stamp():
                return datetime.datetime.now()
            """)
        assert "SIM002" in rules_hit(report)

    def test_from_time_import_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/hw/bad.py", """\
            from time import perf_counter
            """)
        assert "SIM002" in rules_hit(report)

    def test_sim_clock_clean(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/good.py", """\
            def stamp(sim):
                return sim.now
            """)
        assert report.exit_code == 0

    def test_bench_main_allowlisted(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/bench/__main__.py", """\
            import time

            def wall_elapsed(start):
                return time.perf_counter() - start
            """)
        assert "SIM002" not in rules_hit(report)


class TestSIM003UnsortedSetIteration:
    def test_set_iteration_in_core_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/bad.py", """\
            def fanout(replicas: set):
                peers = {1, 2, 3}
                for peer in peers:
                    yield peer
            """)
        assert "SIM003" in rules_hit(report)

    def test_attribute_set_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/net/bad.py", """\
            class Switch:
                def __init__(self):
                    self.links = set()

                def broadcast(self):
                    return [link for link in self.links]
            """)
        assert "SIM003" in rules_hit(report)

    def test_sorted_iteration_clean(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/good.py", """\
            def fanout():
                peers = {1, 2, 3}
                for peer in sorted(peers):
                    yield peer
            """)
        assert report.exit_code == 0

    def test_out_of_scope_layer_clean(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/workloads/ok.py", """\
            def fanout():
                peers = {1, 2, 3}
                for peer in peers:
                    yield peer
            """)
        assert "SIM003" not in rules_hit(report)

    def test_rebound_name_not_flagged(self, tmp_path):
        # Flow-sensitivity regression: a name that is later rebound to
        # a sorted list (the membership.py `gainers` idiom) must not
        # be reported at its post-rebinding loop.
        report = lint_snippet(tmp_path, "repro/core/ok.py", """\
            def plan(gainers):
                gainers = set(gainers)
                gainers = sorted(gainers)
                for node in gainers:
                    yield node
            """)
        assert "SIM003" not in rules_hit(report)

    def test_suppression(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/bad.py", """\
            def any_one(peers: set):
                peers = {1, 2}
                for peer in peers:  # simlint: ignore[SIM003]
                    return peer
            """)
        assert report.exit_code == 0


class TestSIM004ImportLayering:
    def test_hw_importing_core_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/hw/bad.py", """\
            from repro.core.datastore import StoreConfig
            """)
        assert "SIM004" in rules_hit(report)

    def test_sim_importing_anything_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/sim/bad.py", """\
            import repro.net.topology
            """)
        assert "SIM004" in rules_hit(report)

    def test_from_repro_import_resolved(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/net/bad.py", """\
            from repro import telemetry
            """)
        assert "SIM004" in rules_hit(report)

    def test_bench_importing_scenarios_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/bench/bad.py", """\
            from repro.scenarios.runner import run_scenario
            """)
        assert "SIM004" in rules_hit(report)

    def test_downward_import_clean(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/good.py", """\
            from repro.hw.ssd import NVMeSSD
            from repro.sim.core import Simulator
            """)
        assert report.exit_code == 0

    def test_suppression(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/hw/bad.py", """\
            from repro.core.datastore import StoreConfig  # simlint: ignore[SIM004]
            """)
        assert report.exit_code == 0


class TestSIM005MutableSharedState:
    def test_mutable_default_arg_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/bad.py", """\
            def collect(key, acc=[]):
                acc.append(key)
                return acc
            """)
        assert "SIM005" in rules_hit(report)

    def test_module_level_mutable_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/net/bad.py", """\
            pending = {}
            """)
        assert "SIM005" in rules_hit(report)

    def test_uppercase_constant_clean(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/good.py", """\
            DEFAULT_SIZES = (64, 128, 256)
            _CACHE_LINE = 64
            """)
        assert report.exit_code == 0

    def test_dunder_all_clean(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/__init__.py", """\
            __all__ = ["LeedCluster"]
            """)
        assert report.exit_code == 0

    def test_none_default_clean(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/good.py", """\
            def collect(key, acc=None):
                acc = acc if acc is not None else []
                acc.append(key)
                return acc
            """)
        assert report.exit_code == 0

    def test_suppression(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/bad.py", """\
            registry = {}  # simlint: ignore[SIM005]
            """)
        assert report.exit_code == 0


class TestSIM006CrossShardNodeCall:
    def test_loop_over_registry_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/bad.py", """\
            class Cluster:
                def shutdown(self):
                    for node in self.jbofs:
                        node.stop()
            """)
        assert "SIM006" in rules_hit(report)

    def test_registry_get_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/bad.py", """\
            class ControlPlane:
                def copy(self, address, arcs):
                    node = self._jbofs.get(address)
                    node.begin_mirror(arcs)
            """)
        assert "SIM006" in rules_hit(report)

    def test_registry_subscript_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/bad.py", """\
            class Cluster:
                def poke(self, index):
                    self.jbofs[index].heartbeat()
            """)
        assert "SIM006" in rules_hit(report)

    def test_comprehension_over_registry_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/bad.py", """\
            class Cluster:
                def drain(self):
                    return [node.flush() for node in self.jbofs]
            """)
        assert "SIM006" in rules_hit(report)

    def test_attribute_reads_clean(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/good.py", """\
            class Cluster:
                def addresses(self):
                    return [node.address for node in self.jbofs]

                def built(self):
                    return [node.built_at for node in sorted(
                        self._jbofs.values(), key=lambda n: n.address)]
            """)
        assert report.exit_code == 0

    def test_bootstrap_allowlist_clean(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/good.py", """\
            class ControlPlane:
                def bootstrap(self, payload):
                    for node in self._jbofs.values():
                        node.apply_membership(payload)
            """)
        assert report.exit_code == 0

    def test_rpc_path_clean(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/good.py", """\
            class Cluster:
                def shutdown(self):
                    for node in self.jbofs:
                        self.rpc.notify(node.address, "node_stop", None, 16)
            """)
        assert report.exit_code == 0

    def test_out_of_scope_clean(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/bench/tooling.py", """\
            class Report:
                def collect(self, cluster):
                    return [node.report() for node in cluster.jbofs]
            """)
        assert report.exit_code == 0

    def test_suppression(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/bad.py", """\
            class Cluster:
                def shutdown(self):
                    for node in self.jbofs:
                        node.stop()  # simlint: ignore[SIM006]
            """)
        assert report.exit_code == 0


class TestSIM010ClockAssignment:
    def test_plain_assignment_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/bad.py", """\
            def fast_forward(sim, when):
                sim.now = when
            """)
        assert "SIM010" in rules_hit(report)
        assert report.exit_code == 1

    def test_augmented_assignment_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/hw/bad.py", """\
            class Device:
                def stall(self, delay):
                    self.sim.now += delay
            """)
        assert "SIM010" in rules_hit(report)

    def test_unpacking_and_loop_targets_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/workloads/bad.py", """\
            def replay(sim, stamps):
                sim.now, first = stamps[0], stamps[1]
                for sim.now in stamps:
                    pass
            """)
        assert [f.rule for f in report.findings].count("SIM010") == 2

    def test_reads_and_local_names_clean(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/good.py", """\
            def elapsed(sim, started):
                now = sim.now
                later = now + 1.0
                return sim.now - started, later
            """)
        assert report.exit_code == 0

    def test_the_event_loop_itself_is_exempt(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/sim/loop.py", """\
            class Simulator:
                def step(self, when):
                    self.now = when
            """)
        assert report.exit_code == 0

    def test_suppression(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/meh.py", """\
            def rewind(sim):
                sim.now = 0.0  # simlint: ignore[SIM010]
            """)
        assert report.exit_code == 0


class TestSuppressions:
    def test_bare_ignore_covers_all_rules(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/bad.py", """\
            import random  # simlint: ignore
            """)
        assert report.exit_code == 0

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/bad.py", """\
            import random  # simlint: ignore[SIM005]
            """)
        assert "SIM001" in rules_hit(report)


class TestReports:
    def test_text_format_carries_location_and_rule(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/bad.py", """\
            import random
            """)
        text = to_text(report)
        assert "SIM001" in text
        assert "bad.py:1:" in text
        assert "1 finding" in text

    def test_syntax_error_reported_as_error(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/broken.py", """\
            def oops(:
            """)
        assert report.exit_code == 2
        assert report.errors


class TestShippedTree:
    def test_src_is_lint_clean(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src"],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 findings" in proc.stdout

    def test_cli_text_on_seeded_violation(self, tmp_path):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(tmp_path)],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 1
        assert "bad.py:1:" in proc.stdout
        assert "SIM001" in proc.stdout

    def test_list_rules(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--list-rules"],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0
        assert [line.split()[0] for line in proc.stdout.splitlines()] == [
            "SIM001", "SIM002", "SIM003", "SIM004", "SIM005", "SIM006",
            "SIM010"]

    def test_catalog_header_is_generated(self):
        import repro.lint.rules as rules_mod
        assert catalog_range() == "SIM001-SIM006, SIM010"
        for line in catalog_lines():
            assert line in rules_mod.__doc__

    def test_doc_table_rows_are_the_rules(self):
        """``docs/static-analysis.md`` keeps one planted-bug row per
        registered rule: a rule added without its row, or a row left
        for a deleted rule, fails here."""
        text = (REPO_ROOT / "docs" / "static-analysis.md").read_text(
            encoding="utf-8")
        section = text.split("\n## What each check catches\n", 1)[1]
        section = section.split("\n## ", 1)[0]
        rows = re.findall(r"^\| (SIM\d{3}) \|", section, re.M)
        assert rows == [rule.rule_id for rule in default_rules()]


class TestOrderDependenceSanitizer:
    # A reduced shape keeps the three sanitized runs inside the
    # tier-1 budget; the full ``RUN_SHAPES["smoke"]`` shape runs in CI via
    # ``python -m repro.lint.sanitize``.
    SHAPE = dict(records=60, ops=120, concurrency=8,
                 num_jbofs=2, num_clients=2, value_size=64, seed=11)

    def test_figure_digest_invariant_across_permutations(self):
        from repro.lint.sanitize import verify
        report = verify("B", permutations=3, **self.SHAPE)
        assert len(report.probes) == 4  # FIFO baseline + 3 permutations
        assert report.figure_invariant, report.format()
        assert report.schedules_permuted, report.format()
        assert report.clean
        for probe in report.probes:
            assert probe.ops_completed == 120
            assert probe.ops_failed == 0
            assert probe.keys_verified == probe.keys_checked == 60
            assert not probe.mismatches

    def test_compacting_run_is_invariant_across_permutations(self,
                                                            monkeypatch):
        """12 000 WR ops on the smoke shape fill key logs past their
        watermark: every ordering runs trigger-started key-log rounds
        and still reads back the same figure (CI's compacting step)."""
        from repro.bench.harness import build_cluster
        from repro.lint import sanitize
        clusters = []

        def recording_build_cluster(*args, **kwargs):
            clusters.append(build_cluster(*args, **kwargs))
            return clusters[-1]

        monkeypatch.setattr(sanitize, "build_cluster",
                            recording_build_cluster)
        report = sanitize.verify("WR", permutations=2, ops=12_000)
        assert report.clean, report.format()
        assert len(clusters) == 3
        for cluster in clusters:
            assert sum(runtime.compactor.stats.key_rounds
                       for node in cluster.jbofs
                       for runtime in node.vnodes.values()) >= 1

    def test_same_sanitize_seed_reproduces_schedule(self):
        from repro.lint.sanitize import run_probe
        first = run_probe("B", 1, **self.SHAPE)
        second = run_probe("B", 1, **self.SHAPE)
        assert first.schedule_digest == second.schedule_digest
        assert first.figure_digest == second.figure_digest

    def test_simulator_sanitize_flag(self):
        """``enable_tie_permutation`` switches a built simulator from
        FIFO ties to the seed's order: same seed, same order."""
        from repro.sim.core import Simulator

        def tie_order(seed=None):
            sim = Simulator()
            order = []
            for index in range(8):
                sim.timeout(0).callbacks.append(
                    lambda _event, index=index: order.append(index))
            if seed is not None:
                sim.enable_tie_permutation(seed)
            sim.run()
            return order

        assert tie_order() == list(range(8))
        assert tie_order(3) == tie_order(3) != list(range(8))
        assert sorted(tie_order(3)) == list(range(8))

    def test_planted_lost_write_is_caught(self, monkeypatch):
        """Every PUT of one key is acked but stored under another key:
        each ordering's read-back names the key and the report is not
        clean."""
        from repro.core.datastore import LeedDataStore
        from repro.lint.sanitize import verify
        from repro.workloads.ycsb import YCSBWorkload

        lost, _ = next(YCSBWorkload(
            "B", num_records=self.SHAPE["records"], seed=self.SHAPE["seed"],
            value_size=self.SHAPE["value_size"]).load_pairs())
        put = LeedDataStore.put

        def lossy_put(store, key, value, trace=None):
            if key == lost:
                key = b"planted-elsewhere"
            return put(store, key, value, trace)

        monkeypatch.setattr(LeedDataStore, "put", lossy_put)
        report = verify("B", permutations=1, **self.SHAPE)
        assert not report.clean
        for probe in report.probes:
            assert probe.mismatches == [
                "%s (status=not_found)" % lost.decode()], report.format()
            assert probe.keys_verified == probe.keys_checked - 1
