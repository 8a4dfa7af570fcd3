"""Dataflow race rules (SIM007-SIM009), CFG framework, engine
extensions (select/SARIF), and the order-dependence
sanitizer.

Rule fixtures follow the ``test_lint.py`` convention: a true positive
(must fire with the right ID), a suppressed variant, and a known
false-positive shape that must NOT fire — for SIM007 specifically the
re-read-after-yield guard and the finish-the-RMW-before-yielding
pattern, which are exactly how the PR 1 CircularLog fix works.
"""

import ast
import json
import textwrap

import pytest

from repro.lint import LintConfig, run
from repro.lint.engine import load_module
from repro.lint.flow import build_cfg, count_yields, dotted, has_yield
from repro.lint.sarif import to_sarif


def lint_snippet(tmp_path, relpath, code, **kwargs):
    """Write ``code`` at ``tmp_path/relpath`` and lint the tree."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code), encoding="utf-8")
    return run([str(tmp_path)], **kwargs)


def rules_hit(report):
    return {finding.rule for finding in report.findings}


# ---------------------------------------------------------------------------
# flow framework
# ---------------------------------------------------------------------------

class TestFlowFramework:
    def _cfg_for(self, code):
        tree = ast.parse(textwrap.dedent(code))
        func = tree.body[0]
        return build_cfg(func)

    def test_linear_body_single_block_chain(self):
        cfg = self._cfg_for("""\
            def f(self):
                a = 1
                b = a + 1
                return b
            """)
        assert cfg.entry is not None
        # Entry block carries both assignments and the return.
        assert len(cfg.entry.elements) == 3

    def test_if_else_creates_branches(self):
        cfg = self._cfg_for("""\
            def f(self, x):
                if x:
                    a = 1
                else:
                    a = 2
                return a
            """)
        assert len(cfg.entry.successors) == 2

    def test_loop_has_back_edge(self):
        cfg = self._cfg_for("""\
            def f(self, xs):
                for x in xs:
                    y = x
                return 0
            """)
        preds = cfg.predecessors()
        # Some block (the loop head) has two predecessors: entry and
        # the loop body's tail.
        assert any(len(sources) >= 2 for sources in preds.values())

    def test_count_yields_skips_nested_functions(self):
        tree = ast.parse(textwrap.dedent("""\
            def outer(self):
                def inner():
                    yield 1
                yield 2
            """))
        outer = tree.body[0]
        assert sum(count_yields(stmt) for stmt in outer.body) == 1
        assert has_yield(outer)

    def test_dotted_chains(self):
        expr = ast.parse("self.log.tail", mode="eval").body
        assert dotted(expr) == "self.log.tail"
        call = ast.parse("f().x", mode="eval").body
        assert dotted(call) is None


# ---------------------------------------------------------------------------
# SIM007: atomicity across yields
# ---------------------------------------------------------------------------

class TestSIM007Atomicity:
    def test_circular_log_lost_update_fires(self, tmp_path):
        # Minimal reconstruction of the PR 1 CircularLog bug: tail is
        # read, the write yields, and tail is bumped from the stale
        # read — two concurrent appends both see the old tail.
        report = lint_snippet(tmp_path, "repro/core/bad_log.py", """\
            class CircularLog:
                def append(self, ssd, data):
                    offset = self.tail
                    yield from ssd.write(offset, data)
                    self.tail = offset + len(data)
                    return offset
            """)
        assert "SIM007" in rules_hit(report)
        [finding] = [f for f in report.findings if f.rule == "SIM007"]
        assert "self.tail" in finding.message
        assert "line 3" in finding.message

    def test_reserve_before_yield_clean(self, tmp_path):
        # The PR 1 fix: the read-modify-write completes synchronously
        # before the first yield, so the reservation is atomic.
        report = lint_snippet(tmp_path, "repro/core/good_log.py", """\
            class CircularLog:
                def append(self, ssd, data):
                    offset = self.tail
                    self.tail = offset + len(data)
                    yield from ssd.write(offset, data)
                    return offset
            """)
        assert "SIM007" not in rules_hit(report)

    def test_reread_after_yield_guard_clean(self, tmp_path):
        # Known false-positive shape that must NOT fire: the value is
        # re-validated against live state after resuming.
        report = lint_snippet(tmp_path, "repro/core/guarded.py", """\
            class Reclaimer:
                def advance(self, ssd):
                    cached = self.head
                    yield from ssd.read(cached, 8)
                    if self.head == cached:
                        self.head = cached + 8
            """)
        assert "SIM007" not in rules_hit(report)

    def test_augmented_assign_clean(self, tmp_path):
        # ``+=`` re-reads the target at write time by construction.
        report = lint_snippet(tmp_path, "repro/core/augmented.py", """\
            class Meter:
                def charge(self, ssd, data):
                    n = len(data)
                    yield from ssd.write(0, data)
                    self.total += n
            """)
        assert "SIM007" not in rules_hit(report)

    def test_fresh_reread_in_write_clean(self, tmp_path):
        # Re-reading the attribute inside the writing statement is a
        # current-era read: the RMW is against live state.
        report = lint_snippet(tmp_path, "repro/core/fresh.py", """\
            class Log:
                def append(self, ssd, data):
                    offset = self.tail
                    yield from ssd.write(offset, data)
                    self.tail = max(self.tail, offset + len(data))
            """)
        assert "SIM007" not in rules_hit(report)

    def test_loop_carried_staleness_fires(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/loop.py", """\
            class Pool:
                def drain(self, ssd):
                    while self.pending:
                        batch = self.pending
                        yield from ssd.write(0, batch)
                        self.pending = batch[8:]
            """)
        assert "SIM007" in rules_hit(report)

    def test_shared_parameter_object_fires(self, tmp_path):
        # "Shared object" staleness is not limited to self.
        report = lint_snippet(tmp_path, "repro/core/sharedparam.py", """\
            def flush(log, ssd):
                tail = log.tail
                yield from ssd.write(tail, b"x")
                log.tail = tail + 1
            """)
        assert "SIM007" in rules_hit(report)

    def test_locally_constructed_object_clean(self, tmp_path):
        # A local object nobody else can reach is not shared state.
        report = lint_snippet(tmp_path, "repro/core/localobj.py", """\
            class Cursor:
                pass

            def walk(ssd):
                cur = Cursor()
                cur.pos = 0
                saved = cur.pos
                yield from ssd.read(saved, 8)
                cur.pos = saved + 8
            """)
        assert "SIM007" not in rules_hit(report)

    def test_suppression(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/waived.py", """\
            class Log:
                def append(self, ssd, data):
                    offset = self.tail
                    yield from ssd.write(offset, data)
                    self.tail = offset + len(data)  # simlint: ignore[SIM007]
            """)
        assert "SIM007" not in rules_hit(report)

    def test_no_yield_function_ignored(self, tmp_path):
        # Without scheduling points the whole body is atomic.
        report = lint_snippet(tmp_path, "repro/core/sync.py", """\
            class Log:
                def bump(self, n):
                    offset = self.tail
                    self.tail = offset + n
                    return offset
            """)
        assert "SIM007" not in rules_hit(report)


# ---------------------------------------------------------------------------
# SIM008: network fidelity through dataflow
# ---------------------------------------------------------------------------

class TestSIM008ShardSafety:
    def test_alias_rebinding_fires(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/alias.py", """\
            class Plane:
                def kick(self):
                    node = self.jbofs[0]
                    peer = node
                    peer.stop()
            """)
        assert "SIM008" in rules_hit(report)

    def test_container_store_fires(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/container.py", """\
            class Plane:
                def kick(self):
                    victims = []
                    for node in self.jbofs:
                        victims.append(node)
                    for victim in victims:
                        victim.reboot()
            """)
        assert "SIM008" in rules_hit(report)

    def test_argument_passing_fires(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/argpass.py", """\
            class Plane:
                def kick(self):
                    for node in self.jbofs:
                        self._poke(node)

                def _poke(self, target):
                    target.reboot()
            """)
        assert "SIM008" in rules_hit(report)

    def test_attribute_mutation_fires(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/mutate.py", """\
            class Plane:
                def kick(self):
                    node = self.jbofs[0]
                    node.ring = None
            """)
        assert "SIM008" in rules_hit(report)

    def test_deep_chain_call_fires(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/deep.py", """\
            class Plane:
                def survey(self):
                    out = {}
                    for node in self.jbofs:
                        for vnode_id, runtime in node.vnodes.items():
                            out[vnode_id] = runtime
                    return out
            """)
        assert "SIM008" in rules_hit(report)

    def test_rpc_path_clean(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/rpc_ok.py", """\
            class Plane:
                def kick(self):
                    for node in self.jbofs:
                        self.rpc.notify(node.address, "reboot")
            """)
        assert "SIM008" not in rules_hit(report)

    def test_locally_constructed_nodes_clean(self, tmp_path):
        # Construction-time wiring: the nodes are this process's own.
        report = lint_snippet(tmp_path, "repro/core/ctor.py", """\
            class Plane:
                def build(self, node_class):
                    nodes = []
                    for index in range(4):
                        node = node_class(index)
                        nodes.append(node)
                        node.start()
                    return nodes
            """)
        assert "SIM008" not in rules_hit(report)

    def test_direct_call_left_to_sim006(self, tmp_path):
        # The syntactic shape stays SIM006's: no duplicate SIM008
        # finding at the same location.
        report = lint_snippet(tmp_path, "repro/core/direct.py", """\
            class Plane:
                def kick(self):
                    for node in self.jbofs:
                        node.stop()
            """)
        assert "SIM006" in rules_hit(report)
        sim006 = {(f.line, f.col) for f in report.findings
                  if f.rule == "SIM006"}
        sim008 = {(f.line, f.col) for f in report.findings
                  if f.rule == "SIM008"}
        assert not (sim006 & sim008)

    def test_out_of_scope_directory_clean(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/bench/tooling.py", """\
            class Plane:
                def kick(self):
                    node = self.jbofs[0]
                    other = node
                    other.stop()
            """)
        assert "SIM008" not in rules_hit(report)

    def test_suppression(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/waived8.py", """\
            class Plane:
                def kick(self):
                    node = self.jbofs[0]
                    peer = node
                    peer.stop()  # simlint: ignore[SIM008]
            """)
        assert "SIM008" not in rules_hit(report)


# ---------------------------------------------------------------------------
# SIM009: digest stability
# ---------------------------------------------------------------------------

class TestSIM009DigestStability:
    def test_set_iteration_into_histogram_fires(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/obs/bad_hist.py", """\
            def publish(keys, hist):
                for key in keys | {0}:
                    hist.observe(key)
            """)
        assert "SIM009" in rules_hit(report)

    def test_id_into_digest_fires(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/obs/bad_id.py", """\
            def fold(obj, digest):
                digest.update(id(obj))
            """)
        assert "SIM009" in rules_hit(report)

    def test_tainted_local_reaches_record_fires(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/obs/bad_local.py", """\
            def publish(members, trace):
                order = [m for m in {"a", "b"} if m in members]
                trace.record(order)
            """)
        assert "SIM009" in rules_hit(report)

    def test_sorted_launders_clean(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/obs/good_sorted.py", """\
            def publish(keys, hist):
                for key in sorted(keys | {0}):
                    hist.observe(key)
            """)
        assert "SIM009" not in rules_hit(report)

    def test_id_keyed_sort_still_fires(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/obs/bad_keyed.py", """\
            def publish(objs, hist):
                for item in sorted(objs, key=lambda o: id(o)):
                    hist.observe(item)
            """)
        assert "SIM009" in rules_hit(report)

    def test_non_sink_call_clean(self, tmp_path):
        # Set iteration feeding plain logic is SIM003's business (and
        # only inside its scoped directories), not SIM009's.
        report = lint_snippet(tmp_path, "repro/obs/good_logic.py", """\
            def count(keys):
                total = 0
                for key in keys | {0}:
                    total += 1
                return total
            """)
        assert "SIM009" not in rules_hit(report)

    def test_suppression(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/obs/waived9.py", """\
            def publish(keys, hist):
                for key in keys | {0}:
                    hist.observe(key)  # simlint: ignore[SIM009]
            """)
        assert "SIM009" not in rules_hit(report)


# ---------------------------------------------------------------------------
# engine: select, SARIF
# ---------------------------------------------------------------------------

class TestEngineExtensions:
    BAD = """\
        import random

        class Log:
            def append(self, ssd, data):
                offset = self.tail
                yield from ssd.write(offset, data)
                self.tail = offset + len(data)
        """

    def test_select_restricts_rules(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/core/two.py", self.BAD,
                              select=["SIM007"])
        assert rules_hit(report) == {"SIM007"}

    def test_select_unknown_rule_raises(self, tmp_path):
        with pytest.raises(ValueError):
            lint_snippet(tmp_path, "repro/core/two.py", self.BAD,
                         select=["SIM042"])

    def test_sarif_output_is_valid_and_complete(self, tmp_path):
        from repro.lint.rules import default_rules
        report = lint_snippet(tmp_path, "repro/core/two.py", self.BAD)
        log = json.loads(to_sarif(report, default_rules(LintConfig())))
        assert log["version"] == "2.1.0"
        run_obj = log["runs"][0]
        assert run_obj["tool"]["driver"]["name"] == "simlint"
        rule_ids = {r["id"] for r in run_obj["tool"]["driver"]["rules"]}
        assert {"SIM001", "SIM007", "SIM008", "SIM009"} <= rule_ids
        assert len(run_obj["results"]) == len(report.findings)
        result = run_obj["results"][0]
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] >= 1

    def test_shared_index_caches_cfgs(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(textwrap.dedent("""\
            def f(self):
                yield 1
            """), encoding="utf-8")
        source = load_module(path)
        func = source.index.functions()[0]
        assert source.index.cfg(func) is source.index.cfg(func)

    def test_catalog_header_is_generated(self):
        import repro.lint.rules as rules_mod
        from repro.lint.rules import catalog_lines, catalog_range
        assert catalog_range() == "SIM001-SIM010"
        for line in catalog_lines():
            assert line in rules_mod.__doc__


# ---------------------------------------------------------------------------
# dynamic sanitizer
# ---------------------------------------------------------------------------

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
        from repro.sim.core import Simulator
        assert Simulator(sanitize_seed=3).sanitizing
        assert not Simulator().sanitizing
