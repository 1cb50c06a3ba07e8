#!/usr/bin/env python3
"""Unit tests for semantic_lint.py against its fixture mini-trees.

Three trees under fixtures/semantic/, all linted with fixtures/
semantic/rules.json:

  bad/        one violation shape per rule — every rule must fire, at
              the expected file, and nowhere else
  good/       the clean counterpart of each shape — zero findings
  suppressed/ the bad shapes silenced with each suppression form
              (inline, next-line, file-level) — zero findings

Plus model-level tests pinning the parser facts the rules depend on
(field flags, call-graph edges, const-method detection), and the config
check: fixtures/semantic/stale_rules.json names a root that no function
matches (sim::Engine::SendBatch), which must fail the run.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import semantic_lint  # noqa: E402

FIXTURES = HERE / "fixtures" / "semantic"
CONFIG = json.loads((FIXTURES / "rules.json").read_text())


def run_tree(tree: str) -> list[semantic_lint.Finding]:
    root = FIXTURES / tree
    files = semantic_lint.gather_files(root, [], None)
    model = semantic_lint.build_model(files)
    return semantic_lint.Analyzer(model, CONFIG).run()


def build_tree_model(tree: str) -> semantic_lint.Model:
    root = FIXTURES / tree
    files = semantic_lint.gather_files(root, [], None)
    return semantic_lint.build_model(files)


class BadTreeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.findings = run_tree("bad")

    def by_rule(self, rule: str) -> list[semantic_lint.Finding]:
        return [f for f in self.findings if f.rule == rule]

    def test_every_rule_fires(self):
        self.assertEqual(
            {f.rule for f in self.findings}, set(semantic_lint.RULES)
        )

    def test_hot_alloc(self):
        found = self.by_rule("sem-hot-alloc")
        self.assertEqual(
            {f.path for f in found}, {"src/hot_alloc.cpp"}
        )
        messages = "\n".join(f.message for f in found)
        # One `new`, one owning-container local — and the call chain
        # from the entry point is named in the message.
        self.assertEqual(len(found), 2)
        self.assertIn("Engine::Send -> Engine::Step -> Engine::Classify",
                      messages)
        self.assertIn("'hops'", messages)

    def test_hot_alloc_exemption(self):
        # ColdRebuild allocates and is reachable from Send, but it is
        # listed in hot_alloc_exempt: the documented lazy cold path.
        for finding in self.by_rule("sem-hot-alloc"):
            self.assertNotIn("ColdRebuild", finding.message)

    def test_unordered_flow_crosses_files(self):
        found = self.by_rule("sem-unordered-flow")
        self.assertEqual(len(found), 1)
        # The violation is OUTSIDE the output dirs — only reachability
        # from tools/report.cpp makes it a finding.
        self.assertEqual(found[0].path, "src/core.cpp")
        self.assertIn("table_", found[0].message)
        self.assertIn("Report", found[0].message)

    def test_const_mutation(self):
        found = self.by_rule("sem-const-mutation")
        self.assertEqual(len(found), 1)
        self.assertEqual(found[0].path, "src/const_mutation.cpp")
        self.assertIn("'hits_'", found[0].message)
        self.assertIn("Cache::Get", found[0].message)

    def test_nondet_reach(self):
        found = self.by_rule("sem-nondet-reach")
        self.assertEqual(len(found), 2)
        self.assertEqual({f.path for f in found}, {"src/nondet.cpp"})
        kinds = {f.message.split(" source", 1)[0] for f in found}
        self.assertEqual(kinds, {"raw-RNG", "wall-clock"})

    def test_findings_are_line_anchored(self):
        for finding in self.findings:
            self.assertGreater(finding.line, 0, msg=str(finding))


class GoodTreeTest(unittest.TestCase):
    def test_clean(self):
        findings = run_tree("good")
        self.assertEqual(
            [], [str(f) for f in findings],
            "good fixtures must produce zero findings",
        )


class SuppressedTreeTest(unittest.TestCase):
    def test_all_suppression_forms_honored(self):
        findings = run_tree("suppressed")
        self.assertEqual(
            [], [str(f) for f in findings],
            "inline, next-line and file-level allows must all silence",
        )


class StaleRootTest(unittest.TestCase):
    """A root or exemption spec that matches no function switches its rule
    off for that root without a word, so it is a config error. The bad
    tree defines every function rules.json names."""

    STALE = FIXTURES / "stale_rules.json"

    @staticmethod
    def lint_bad_tree(config: Path) -> subprocess.CompletedProcess:
        return subprocess.run(
            [
                sys.executable,
                str(HERE / "semantic_lint.py"),
                "--root",
                str(FIXTURES / "bad"),
                "--config",
                str(config),
            ],
            capture_output=True,
            text=True,
            check=False,
        )

    def test_fixture_rules_name_only_real_functions(self):
        analyzer = semantic_lint.Analyzer(build_tree_model("bad"), CONFIG)
        self.assertEqual([], analyzer.unmatched_specs())

    def test_every_stale_spec_is_reported(self):
        config = json.loads(self.STALE.read_text())
        analyzer = semantic_lint.Analyzer(build_tree_model("bad"), config)
        self.assertEqual(
            analyzer.unmatched_specs(),
            [
                "hot_entries spec 'sim::Engine::SendBatch' matches no "
                "function",
                "deterministic_entries spec 'sim::Engine::SendBatch' "
                "matches no function",
            ],
        )

    def test_stale_spec_fails_the_run(self):
        result = self.lint_bad_tree(self.STALE)
        self.assertEqual(result.returncode, 2, result.stdout)
        self.assertIn(
            "error: config: hot_entries spec 'sim::Engine::SendBatch'",
            result.stderr,
        )

    def test_matching_config_reaches_the_rules(self):
        # Same tree, every spec matched: the run gets to the findings.
        result = self.lint_bad_tree(FIXTURES / "rules.json")
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertNotIn("error: config", result.stderr)


class ModelTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.model = build_tree_model("good")

    def test_fields_and_flags(self):
        cache = self.model.classes["fix::AnnotatedCache"]
        self.assertTrue(cache.fields["hits_"].is_mutable)
        self.assertTrue(cache.fields["hits_"].guarded)
        atomic_cache = self.model.classes["fix::AtomicCache"]
        self.assertTrue(atomic_cache.fields["hits_"].atomic)

    def test_brace_initialized_field_is_recorded(self):
        engine = self.model.classes["fix::Engine"]
        self.assertIn("scratch_", engine.fields)

    def test_const_method_detected(self):
        defs = self.model.functions["fix::LockedCache::Get"]
        self.assertTrue(all(d.is_const for d in defs))

    def test_receiver_resolved_through_param_type(self):
        self.assertIn(
            "fix::Core::DumpTable",
            self.model.calls.get("fix::ReportHelper", set()),
        )

    def test_receiver_resolved_through_field_type(self):
        self.assertIn(
            "fix::SeededRng::Next",
            self.model.calls.get("fix::Probe::Jitter", set()),
        )

    def test_out_of_line_methods_attach_to_class(self):
        self.assertIn(
            "fix::Engine::Step",
            self.model.calls.get("fix::Engine::Send", set()),
        )


class RealTreeTest(unittest.TestCase):
    """The tool must understand the real tree's load-bearing shapes."""

    @classmethod
    def setUpClass(cls):
        root = HERE.parent.parent
        files = semantic_lint.gather_files(
            root, ["src"], root / "build" / "compile_commands.json"
        )
        cls.model = semantic_lint.build_model(files)

    def test_engine_send_edges(self):
        calls = self.model.calls.get("wormhole::sim::Engine::Send", set())
        self.assertIn("wormhole::sim::Engine::ProcessAt", calls)
        self.assertIn("wormhole::sim::Engine::CommitStats", calls)

    def test_fib_seal_is_hot_reachable_but_exempt(self):
        lookup = "wormhole::routing::Fib::Lookup"
        self.assertIn(
            "wormhole::routing::Fib::Seal",
            self.model.calls.get(lookup, set()),
        )
        config = semantic_lint.DEFAULT_CONFIG
        self.assertTrue(
            semantic_lint.matches_any(
                "wormhole::routing::Fib::Seal",
                config["hot_alloc_exempt"],
            )
        )

    def test_campaign_run_reaches_the_probing_loop(self):
        # campaign.cpp sorts before campaign.h, so its out-of-line members
        # are parsed before their class; bare calls between them must
        # still resolve to the class, or the Run root stops short of the
        # probing loop and the cache (Probe and Ping are not unique names).
        reach = self.model.reachable_from(
            self.model.match_entries(["campaign::Campaign::Run"])
        )
        for callee in (
            "Campaign::Execute",
            "Campaign::Probe",
            "Campaign::Ping",
            "TraceCache::Find",
            "TraceCache::Record",
            "TraceCache::FindPing",
            "TraceCache::RecordPing",
            "CompactTraceLog::Append",
            "CompactTraceLog::InflateInto",
        ):
            self.assertIn("wormhole::campaign::" + callee, reach)

    def test_fib_mutable_query_side_is_modeled(self):
        fib = self.model.classes["wormhole::routing::Fib"]
        self.assertTrue(fib.fields["slots_"].is_mutable)
        self.assertTrue(fib.fields["sealed_"].atomic)

    def test_shipped_rules_name_real_functions(self):
        shipped = json.loads(
            (HERE / "semantic_rules.json").read_text()
        )
        for config in (semantic_lint.DEFAULT_CONFIG, shipped):
            analyzer = semantic_lint.Analyzer(self.model, config)
            self.assertEqual([], analyzer.unmatched_specs())

    def test_stat_shard_is_an_atomic_aggregate(self):
        shard = self.model.classes["wormhole::sim::Engine::StatShard"]
        self.assertTrue(shard.all_fields_atomic())

    def test_spf_guarded_fields(self):
        spf = self.model.classes["wormhole::routing::SpfEngine"]
        self.assertTrue(spf.fields["seen_version_"].guarded)
        self.assertTrue(spf.fields["serial_scratch_"].guarded)


if __name__ == "__main__":
    unittest.main(verbosity=2)
