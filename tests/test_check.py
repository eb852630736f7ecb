"""The `repro check` static analyzer: rules, suppressions, output."""

import json
import os

import pytest

from typing import ClassVar

from repro.analysis.check import (
    RULES,
    check_paths,
    check_source,
    parse_suppressions,
    rule_ids,
)
from repro.analysis.check.core import get_rules
from repro.analysis.check.runner import (
    iter_python_files,
    render_github,
    render_human,
    render_json,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "check")

ALL_RULE_IDS = (
    "cache-key-stability",
    "congest-payload",
    "congest-remote-state",
    "determinism",
    "fork-thread-safety",
    "kernel-purity",
    "loop-invariant-container",
    "quiescence-safety",
)


def check_fixture(name, rule=None):
    path = os.path.join(FIXTURES, name)
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    rules = get_rules([rule]) if rule else None
    return check_source(path, source, rules)


class TestRegistry:
    def test_all_seven_rules_registered(self):
        assert set(ALL_RULE_IDS) <= set(rule_ids())

    def test_rule_ids_sorted(self):
        assert list(rule_ids()) == sorted(rule_ids())

    def test_every_rule_documented(self):
        for rid in rule_ids():
            rule = RULES[rid]
            assert rule.summary, rid
            assert rule.doc, rid
            assert rule.severity in ("error", "warning"), rid

    def test_unknown_rule_selection_raises(self):
        with pytest.raises(KeyError) as exc:
            get_rules(["bogus"])
        assert "bogus" in str(exc.value)


class TestRulesFire:
    """Each rule fires on its violating fixture, stays quiet on the clean
    one — the acceptance criterion made a test."""

    FIXTURE_OF: ClassVar = {
        "congest-remote-state": "bad_remote_state.py",
        "congest-payload": "bad_payload.py",
        "determinism": "bad_determinism.py",
        "kernel-purity": "bad_kernel.py",
        "quiescence-safety": "bad_quiescence.py",
        "fork-thread-safety": "bad_fork.py",
        "cache-key-stability": "bad_cache_key.py",
        "loop-invariant-container": "bad_loop_invariant.py",
    }

    @pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
    def test_rule_fires_on_violating_fixture(self, rule_id):
        findings, _ = check_fixture(self.FIXTURE_OF[rule_id], rule=rule_id)
        assert findings, f"{rule_id} silent on {self.FIXTURE_OF[rule_id]}"
        assert all(f.rule == rule_id for f in findings)
        assert all(f.line > 0 and f.col > 0 for f in findings)

    @pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
    def test_rule_quiet_on_clean_fixture(self, rule_id):
        findings, suppressed = check_fixture("clean_program.py", rule=rule_id)
        assert findings == []
        assert suppressed == []

    def test_remote_state_details(self):
        findings, _ = check_fixture(
            "bad_remote_state.py", rule="congest-remote-state"
        )
        messages = " ".join(f.message for f in findings)
        assert ".graph" in messages
        assert "ctx._outbox" in messages
        assert "SynchronousNetwork" in messages

    def test_determinism_catches_all_three_shapes(self):
        findings, _ = check_fixture("bad_determinism.py", rule="determinism")
        messages = " ".join(f.message for f in findings)
        assert "random.random" in messages
        assert "time.time" in messages
        assert "unordered set" in messages

    def test_kernel_purity_catches_all_three_shapes(self):
        findings, _ = check_fixture("bad_kernel.py", rule="kernel-purity")
        messages = " ".join(f.message for f in findings)
        assert "col.neighbors[...]" in messages
        assert ".sort()" in messages
        assert "self._last_run_rounds" in messages

    def test_fork_safety_catches_all_three_shapes(self):
        findings, _ = check_fixture("bad_fork.py", rule="fork-thread-safety")
        messages = " ".join(f.message for f in findings)
        assert "Thread was started" in messages
        assert "holding a lock" in messages
        assert "SharedMemory(create=True)" in messages

    def test_loop_invariant_flags_only_repeated_tests(self):
        """Comprehension, for-body and while-test cases fire; a for
        statement's iterable, a comprehension's first iterable and a test
        outside any loop are evaluated once and stay quiet."""
        findings, _ = check_fixture(
            "bad_loop_invariant.py", rule="loop-invariant-container"
        )
        messages = [f.message for f in findings]
        assert len(findings) == 3, messages
        for builder, message in zip(("set", "list", "sorted"), messages):
            assert f"`{builder}(...)`" in message

    def test_payload_findings_not_duplicated_per_subtree(self):
        """Only the outermost offending expression is reported."""
        findings, _ = check_fixture("bad_payload.py", rule="congest-payload")
        assert len(findings) == 3

    def test_seeded_random_instance_is_not_flagged(self):
        """random.Random(seed) is the sanctioned pattern (mis.py,
        baselines.py) — the rule must not flag it."""
        findings, _ = check_fixture("clean_program.py", rule="determinism")
        assert findings == []


class TestSuppressions:
    def test_parse_inline_and_standalone(self):
        sups = parse_suppressions(
            "x = 1  # repro: allow[determinism] replay harness\n"
            "# repro: allow[congest-payload]\n"
            "y = 2\n"
        )
        assert sups[1][0].rule == "determinism"
        assert sups[1][0].reason == "replay harness"
        assert sups[2][0].rule == "congest-payload"
        assert sups[2][0].reason == "(no reason given)"

    def test_suppressed_fixture_has_no_open_findings(self):
        findings, suppressed = check_fixture("suppressed.py")
        assert findings == []
        assert len(suppressed) == 3
        reasons = {s.suppression_reason for s in suppressed}
        assert "fixture exercises suppression plumbing" in reasons
        assert "(no reason given)" in reasons

    def test_suppression_covers_only_its_rule(self):
        source = (
            "from repro.simulator.program import NodeProgram\n"
            "import random\n"
            "class P(NodeProgram):\n"
            "    def on_start(self, ctx):\n"
            "        ctx.broadcast(random.random())  "
            "# repro: allow[congest-payload] wrong rule id\n"
        )
        findings, suppressed = check_source("p.py", source)
        assert [f.rule for f in findings] == ["determinism"]
        assert suppressed == []

    def test_wildcard_suppression(self):
        source = (
            "from repro.simulator.program import NodeProgram\n"
            "import random\n"
            "class P(NodeProgram):\n"
            "    def on_start(self, ctx):\n"
            "        ctx.broadcast(random.random())  "
            "# repro: allow[*] replay fixture\n"
        )
        findings, suppressed = check_source("p.py", source)
        assert findings == []
        assert [s.rule for s in suppressed] == ["determinism"]


class TestRunner:
    def test_iter_python_files_skips_caches(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        pycache = tmp_path / "__pycache__"
        pycache.mkdir()
        (pycache / "a.cpython-311.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        files = iter_python_files([str(tmp_path)])
        assert files == [str(tmp_path / "a.py")]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            iter_python_files(["/nonexistent/nowhere"])

    def test_syntax_error_is_a_finding_not_a_crash(self):
        findings, _ = check_source("broken.py", "def f(:\n")
        assert [f.rule for f in findings] == ["syntax-error"]
        assert findings[0].severity == "error"

    def test_check_paths_on_fixture_dir(self):
        result = check_paths([FIXTURES])
        assert result.files >= 9
        assert not result.ok
        fired = {f.rule for f in result.findings}
        assert set(ALL_RULE_IDS) <= fired

    def test_repo_sources_are_clean(self):
        """The shipped tree passes its own checker — the CI gate."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        result = check_paths(
            [
                os.path.join(root, "src"),
                os.path.join(root, "benchmarks"),
                os.path.join(root, "examples"),
            ]
        )
        assert result.ok, render_human(result)


class TestOutputFormats:
    def test_json_schema(self):
        result = check_paths([FIXTURES])
        doc = json.loads(render_json(result))
        assert doc["version"] == 1
        assert doc["files"] == result.files
        assert doc["summary"]["error"] > 0
        assert doc["summary"]["suppressed"] == len(result.suppressed)
        for f in doc["findings"]:
            assert set(f) == {
                "rule", "severity", "path", "line", "col", "message",
            }
            assert f["severity"] in ("error", "warning")
        # suppressions are surfaced with their reasons
        assert doc["suppressed"], "expected suppressed findings in fixtures"
        for s in doc["suppressed"]:
            assert s["suppressed"] is True
            assert s["suppression_reason"]

    def test_human_format(self):
        result = check_paths([os.path.join(FIXTURES, "bad_quiescence.py")])
        text = render_human(result)
        assert "error[quiescence-safety]" in text
        assert "bad_quiescence.py:" in text
        assert "repro check: 1 file(s)" in text

    def test_github_format(self):
        result = check_paths([os.path.join(FIXTURES, "bad_payload.py")])
        text = render_github(result)
        assert "::warning file=" in text
        assert "title=repro check [congest-payload]" in text

    def test_findings_sorted_by_location(self):
        result = check_paths([FIXTURES])
        keys = [f.sort_key() for f in result.findings]
        assert keys == sorted(keys)
