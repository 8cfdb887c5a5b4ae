"""Tests for the static analyzer behind ``ppdm lint``.

Three layers:

* unit tests for the registry, findings/baseline machinery, and walker;
* fixture tests: the known-bad corpus under ``tests/fixtures/analysis``
  must light up every rule family, and the known-good exemplar must
  stay silent;
* self-check: ``ppdm lint`` over the real tree must match the committed
  baseline exactly, and deliberately moving a guarded mutation in
  ``shards.py`` outside its lock must be caught by L001.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import (
    DEFAULT_BASELINE,
    REGISTRY,
    CheckerRegistry,
    Finding,
    RuleSpec,
    checker,
    diff_baseline,
    fingerprint,
    format_baseline,
    lint_project,
    load_baseline,
    render_json,
    render_text,
    run_checkers,
    walk_project,
    write_baseline,
)
from repro.analysis.determinism import check_determinism
from repro.analysis.locks import check_locks
from repro.analysis.raising import check_raising
from repro.analysis.robustness import check_robustness
from repro.analysis.walker import ParsedModule, Project, iter_scoped, parse_source
from repro.analysis.wire_lint import check_wire
from repro.cli import main
from repro.exceptions import AnalysisError

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "analysis"


def load_fixture(name: str, relpath: str, category: str) -> ParsedModule:
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return parse_source(source, relpath, category)


def rules_by_line(findings) -> set:
    return {(f.rule, f.line) for f in findings}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_register_sorts_and_round_trips(self):
        reg = CheckerRegistry()

        @checker("zeta", title="Z", rules=(RuleSpec("Z001", "z"),), registry=reg)
        def check_z(project):
            return []

        @checker("alpha", title="A", rules=(RuleSpec("A001", "a"),), registry=reg)
        def check_a(project):
            return []

        assert reg.ids() == ("alpha", "zeta")
        assert reg.rule_ids() == ("A001", "Z001")
        assert reg.get("zeta").fn is check_z
        assert check_a.checker.id == "alpha"

    def test_duplicate_checker_id_rejected(self):
        reg = CheckerRegistry()

        @checker("dup", rules=(RuleSpec("X001", "x"),), registry=reg)
        def check_one(project):
            return []

        with pytest.raises(AnalysisError, match="duplicate checker id"):

            @checker("dup", rules=(RuleSpec("X002", "x"),), registry=reg)
            def check_two(project):
                return []

    def test_duplicate_rule_id_across_checkers_rejected(self):
        reg = CheckerRegistry()

        @checker("one", rules=(RuleSpec("X001", "x"),), registry=reg)
        def check_one(project):
            return []

        with pytest.raises(AnalysisError, match="duplicate rule id"):

            @checker("two", rules=(RuleSpec("X001", "x"),), registry=reg)
            def check_two(project):
                return []

    def test_invalid_rule_id_and_severity_rejected(self):
        with pytest.raises(AnalysisError, match="invalid rule id"):
            RuleSpec("lowercase1", "bad")
        with pytest.raises(AnalysisError, match="severity"):
            RuleSpec("X001", "bad", severity="fatal")
        with pytest.raises(AnalysisError, match="unknown categories"):
            RuleSpec("X001", "bad", categories=("nonsense",))

    def test_select_rules_validates_and_sorts(self):
        assert REGISTRY.select_rules(["L002", "L001"]) == ("L001", "L002")
        with pytest.raises(AnalysisError, match="unknown rule id"):
            REGISTRY.select_rules(["Z999"])

    def test_global_registry_has_all_five_checkers(self):
        assert REGISTRY.ids() == (
            "determinism", "locks", "raising", "robustness", "wire"
        )
        assert set(REGISTRY.rule_ids()) == {
            "D001", "D002", "D003",
            "E001", "E002",
            "L001", "L002", "L003",
            "R001",
            "W001", "W002",
        }


# ---------------------------------------------------------------------------
# findings / baseline machinery
# ---------------------------------------------------------------------------


class TestBaseline:
    def make(self, rule="L001", path="src/repro/x.py", line=3, digest=""):
        return Finding(
            rule=rule, path=path, line=line, scope="f", message="m",
            digest=digest,
        )

    def test_fingerprint_ignores_line_number_not_text(self):
        a = fingerprint(self.make(line=3), "self.n = 1")
        b = fingerprint(self.make(line=300), "  self.n = 1  ")
        c = fingerprint(self.make(line=3), "self.n = 2")
        assert a == b
        assert a != c

    def test_baseline_round_trip(self, tmp_path):
        findings = [self.make(digest="abc123abc123")]
        path = tmp_path / "baseline.txt"
        path.write_text(format_baseline(findings))
        accepted = load_baseline(path)
        new, baselined, stale = diff_baseline(findings, accepted)
        assert (new, len(baselined), stale) == ([], 1, [])

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.txt") == Counter()

    def test_malformed_baseline_line_raises(self, tmp_path):
        path = tmp_path / "baseline.txt"
        path.write_text("L001 only three fields\nnot enough\n")
        with pytest.raises(AnalysisError, match="baseline lines are"):
            load_baseline(path)

    def test_stale_entries_surface(self):
        gone = self.make(digest="feedfeedfeed")
        accepted = Counter({("L001", gone.path, "f", gone.digest): 1})
        new, baselined, stale = diff_baseline([], accepted)
        assert new == [] and baselined == []
        assert stale == [("L001", gone.path, "f", "feedfeedfeed")]

    def test_multiset_semantics(self):
        # two identical findings, one baselined: one passes, one is new
        first = self.make(digest="aaaaaaaaaaaa")
        second = self.make(digest="aaaaaaaaaaaa")
        accepted = Counter({("L001", first.path, "f", first.digest): 1})
        new, baselined, stale = diff_baseline([first, second], accepted)
        assert len(new) == 1 and len(baselined) == 1 and stale == []


# ---------------------------------------------------------------------------
# walker
# ---------------------------------------------------------------------------


class TestWalker:
    def test_parse_error_becomes_p000(self):
        module = parse_source("def broken(:\n", "src/repro/x.py", "library")
        assert module.tree is None
        assert module.parse_error is not None
        assert module.parse_error.rule == "P000"
        result = lint_project(project=Project([module]), baseline=None)
        assert [f.rule for f in result.new] == ["P000"]

    def test_suppressions_located_by_tokenizer(self):
        source = (
            "x = 1  # ppdm: ignore[D001, L002]\n"
            'y = "# ppdm: ignore[W001]"\n'
            "z = 3  # ppdm: ignore[*]\n"
        )
        module = parse_source(source, "src/repro/x.py", "library")
        assert module.suppressed(1) == {"D001", "L002"}
        assert module.suppressed(2) == set()  # inside a string literal
        assert module.suppressed(3) == {"*"}

    def test_iter_scoped_tracks_nesting(self):
        source = (
            "class A:\n"
            "    def f(self):\n"
            "        x = 1\n"
            "def g():\n"
            "    y = 2\n"
        )
        module = parse_source(source, "src/repro/x.py", "library")
        scopes = {
            node.targets[0].id: scope
            for node, scope in iter_scoped(module.tree)
            if hasattr(node, "targets") and hasattr(node.targets[0], "id")
        }
        assert scopes == {"x": "A.f", "y": "g"}

    def test_walk_project_covers_real_tree(self):
        project = walk_project(REPO_ROOT)
        categories = {m.category for m in project.modules}
        assert categories == {"library", "tools", "bench", "examples"}
        relpaths = [m.relpath for m in project.modules]
        assert relpaths == sorted(relpaths)
        assert "src/repro/analysis/runner.py" in relpaths
        assert not any(r.startswith("tests/") for r in relpaths)


# ---------------------------------------------------------------------------
# checkers on the fixture corpus
# ---------------------------------------------------------------------------


class TestLockChecker:
    def project(self):
        return Project(
            [load_fixture("bad_locks.py", "src/repro/fix_locks.py", "library")]
        )

    def test_all_three_rules_fire(self):
        found = rules_by_line(check_locks(self.project()))
        assert ("L001", 26) in found  # self.count = 0 outside the lock
        assert ("L002", 30) in found  # time.sleep under the lock
        assert any(rule == "L003" for rule, _ in found)

    def test_init_mutations_exempt(self):
        findings = [f for f in check_locks(self.project()) if f.rule == "L001"]
        assert all("__init__" not in f.scope for f in findings)
        assert [f.line for f in findings] == [26]

    def test_rule_selection_narrows(self):
        result = lint_project(
            project=self.project(), rules=["L002"], baseline=None
        )
        assert {f.rule for f in result.new} == {"L002"}


class TestDeterminismChecker:
    def project(self, category="library", relpath="src/repro/fix_det.py"):
        return Project(
            [load_fixture("bad_determinism.py", relpath, category)]
        )

    def test_expected_findings(self):
        found = rules_by_line(check_determinism(self.project()))
        assert ("D001", 13) in found  # np.random.seed
        assert ("D001", 14) in found  # np.random.uniform
        assert ("D001", 15) in found  # random.random
        assert ("D002", 20) in found  # default_rng outside rng.py
        assert ("D003", 24) in found  # seed = time.time_ns()
        assert ("D002", 25) in found and ("D003", 25) in found
        # perf_counter for timing never fires
        assert not any(line in (30, 31) for _, line in found)

    def test_applies_to_benchmarks_too(self):
        project = self.project(
            category="bench", relpath="benchmarks/bench_fix.py"
        )
        assert any(f.rule == "D002" for f in check_determinism(project))

    def test_rng_home_is_exempt(self):
        module = parse_source(
            "import numpy as np\n"
            "def ensure(seed):\n"
            "    return np.random.default_rng(seed)\n",
            "src/repro/utils/rng.py",
            "library",
        )
        assert list(check_determinism(Project([module]))) == []


class TestWireChecker:
    def project(self):
        return Project(
            [load_fixture("bad_wire.py", "src/repro/service/fix.py", "library")]
        )

    def test_expected_findings(self):
        found = rules_by_line(check_wire(self.project()))
        assert ("W001", 7) in found  # import struct
        assert ("W002", 9) in found  # MAGIC redefinition
        assert ("W002", 10) in found  # WIRE_VERSION redefinition
        assert ("W001", 12) in found and ("W002", 12) in found  # "<4sHHi"
        assert ("W001", 16) in found and ("W002", 16) in found  # "<Q"
        assert ("W002", 19) in found  # WIRE_CODEC_* redefinition

    def test_wire_rules_are_library_only(self):
        module = load_fixture("bad_wire.py", "examples/fix.py", "examples")
        result = lint_project(project=Project([module]), baseline=None)
        assert not any(f.rule.startswith("W") for f in result.new)

    def test_wire_module_itself_is_exempt(self):
        wire_source = (
            REPO_ROOT / "src" / "repro" / "service" / "wire.py"
        ).read_text(encoding="utf-8")
        module = parse_source(
            wire_source, "src/repro/service/wire.py", "library"
        )
        assert list(check_wire(Project([module]))) == []


class TestRaisingChecker:
    def project(self):
        return Project(
            [load_fixture("bad_raising.py", "src/repro/fix_raise.py", "library")]
        )

    def test_expected_findings(self):
        found = rules_by_line(check_raising(self.project()))
        assert ("E001", 10) in found  # raise ValueError
        assert ("E002", 15) in found  # unguarded payload["kind"]

    def test_exemptions_hold(self):
        found = rules_by_line(check_raising(self.project()))
        lines = {line for _, line in found}
        assert 20 not in lines  # guarded subscript
        assert 22 not in lines  # NotImplementedError allowed
        assert 27 not in lines  # AttributeError in __getattr__


class TestRobustnessChecker:
    def project(self, relpath="src/repro/service/fix_rob.py"):
        return Project(
            [load_fixture("bad_robustness.py", relpath, "library")]
        )

    def test_expected_findings(self):
        found = rules_by_line(check_robustness(self.project()))
        assert ("R001", 11) in found  # except OSError: pass
        assert ("R001", 18) in found  # except (...): ...
        assert ("R001", 25) in found  # bare except: pass
        assert len(found) == 3

    def test_handlers_doing_work_are_clean(self):
        lines = {line for _, line in rules_by_line(
            check_robustness(self.project())
        )}
        assert 32 not in lines  # logged handler
        assert 39 not in lines  # counting handler (pass after real work)

    def test_rule_guards_the_serving_tier_only(self):
        outside = self.project(relpath="src/repro/core/fix_rob.py")
        assert list(check_robustness(outside)) == []


class TestGoodFixture:
    def test_exemplar_is_clean(self):
        module = load_fixture(
            "good_service.py", "src/repro/fix_good.py", "library"
        )
        result = lint_project(project=Project([module]), baseline=None)
        assert result.new == []
        assert result.suppressed == 1  # the justified ppdm: ignore[L002]


# ---------------------------------------------------------------------------
# runner semantics
# ---------------------------------------------------------------------------


class TestRunner:
    def test_undeclared_rule_is_rejected(self):
        reg = CheckerRegistry()

        @checker("rogue", rules=(RuleSpec("X001", "x"),), registry=reg)
        def check_rogue(project):
            yield Finding(
                rule="Y999", path="src/repro/x.py", line=1, message="boom"
            )

        module = parse_source("x = 1\n", "src/repro/x.py", "library")
        with pytest.raises(AnalysisError, match="undeclared rule"):
            run_checkers(Project([module]), registry=reg)

    def test_digests_attached_and_sorted(self):
        project = Project(
            [
                load_fixture(
                    "bad_raising.py", "src/repro/fix_raise.py", "library"
                )
            ]
        )
        findings, _ = run_checkers(project)
        assert findings == sorted(findings, key=Finding.sort_key)
        assert all(len(f.digest) == 12 for f in findings)

    def test_write_baseline_then_clean(self, tmp_path):
        project = Project(
            [
                load_fixture(
                    "bad_determinism.py", "src/repro/fix_det.py", "library"
                )
            ]
        )
        baseline = tmp_path / "baseline.txt"
        dirty = lint_project(project=project, baseline=baseline)
        assert not dirty.ok and dirty.new
        write_baseline(dirty, baseline)
        clean = lint_project(project=project, baseline=baseline)
        assert clean.ok
        assert len(clean.baselined) == len(dirty.new)

    def test_rule_subset_ignores_other_rules_baseline_entries(self, tmp_path):
        """A --rule subset run must not report unselected-rule entries stale."""
        project = Project(
            [
                load_fixture(
                    "bad_determinism.py", "src/repro/fix_det.py", "library"
                )
            ]
        )
        baseline = tmp_path / "baseline.txt"
        write_baseline(lint_project(project=project, baseline=baseline), baseline)
        subset = lint_project(
            project=project, baseline=baseline, rules=["L001"]
        )
        assert subset.stale == []
        assert subset.ok

    def test_render_text_and_json_agree(self):
        project = Project(
            [
                load_fixture(
                    "bad_raising.py", "src/repro/fix_raise.py", "library"
                )
            ]
        )
        result = lint_project(project=project, baseline=None)
        text = render_text(result)
        payload = json.loads(render_json(result))
        assert "lint: FAIL" in text
        assert payload["ok"] is False
        assert payload["counts"]["new"] == len(result.new)
        assert {f["rule"] for f in payload["new"]} == {
            f.rule for f in result.new
        }


# ---------------------------------------------------------------------------
# the real tree: self-check and the moved-mutation acceptance test
# ---------------------------------------------------------------------------


class TestRealTree:
    def test_lint_matches_committed_baseline(self):
        result = lint_project(root=REPO_ROOT)
        assert result.stale == [], (
            "baseline lists findings that no longer occur — the ratchet "
            "only shrinks; remove these lines from tools/lint_baseline.txt: "
            f"{result.stale}"
        )
        assert result.new == [], (
            "new lint findings — fix them or (for deliberate violations) "
            "suppress inline with '# ppdm: ignore[RULE]':\n"
            + "\n".join(f"{f.location} {f.rule} {f.message}" for f in result.new)
        )

    def test_baseline_file_is_committed_and_parseable(self):
        path = REPO_ROOT / DEFAULT_BASELINE
        assert path.is_file()
        accepted = load_baseline(path)
        assert sum(accepted.values()) == len(
            lint_project(root=REPO_ROOT).baselined
        )

    def test_moving_guarded_mutation_out_of_lock_is_caught(self):
        """The acceptance criterion: un-lock a shards.py mutation."""
        shards_path = "src/repro/service/shards.py"
        project = walk_project(REPO_ROOT)
        original = project.module(shards_path)
        assert original is not None
        guarded = (
            "        with self._lock:\n"
            "            self._counts += counts\n"
            "            self._seen += seen\n"
        )
        moved = (
            "        with self._lock:\n"
            "            self._seen += seen\n"
            "        self._counts += counts\n"
        )
        assert original.source.count(guarded) == 1
        patched = parse_source(
            original.source.replace(guarded, moved), shards_path, "library"
        )
        modules = [
            patched if m.relpath == shards_path else m for m in project.modules
        ]
        races = [
            f
            for f in check_locks(Project(modules, root=project.root))
            if f.rule == "L001" and f.path == shards_path
        ]
        assert races, "moved guarded mutation was not flagged by L001"
        assert any("'_counts'" in f.message for f in races)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestLintCLI:
    def test_clean_run_exits_zero(self, capsys):
        code = main(["lint", "--root", str(REPO_ROOT)])
        out = capsys.readouterr().out
        assert code == 0
        assert "lint: OK" in out

    def test_empty_baseline_fails_with_findings(self, tmp_path, capsys):
        code = main(
            [
                "lint",
                "--root",
                str(REPO_ROOT),
                "--baseline",
                str(tmp_path / "empty.txt"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "lint: FAIL" in out
        assert "E002" in out

    def test_json_format(self, capsys):
        code = main(["lint", "--root", str(REPO_ROOT), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["counts"]["new"] == 0

    def test_list_rules(self, capsys):
        code = main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        assert code == 0
        for rule_id in ("L001", "D002", "W001", "E002"):
            assert rule_id in out

    def test_unknown_rule_is_a_clean_error(self, capsys):
        code = main(["lint", "--root", str(REPO_ROOT), "--rule", "Z999"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown rule id" in err

    def test_rule_subset_run_is_clean(self, capsys):
        code = main(["lint", "--root", str(REPO_ROOT), "--rule", "L001"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lint: OK" in out

    def test_write_baseline_rejects_rule_subset(self, capsys):
        code = main(
            [
                "lint",
                "--root",
                str(REPO_ROOT),
                "--rule",
                "L001",
                "--write-baseline",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "--write-baseline cannot be combined with --rule" in err

    def test_write_baseline_round_trip(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.txt"
        code = main(
            [
                "lint",
                "--root",
                str(REPO_ROOT),
                "--baseline",
                str(baseline),
                "--write-baseline",
            ]
        )
        assert code == 0
        assert baseline.is_file()
        capsys.readouterr()
        code = main(
            ["lint", "--root", str(REPO_ROOT), "--baseline", str(baseline)]
        )
        assert code == 0
        assert "lint: OK" in capsys.readouterr().out
