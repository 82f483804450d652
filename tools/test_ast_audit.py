#!/usr/bin/env python3
"""Self-test for tools/ast_audit.py (tier-1 ctest `ast_audit_selftest`).

Proof obligations:
  * each rule FIRES on its committed fixture under tests/lint_fixtures/,
    rng-laundering on both a direct draw and a `law.sample(rng)` hand-off;
  * the allowed Rng uses (bootstrap, .stream(i), whole-argument forwarding)
    and the `// rng-audit: sink(reason)` escape hatch do NOT fire;
  * caller-less fires on a function with no caller and on an annotation that
    names a missing test or gives no reason, and stays quiet for callers in
    bench/, perfbench/, examples/ or src/ and for a valid annotation;
  * the real tree is clean.
"""

from __future__ import annotations

import shutil
import tempfile
import unittest
from pathlib import Path

import ast_audit
import lint_stosched as lint

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"


def run_rng(text: str, rel: str = "src/bandit/fixture.cpp") -> list:
    return ast_audit.check_rng_laundering(rel, text,
                                          lint.strip_code(text))


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


class RngLaunderingFires(unittest.TestCase):
    def test_fixture_fires_on_the_helper_only(self):
        violations = run_rng(read_fixture("rng_laundering.cpp"))
        self.assertEqual([v.rule for v in violations],
                         ["rng-laundering", "rng-laundering"])
        self.assertIn(".uniform", violations[0].message)
        self.assertIn("sample()", violations[1].message)
        self.assertTrue(all(v.line < 18 for v in violations),
                        "the forwarding entry point must stay clean")

    def test_sink_annotation_with_reason_exempts(self):
        text = read_fixture("rng_laundering.cpp").replace(
            "double jitter_helper",
            "// rng-audit: sink(fixture sink test)\ndouble jitter_helper")
        self.assertEqual(run_rng(text), [])

    def test_sink_annotation_without_reason_does_not_exempt(self):
        text = read_fixture("rng_laundering.cpp").replace(
            "double jitter_helper",
            "// rng-audit: sink()\ndouble jitter_helper")
        self.assertEqual(len(run_rng(text)), 2)

    def test_allowed_uses_are_clean(self):
        text = """
            double route(Rng& rng, Rng& other) {
              const Rng root(rng());           // bootstrap
              Rng sub = root.stream(3);        // substream off the root
              Rng direct = other.stream(1);    // substream off the param
              return consume(sub, other) + direct.uniform(0.0, 1.0);
            }
        """
        self.assertEqual(run_rng(text), [])

    def test_raw_draw_and_alias_fire(self):
        text = """
            double bad_raw(Rng& rng) { return double(rng()) * 0.5; }
            void bad_alias(Rng& rng) { Rng& same = rng; use(same); }
        """
        rules = [v.message for v in run_rng(text)]
        self.assertEqual(len(rules), 2)
        self.assertIn("raw", rules[0])
        self.assertIn("aliased", rules[1])

    def test_constructor_init_list_is_audited(self):
        clean = """
            struct Sim {
              Rng arrivals;
              Sim(int n, Rng& r) : arrivals(r.stream(0)) { go(n); }
            };
        """
        self.assertEqual(run_rng(clean), [])
        dirty = """
            struct Sim {
              double x;
              Sim(Rng& r) : x(r.uniform(0.0, 1.0)) {}
            };
        """
        self.assertEqual(len(run_rng(dirty)), 1)

    def test_clang_backend_flags_sample_hand_off(self):
        """`law.sample(rng)` on a hand-built -ast-dump=json tree: the clang
        backend must flag it and still accept plain forwarding."""
        rng = {"kind": "DeclRefExpr", "referencedDecl": {"id": "p1"},
               "loc": {"line": 3}}
        law = {"kind": "DeclRefExpr", "referencedDecl": {"id": "p0"}}

        def call(callee):
            member = {"kind": "MemberExpr", "name": callee, "inner": [law]}
            return {"kind": "CXXMemberCallExpr", "inner": [member, rng]}

        def tu(body):
            fn = {"kind": "FunctionDecl", "loc": {"line": 1}, "inner": [
                {"kind": "ParmVarDecl", "id": "p1", "name": "rng",
                 "type": {"qualType": "stosched::Rng &"}},
                {"kind": "CompoundStmt", "inner": [body]}]}
            return {"kind": "TranslationUnitDecl", "inner": [fn]}

        flagged = ast_audit.clang_check_tu(tu(call("sample")), "f.cpp", "")
        self.assertEqual([v.rule for v in flagged], ["rng-laundering"])
        self.assertEqual(
            ast_audit.clang_check_tu(tu(call("simulate")), "f.cpp", ""), [])

    def test_sampling_layer_is_out_of_scope(self):
        self.assertFalse(ast_audit.in_rng_scope("src/util/rng.hpp"))
        self.assertFalse(ast_audit.in_rng_scope("src/dist/distribution.cpp"))
        self.assertTrue(ast_audit.in_rng_scope("src/batch/job.cpp"))


class UnorderedIterationFires(unittest.TestCase):
    def test_fixture_fires_twice(self):
        text = read_fixture("unordered_iteration.cpp")
        violations = ast_audit.check_unordered_iteration(
            "src/x/f.cpp", lint.strip_code(text))
        self.assertEqual([v.rule for v in violations],
                         ["unordered-iteration", "unordered-iteration"])
        messages = " | ".join(v.message for v in violations)
        self.assertIn("range-for", messages)
        self.assertIn("pointer-keyed", messages)

    def test_lookups_and_ordered_iteration_are_clean(self):
        text = """
            #include <map>
            #include <unordered_map>
            std::unordered_map<int, double> memo_a, memo_b;
            double ok(int k) {
              const auto it = memo_a.find(k);      // lookup: fine
              if (it != memo_a.end()) return it->second;
              std::map<int, double> ordered;
              double t = 0.0;
              for (const auto& kv : ordered) t += kv.second;  // fine
              return t;
            }
        """
        self.assertEqual(ast_audit.check_unordered_iteration(
            "src/x/f.cpp", lint.strip_code(text)), [])

    def test_multi_declarator_iteration_fires(self):
        text = """
            #include <unordered_map>
            std::unordered_map<int, int> memo_a, memo_b;
            int walk() {
              int n = 0;
              for (auto it = memo_b.begin(); it != memo_b.end(); ++it) ++n;
              return n;
            }
        """
        violations = ast_audit.check_unordered_iteration(
            "src/x/f.cpp", lint.strip_code(text))
        self.assertEqual(len(violations), 1)
        self.assertIn("memo_b", violations[0].message)


class EntryContractFires(unittest.TestCase):
    def test_fixture_fires(self):
        text = read_fixture("contract_free_entry.cpp")
        violations = ast_audit.check_entry_contract(
            "src/queueing/f.cpp", lint.strip_code(text))
        self.assertEqual(len(violations), 1)
        self.assertIn("simulate_widget", violations[0].message)

    def test_each_validation_form_passes(self):
        for opening in ('STOSCHED_REQUIRE(n > 0, "n");',
                        'STOSCHED_EXPECTS(n > 0, "n");',
                        "config.validate();",
                        "validate_types(types);"):
            text = ("double simulate_widget(int n) {\n  " + opening +
                    "\n  return n * 2.0;\n}\n")
            self.assertEqual(ast_audit.check_entry_contract(
                "src/queueing/f.cpp", lint.strip_code(text)), [],
                f"{opening!r} should satisfy the entry contract")

    def test_validation_too_late_fires(self):
        stmts = "  x += 1.0;\n" * ast_audit.ENTRY_OPENING_STATEMENTS
        text = ("double run_widget(int n) {\n  double x = 0.0;\n" + stmts +
                '  STOSCHED_REQUIRE(n > 0, "n");\n  return x;\n}\n')
        violations = ast_audit.check_entry_contract(
            "src/batch/f.cpp", lint.strip_code(text))
        self.assertEqual(len(violations), 1)

    def test_declarations_and_calls_are_skipped(self):
        text = """
            double simulate_widget(int n);
            double driver(int n) {
              STOSCHED_REQUIRE(n > 0, "n");
              return simulate_widget(n) + run_widget(n);
            }
        """
        self.assertEqual(ast_audit.check_entry_contract(
            "src/online/f.cpp", lint.strip_code(text)), [])

    def test_scope_is_queueing_batch_online(self):
        self.assertTrue(ast_audit.in_entry_scope("src/queueing/mg1.cpp"))
        self.assertTrue(ast_audit.in_entry_scope("src/online/simulate.cpp"))
        self.assertFalse(ast_audit.in_entry_scope("src/experiment/x.cpp"))
        self.assertFalse(ast_audit.in_entry_scope("src/core/x.cpp"))


class CallerLessFires(unittest.TestCase):
    TREE = FIXTURES / "caller_less"

    def findings(self, root=TREE) -> dict:
        return {v.message.split("'")[1]: v.message
                for v in ast_audit.check_caller_less(root)}

    def test_fixture_fires_on_exactly_the_three_bad_functions(self):
        self.assertEqual(sorted(self.findings()),
                         ["empty_reason", "missing_test", "orphan"])

    def test_each_finding_says_what_is_wrong(self):
        found = self.findings()
        self.assertIn("has no caller", found["orphan"])
        self.assertIn("Widget.NoSuchTest", found["missing_test"])
        self.assertIn("no reason", found["empty_reason"])

    def test_callers_outside_tests_and_valid_annotation_are_quiet(self):
        quiet = ("used_by_bench", "used_by_perfbench", "used_by_example",
                 "used_in_src", "oracle")
        self.assertFalse(set(quiet) & set(self.findings()))

    def test_annotation_on_a_called_function_is_stale(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "tree"
            shutil.copytree(self.TREE, root)
            bench = root / "bench" / "bench_widget.cpp"
            bench.write_text(bench.read_text(encoding="utf-8") +
                             "double extra() { return fixture::oracle(1); }\n",
                             encoding="utf-8")
            self.assertIn("production caller", self.findings(root)["oracle"])

    def test_declaration_scan_skips_what_is_not_audited(self):
        text = """
            namespace n {
            template <class F> void each(F f, const Opts& o = {});
            struct S {
              S(int x) : x_{x}, y_(x) {}
              ~S();
              bool operator<(const S& o) const { return x_ < o.x_; }
              double area() const override;
              int get() const noexcept { return x_; }
              int x_ = 0, y_ = 0;
             private:
              int secret() const;
            };
            }
        """
        decls = ast_audit.function_decls(lint.strip_code(text))
        self.assertEqual([(d.name, d.public) for d in decls],
                         [("each", True), ("get", True), ("secret", False)])


class RealTreeIsClean(unittest.TestCase):
    def test_textual_backend_is_clean(self):
        violations = ast_audit.run_textual(
            REPO_ROOT, ast_audit.source_files(REPO_ROOT))
        self.assertEqual(
            [str(v) for v in violations], [],
            "ast_audit must be clean on the tree — fix the findings or "
            "annotate a deliberate sink or test-only function with its "
            "reason")

    def test_fixture_per_rule_exists(self):
        for fixture in ("rng_laundering.cpp", "unordered_iteration.cpp",
                        "contract_free_entry.cpp",
                        "caller_less/src/widget/widget.hpp"):
            self.assertTrue((FIXTURES / fixture).is_file(),
                            f"missing fixture {fixture}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
