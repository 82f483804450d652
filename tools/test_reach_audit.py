#!/usr/bin/env python3
"""Self-test for tools/reach_audit.py (tier-1 ctest `reach_audit_selftest`).

Proof obligations:
  * on the toy tree tests/lint_fixtures/caller_less, which it compiles and
    links with g++, the audit fires on exactly the functions and
    annotations the fixture marks: a function only a test calls, a private
    member only such a function reaches, two functions whose names only
    collide with a local variable or a data member, and annotations that
    name a missing test, give no reason or sit on a function production
    reaches;
  * it stays quiet for callers in bench/, perfbench/, examples/ and src/,
    and for valid annotations, one of them on a class-template member that
    only a test instantiates;
  * demangled symbols normalize to the names the audit compares.

The fixture cases skip when there is no g++ or no system GoogleTest to link
the fixture's test binary against (a FetchContent build brings its own,
which g++ alone cannot find); CI's arch-and-ast job has both.

The fixture has no case for a virtual that only an override names (the
textual rule's `Shape::area`): a reachable vtable keeps every override
alive and a pure virtual defines no symbol, so the linker cannot judge it.
"""

from __future__ import annotations

import shutil
import subprocess
import tempfile
import unittest
from pathlib import Path

import reach_audit

FIXTURE = (Path(__file__).resolve().parent.parent / "tests" / "lint_fixtures"
           / "caller_less")


def gtest_links(tmp: Path) -> bool:
    """Whether g++ compiles and links a test against a system GoogleTest,
    as the fixture's test binary needs (a FetchContent build has none)."""
    probe = tmp / "probe.cpp"
    probe.write_text("#include <gtest/gtest.h>\nTEST(Probe, Links) {}\n")
    return subprocess.run(
        ["g++", "-std=c++20", str(probe), "-lgtest_main", "-lgtest",
         "-pthread", "-o", str(tmp / "probe")],
        capture_output=True).returncode == 0


class FixtureTree(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not shutil.which("g++"):
            raise unittest.SkipTest("no g++ on PATH")
        with tempfile.TemporaryDirectory() as tmp:
            if not gtest_links(Path(tmp)):
                raise unittest.SkipTest("no system GoogleTest to link against")
            groups = reach_audit.build(FIXTURE, Path(tmp))
            cls.found = {name.rpartition("::")[2]: message for name, message
                         in reach_audit.audit(FIXTURE, groups)}

    def test_fires_on_exactly_the_marked_functions(self):
        self.assertEqual(sorted(self.found),
                         ["empty_reason", "half", "missing_test", "orphan",
                          "rescale", "spread", "stale", "weights"])

    def test_each_finding_says_what_is_wrong(self):
        for name in ("orphan", "half", "rescale", "spread", "weights"):
            self.assertIn("no bench, example or perfbench binary reaches it",
                          self.found[name])
        self.assertIn("'Widget.NoSuchTest'", self.found["missing_test"])
        self.assertIn("gives no reason", self.found["empty_reason"])
        self.assertIn("stale: bench_widget reaches it", self.found["stale"])


class Normalize(unittest.TestCase):
    def test_names_lose_templates_parameters_and_return_types(self):
        for symbol, name in (
                ("double stosched::Box<int>::get(int) const",
                 "stosched::Box::get"),
                ("std::vector<double, std::allocator<double> > "
                 "stosched::lp::solve<int>(stosched::lp::Problem const&)",
                 "stosched::lp::solve"),
                ("stosched::Table::title[abi:cxx11]() const",
                 "stosched::Table::title"),
                ("stosched::Rng::operator()()", "stosched::Rng::operator()"),
                ("bool stosched::operator< <int>(stosched::Key<int> const&)",
                 "stosched::operator<"),
                ("stosched::Box<int>::Box(unsigned long)",
                 "stosched::Box::Box"),
                ("void stosched::run<stosched::f()::{lambda(int)#1}>"
                 "(stosched::f()::{lambda(int)#1}&&)", "stosched::run")):
            self.assertEqual(reach_audit.normalize(symbol), name, symbol)

    def test_skipped_symbols(self):
        for symbol in (
                "stosched::(anonymous namespace)::helper(int)",
                "stosched::f()::{lambda(int)#1}::operator()(int) const",
                "stosched::f(int)::Local::get() const",
                "stosched::Box<int>::Box()",
                "stosched::Box<int>::Box(stosched::Box<int> const&)",
                "stosched::Box<int>::Box(stosched::Box<int>&&)",
                "stosched::Table::~Table()",
                "stosched::Table::operator=(stosched::Table const&)",
                "std::vector<stosched::Event>::push_back(stosched::Event&&)"):
            self.assertIsNone(reach_audit.normalize(symbol), symbol)


if __name__ == "__main__":
    unittest.main(verbosity=2)
