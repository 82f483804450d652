#!/usr/bin/env python3
"""reach_audit.py -- which library functions does no production binary reach?

Builds the tree into a scratch directory of its own (never the CMake build),
at -O0 with -ffunction-sections -fkeep-inline-functions and the contract
macros armed:

  * libstosched.a from every src/**/*.cpp;
  * one binary per bench/bench_*.cpp, examples/*.cpp and tests/*.cpp, and
    one perfbench binary from perfbench/*.cpp, each linked against that
    archive with -Wl,--gc-sections, so a binary keeps only what it reaches.

Then it compares `nm -C --defined-only`. A `stosched::` function that
libstosched.a or a test binary defines, but no bench, example or perfbench
binary does, needs

    // caller-audit: test-only(Suite.Name: <why the test needs it>)

on or up to three lines above its declaration in src/. Names are compared
with template arguments and parameter lists stripped, so an overload set,
and every instantiation of a template, is one name. -fkeep-inline-functions
puts header-only functions in the archive; the test binaries add class-
template members that only tests instantiate (the fixture's Box<int>).
Private members are audited too. Skipped: anonymous-namespace functions,
lambdas and other function-local entities, destructors, copy/move
assignment, and default, copy and move constructors, which the compiler may
generate.

An annotation is itself a finding when Suite.Name is no TEST/TEST_P/TEST_F
that a test binary defines, when its reason is empty, when production
reaches the function after all, or when it matches no function defined in
the archive or a test binary.

Blind spots. The linker cannot judge
  * virtual members: a reachable vtable keeps every override alive, called
    or not, and a pure virtual defines no symbol at all, so neither kind can
    carry an annotation;
  * templates instantiated nowhere: they define no symbol either.

tools/test_reach_audit.py links the toy tree tests/lint_fixtures/caller_less
and pins each case. Usage:

    python3 tools/reach_audit.py [--root DIR] [--build-dir DIR]

Needs g++, nm, GoogleTest and Google Benchmark; exits 1 on findings.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint_stosched  # noqa: E402  (strip_code)

CXXFLAGS = ["-std=c++20", "-O0", "-ffunction-sections",
            "-fkeep-inline-functions", "-fopenmp", "-pthread", "-w",
            "-DSTOSCHED_CONTRACTS"]
NAMESPACE = "stosched::"
ANNOTATION_RE = re.compile(r"//\s*caller-audit:\s*test-only\(([^\n]*)")
NM_RE = re.compile(r"^[0-9a-f]+ [TtWw] (.*)$")
TEST_BODY_RE = re.compile(r"(\w+)_Test::TestBody\(\)$")
# A namespace, a class head, or a bare brace, in comment-stripped source.
SCOPE_RE = re.compile(r"\bnamespace\s*([\w:]*)\s*\{"
                      r"|\b(?:class|struct|union)\s+(\w+)\s*(?:final\s*)?"
                      r"(?::[^;{]*)?\{|[{}]")


def run(args: list, cwd: Path | None = None) -> str:
    proc = subprocess.run(args, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"reach_audit: {' '.join(map(str, args))} failed:\n"
                         f"{proc.stderr}")
    return proc.stdout


def strip_nested(text: str, open_: str, close: str) -> str:
    """Drop every balanced open_...close group."""
    out, depth = [], 0
    for c in text:
        depth += c == open_
        if depth == 0:
            out.append(c)
        depth -= c == close and depth > 0
    return "".join(out)


@functools.cache
def normalize(symbol: str):
    """The audited name of a demangled function symbol, or None when the
    audit skips it: `double stosched::Box<int>::get(int) const` reads
    `stosched::Box::get`."""
    s = re.sub(r" ?\[(?:clone|abi:)[^\]]*\]", "", symbol)
    s = s.replace("(anonymous namespace)", "{anon}")
    # An operator's own symbol must survive template and parameter stripping.
    s = re.sub(r"\boperator\s*(\(\)|[^\w\s(]+)",
               lambda m: "operator" + m.group(1).translate(
                   str.maketrans("<>()", "\x01\x02\x03\x04")), s)
    s = strip_nested(s, "<", ">")
    head, paren, rest = s.partition("(")
    tail = strip_nested("(" + rest, "(", ")")  # what follows the parameters
    name = re.search(r"[\w:~\x01-\x04]+$",
                     head.rstrip().replace("operator ", "operator_"))
    if "{" in head or "::" in tail or not paren or not name or \
            not name.group(0).startswith(NAMESPACE):
        return None  # anonymous namespace, lambda or function-local entity
    params = rest[:len(rest) - len(tail) - 1].strip()
    qual = name.group(0).translate(str.maketrans("\x01\x02\x03\x04", "<>()"))
    parts = qual.split("::")
    if parts[-1].startswith("~") or parts[-1] == "operator=":
        return None
    if parts[-1] == parts[-2] and re.fullmatch(
            rf"(?:(?:\w+::)*{parts[-1]}(?: const)?&&?)?", params):
        return None  # default, copy or move constructor
    return qual


def nm_symbols(path: Path) -> list:
    """The demangled name of each function `path` defines."""
    return [m.group(1) for m in map(NM_RE.match, run(
        ["nm", "-C", "--defined-only", str(path)]).splitlines()) if m]


def build(root: Path, out: Path) -> dict:
    """Compile and link the tree into `out`; {kind: [archive or binaries]}."""
    library = sorted((root / "src").rglob("*.cpp"))
    binaries = [(out / p.stem, kind, [p])
                for pattern, kind in (("bench/bench_*.cpp", "production"),
                                      ("examples/*.cpp", "production"),
                                      ("tests/*.cpp", "tests"))
                for p in sorted(root.glob(pattern))]
    if perf := sorted(root.glob("perfbench/*.cpp")):
        binaries.append((out / "perfbench", "production", perf))

    def obj(p: Path) -> Path:
        rel = p.relative_to(root).as_posix()
        return out / (rel.replace("/", "__") + ".o")

    def compile_unit(p: Path):
        run(["g++", *CXXFLAGS, "-Isrc", "-c", str(p), "-o", str(obj(p))],
            cwd=root)

    def link(binary):
        path, _, sources = binary
        text = "".join(p.read_text(encoding="utf-8") for p in sources)
        libs = (["-lgtest_main", "-lgtest"] * ("gtest/gtest.h" in text) +
                ["-lbenchmark_main", "-lbenchmark"] *
                ("benchmark/benchmark.h" in text))
        run(["g++", *(str(obj(p)) for p in sources), str(archive), "-fopenmp",
             "-pthread", "-Wl,--gc-sections", *libs, "-o", str(path)])

    out.mkdir(parents=True, exist_ok=True)
    archive = out / "libstosched.a"
    archive.unlink(missing_ok=True)
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        list(pool.map(compile_unit,
                      library + [p for b in binaries for p in b[2]]))
        run(["ar", "rcs", str(archive), *map(str, map(obj, library))])
        list(pool.map(link, binaries))
    return {kind: [archive] * (kind == "tests") +
            [b[0] for b in binaries if b[1] == kind]
            for kind in ("production", "tests")}


def annotations(root: Path) -> list:
    """(rel, line, qualified name or None, test, reason) of each caller-audit
    annotation in src/; the name is the function declared within the three
    lines below it, qualified by its enclosing namespaces and classes."""
    out = []
    for path in sorted((root / "src").rglob("*.[ch]pp")):
        raw = path.read_text(encoding="utf-8")
        stripped = lint_stosched.strip_code(raw)
        starts = [0] + [m.end() for m in re.finditer("\n", stripped)]
        for line, text in enumerate(raw.splitlines(), start=1):
            m = ANNOTATION_RE.search(text)
            if not m:
                continue
            test, _, reason = m.group(1).partition(":")
            end = starts[min(line + 3, len(starts) - 1)]
            decl = re.compile(r"(~?\w+)\s*\(").search(stripped, starts[line],
                                                     end)
            name = None
            if decl:
                stack = []
                for m in SCOPE_RE.finditer(stripped, 0, decl.start()):
                    if m.group(0) == "}":
                        stack.pop()
                    else:
                        stack.append(m.group(1) or m.group(2) or
                                     ("{anon}" if "namespace" in m.group(0)
                                      else ""))
                name = "::".join([s for s in stack if s] + [decl.group(1)])
            out.append((path.relative_to(root).as_posix(), line, name,
                        test.strip(), reason.strip().rstrip(")").strip()))
    return out


def audit(root: Path, groups: dict) -> list:
    """The findings on the built `groups`, as (name, message) pairs."""
    names = {kind: {} for kind in groups}  # kind -> {name: first definer}
    tests = set()
    for kind, paths in groups.items():
        for path in paths:
            for symbol in nm_symbols(path):
                if m := TEST_BODY_RE.search(symbol):
                    tests.add(m.group(1))
                if name := normalize(symbol):
                    names[kind].setdefault(name, path.name)
    reached = names["production"]
    findings = []
    annotated = set()
    for rel, line, name, test, reason in annotations(root):
        where = f"{rel}:{line}: annotation"
        if name is None:
            problem = "declares no function within the three lines below it"
        elif test.count(".") != 1 or test.replace(".", "_") not in tests:
            problem = f"names no TEST/TEST_P/TEST_F '{test}' in a test binary"
        elif not reason:
            problem = "gives no reason"
        elif name in reached:
            problem = f"is stale: {reached[name]} reaches it"
        elif name not in names["tests"]:
            problem = ("matches no function that libstosched.a or a test "
                       "binary defines (a virtual, or a template nothing "
                       "instantiates?)")
        else:
            problem = None
        if problem:
            findings.append((name, f"{where} on '{name}' {problem}"
                                   if name else f"{where} {problem}"))
        annotated.add(name)
    for name, definer in sorted(names["tests"].items()):
        if name not in reached and name not in annotated:
            findings.append((name, (
                f"'{name}' is defined in {definer} but no bench, example or "
                "perfbench binary reaches it: delete it, or annotate it "
                "// caller-audit: test-only(Suite.Name: reason)")))
    return findings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--build-dir", type=Path, default=None,
                        help="scratch directory (default: a temporary one)")
    args = parser.parse_args(argv)
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="reach_audit_") as tmp:
        root = args.root.resolve()
        out = (args.build_dir or Path(tmp)).resolve()
        findings = audit(root, build(root, out))
    for _, message in findings:
        print(message)
    print(f"reach_audit: {len(findings)} finding(s) in "
          f"{time.monotonic() - start:.0f} s", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
