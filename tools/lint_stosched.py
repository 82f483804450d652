#!/usr/bin/env python3
"""lint_stosched.py — repo-specific static lint for libstosched.

Enforces the invariants the codebase relies on but no compiler checks:

  raw-random            All randomness flows through util/Rng. Outside
                        src/util/, no <random>, std::mt19937/rand/srand/
                        random_device/default_random_engine and no std::*
                        distribution adaptors — their algorithms are
                        implementation-defined, which breaks the bit-identical
                        (seed, stream) replay every CRN test depends on.
  umbrella-header       Every header under src/ is transitively reachable
                        from the core/stosched.hpp umbrella, so one include
                        really is the full public API.
  bench-finish          Every table-driven bench/bench_*.cpp exits through
                        bench_common::finish (and never re-implements the
                        exit via all_checks_passed), so STOSCHED_BENCH_JSON
                        mirrors and bench_history.jsonl stay complete.
  float-accumulator     No `float` in src/ or bench/: statistics paths
                        accumulate in double; single-precision accumulators
                        lose ~7 digits over 10^8-event runs.
  hot-loop-clock        No direct clock reads (<chrono>, clock_gettime,
                        gettimeofday, *_clock) in src/des, src/queueing or
                        src/lp: the DES event loop and the simplex pivot
                        loop are the multipliers on every experiment, so
                        they read no clock at all. Per-layer costs and spans
                        come from perfbench's layer passes.
  metrics-registry      No bespoke std::atomic telemetry in src/ outside
                        src/obs/ and src/util/: counters and histograms flow
                        through the obs registry so bench_common::finish can
                        export every instrument generically and the OMP 1-vs-8
                        determinism gate sees all of them.
  scenario-reader       Every name registered in src/experiment/scenario.cpp
                        (the first string of a `reg.add({"..."` or a
                        `.name = "..."` inside a build_*_registry function) is
                        the literal argument of some `*_scenario("...")` call
                        in src/, bench/, perfbench/ or examples/. Tests do not
                        count: an entry only a test reads belongs in that
                        test.

Usage:
  lint_stosched.py [--root DIR] [--rules raw-random,bench-finish,...]
                   [--list-rules]

Exit code 0 when clean, 1 when any rule fires. Violations print as
`path:line: [rule] message`. Stdlib only — no third-party dependencies.
Deliberately-bad fixtures live in tests/lint_fixtures/ (excluded from tree
scans); tools/test_lint_stosched.py proves each rule fires on its fixture.
"""

import argparse
import re
import sys
from pathlib import Path


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# C++ text handling
# ---------------------------------------------------------------------------

# A literal can open with an encoding prefix (u8, u, U, L), an R for raw
# strings, or bare quotes. The prefix is only a prefix when the character
# before it is not part of an identifier — `FOO_R"(x)"` is the identifier
# FOO_R followed by an ordinary string, not a raw string.
_LIT_START_RE = re.compile(r'(?:u8|[uUL])?(R?)(["\'])')
_RAW_OPEN_RE = re.compile(r'(?:u8|[uUL])?R"([^\s()\\]{0,16})\(')


def strip_code(text):
    """Blank out comments and string/char literals, preserving newlines (and
    therefore line numbers and offsets). Handles //, /* */, "..." and '...'
    with escapes, encoding prefixes (u8/u/U/L), (prefixed) raw strings
    R"delim(...)delim", and digit separators (1'000'000 opens no char
    literal)."""
    out = list(text)
    i, n = 0, len(text)

    def blank(lo, hi):
        for k in range(lo, hi):
            if out[k] != "\n":
                out[k] = " "

    def skip_quoted(start, quote):
        """Blank a non-raw literal body whose opening quote is at `start`;
        return the index just past the closing quote."""
        j = start + 1
        while j < n and text[j] != quote:
            j += 2 if text[j] == "\\" else 1
        blank(start + 1, min(j, n))
        return min(j, n) + 1

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        prev = text[i - 1] if i else ""
        ident_prev = prev.isalnum() or prev == "_"
        if c == "/" and nxt == "/":
            end = text.find("\n", i)
            end = n if end == -1 else end
            blank(i, end)
            i = end
        elif c == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            blank(i, end)
            i = end
        elif c in 'uULR\'"' and not ident_prev:
            m = _LIT_START_RE.match(text, i)
            if m is None:
                i += 1
                continue
            if m.group(1):
                raw = _RAW_OPEN_RE.match(text, i)
                if raw:
                    close = ")" + raw.group(1) + '"'
                    end = text.find(close, raw.end())
                    end = n if end == -1 else end + len(close)
                    blank(i, end)
                    i = end
                    continue
                # `R"` with a malformed delimiter: lex as an ordinary string.
            i = skip_quoted(m.end() - 1, m.group(2))
        elif c == '"':
            # Quote glued to an identifier (macro juxtaposition, operator""):
            # still an ordinary string boundary.
            i = skip_quoted(i, '"')
        elif c == "'":
            # Glued to an identifier/digit: a digit separator (1'000'000),
            # not the start of a char literal.
            i += 1
        else:
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def read(path):
    return path.read_text(encoding="utf-8")


def cxx_files(root, *subdirs, suffixes=(".cpp", ".hpp")):
    """All C++ files under the given subdirectories, sorted, excluding the
    deliberately-bad lint fixtures."""
    found = []
    for sub in subdirs:
        base = root / sub
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if p.suffix in suffixes and "lint_fixtures" not in p.parts:
                found.append(p)
    return found


def rel(root, path):
    return path.relative_to(root).as_posix()


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

RAW_RANDOM_PATTERNS = [
    (re.compile(r"#\s*include\s*<random>"), "includes <random>"),
    (re.compile(r"\bstd\s*::\s*(mt19937(?:_64)?|minstd_rand0?|ranlux\w*|"
                r"knuth_b|default_random_engine|random_device)\b"),
     "uses a std:: random engine"),
    (re.compile(r"\bstd\s*::\s*s?rand\b"), "uses std::rand/std::srand"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "uses C rand()/srand()"),
    (re.compile(r"(?<![\w:])random_device\b"), "uses random_device"),
    (re.compile(r"\b\w+_distribution\s*<"), "uses a <random> distribution "
                                            "adaptor"),
]


def rule_raw_random(root):
    """All randomness flows through util/Rng substreams."""
    out = []
    for path in cxx_files(root, "src", "bench", "tests", "examples"):
        if (root / "src" / "util") in path.parents:
            continue  # the Rng implementation itself
        code = strip_code(read(path))
        for pat, what in RAW_RANDOM_PATTERNS:
            for m in pat.finditer(code):
                out.append(Violation(
                    rel(root, path), line_of(code, m.start()), "raw-random",
                    f"{what} — all randomness must flow through util/Rng "
                    f"(deterministic (seed, stream) replay)"))
    return out


def rule_umbrella_header(root):
    """Every src/**/*.hpp reachable from core/stosched.hpp."""
    src = root / "src"
    umbrella = src / "core" / "stosched.hpp"
    if not umbrella.is_file():
        return [Violation("src/core/stosched.hpp", 1, "umbrella-header",
                          "umbrella header missing")]
    reached = set()
    frontier = [umbrella]
    while frontier:
        hdr = frontier.pop()
        key = hdr.resolve()
        if key in reached:
            continue
        reached.add(key)
        # includes are parsed from the raw text: they sit outside comments
        for m in re.finditer(r'#\s*include\s*"([^"]+)"', read(hdr)):
            # includes resolve against the src/ include dir or the including
            # file's own directory
            for cand in (src / m.group(1), hdr.parent / m.group(1)):
                if cand.is_file():
                    frontier.append(cand)
                    break
    out = []
    for path in cxx_files(root, "src", suffixes=(".hpp",)):
        if path.resolve() not in reached:
            out.append(Violation(
                rel(root, path), 1, "umbrella-header",
                "header not reachable from core/stosched.hpp — add it to "
                "the umbrella so one include is the full public API"))
    return out


def rule_bench_finish(root):
    """Table-driven benches terminate via bench_common::finish."""
    out = []
    bench = root / "bench"
    if not bench.is_dir():
        return out
    for path in sorted(bench.glob("bench_*.cpp")):
        if path.name.startswith("bench_micro_"):
            continue  # Google Benchmark main, no table to mirror
        code = strip_code(read(path))
        if not re.search(r"\bfinish\s*\(", code):
            out.append(Violation(
                rel(root, path), 1, "bench-finish",
                "bench never calls bench_common::finish — its table is "
                "missing from STOSCHED_BENCH_JSON and bench_history.jsonl"))
        for m in re.finditer(r"\ball_checks_passed\s*\(", code):
            out.append(Violation(
                rel(root, path), line_of(code, m.start()), "bench-finish",
                "hand-rolled exit via all_checks_passed() — route the exit "
                "code through bench_common::finish instead"))
    return out


def rule_float_accumulator(root):
    """No single-precision arithmetic in src/ or bench/."""
    out = []
    for path in cxx_files(root, "src", "bench"):
        code = strip_code(read(path))
        for m in re.finditer(r"\bfloat\b", code):
            out.append(Violation(
                rel(root, path), line_of(code, m.start()),
                "float-accumulator",
                "`float` in a statistics path — accumulate in double "
                "(single precision loses ~7 digits over 10^8 events)"))
    return out


HOT_LOOP_CLOCK_PATTERNS = [
    (re.compile(r"#\s*include\s*<chrono>"), "includes <chrono>"),
    (re.compile(r"\bstd\s*::\s*chrono\b"), "uses std::chrono"),
    (re.compile(r"\bclock_gettime\b"), "calls clock_gettime"),
    (re.compile(r"\bgettimeofday\b"), "calls gettimeofday"),
    (re.compile(r"\b(?:steady|system|high_resolution)_clock\b"),
     "reads a wall clock"),
]


def rule_hot_loop_clock(root):
    """No direct clock reads in the hot paths (src/des, src/queueing,
    src/lp). A stray steady_clock::now() in an event loop or a simplex
    pivot loop costs ~20ns per call and distorts what it times. Per-layer
    costs and spans come from perfbench's layer passes, outside the scanned
    tree."""
    out = []
    for path in cxx_files(root, "src/des", "src/queueing", "src/lp"):
        code = strip_code(read(path))
        for pat, what in HOT_LOOP_CLOCK_PATTERNS:
            for m in pat.finditer(code):
                out.append(Violation(
                    rel(root, path), line_of(code, m.start()),
                    "hot-loop-clock",
                    f"{what} in a hot path — time layers from perfbench, "
                    f"outside the loop"))
    return out


METRICS_REGISTRY_PATTERNS = [
    (re.compile(r"#\s*include\s*<atomic>"), "includes <atomic>"),
    (re.compile(r"\bstd\s*::\s*atomic\b"), "declares a std::atomic"),
]


def rule_metrics_registry(root):
    """No bespoke std::atomic telemetry outside src/obs/ and src/util/."""
    out = []
    for path in cxx_files(root, "src"):
        parents = path.parents
        if (root / "src" / "obs") in parents or \
           (root / "src" / "util") in parents:
            continue  # the registry itself and the low-level substrate
        code = strip_code(read(path))
        for pat, what in METRICS_REGISTRY_PATTERNS:
            for m in pat.finditer(code):
                out.append(Violation(
                    rel(root, path), line_of(code, m.start()),
                    "metrics-registry",
                    f"{what} — telemetry goes through the obs registry's "
                    f"fixed instruments (obs/metrics.hpp), not ad-hoc "
                    f"atomics: they are what bench JSON export and the "
                    f"determinism gate see"))
    return out


SCENARIO_SOURCE = ("src", "experiment", "scenario.cpp")
_BUILD_REGISTRY_RE = re.compile(r"\bbuild_\w+_registry\s*\(\s*\)\s*\{")
_REG_ADD_RE = re.compile(r'\breg\s*\.\s*add\s*\(\s*\{\s*"')
_NAME_SET_RE = re.compile(r'\.\s*name\s*=\s*"')
_LOOKUP_RE = re.compile(r'\b\w+_scenario\s*\(\s*"')


def _literal_at(text, code, quote):
    """The body of the string literal opening at offset `quote`. strip_code
    keeps a literal's quotes and blanks its body, so the closing quote is
    the next one in `code`, and the body is read back from `text`."""
    return text[quote + 1:code.index('"', quote + 1)]


def _block_end(code, open_idx):
    """Offset of the brace closing the block that opens at `open_idx`."""
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(code)


def rule_scenario_reader(root):
    """Every registered scenario is looked up outside the tests."""
    path = root.joinpath(*SCENARIO_SOURCE)
    if not path.is_file():
        return []
    text = read(path)
    code = strip_code(text)
    registered = []
    for m in _BUILD_REGISTRY_RE.finditer(code):
        end = _block_end(code, m.end() - 1)
        for pat in (_REG_ADD_RE, _NAME_SET_RE):
            for n in pat.finditer(code, m.end(), end):
                quote = n.end() - 1
                registered.append((_literal_at(text, code, quote),
                                   line_of(code, quote)))
    looked_up = set()
    for reader in cxx_files(root, "src", "bench", "perfbench", "examples"):
        rtext = read(reader)
        rcode = strip_code(rtext)
        for n in _LOOKUP_RE.finditer(rcode):
            looked_up.add(_literal_at(rtext, rcode, n.end() - 1))
    return [Violation(
                rel(root, path), line, "scenario-reader",
                f"scenario '{name}' is registered but no bench, perfbench "
                f"run or example looks it up by name — give it a reader or "
                f"delete it (tests do not count)")
            for name, line in sorted(registered, key=lambda r: r[1])
            if name not in looked_up]


RULES = {
    "raw-random": rule_raw_random,
    "umbrella-header": rule_umbrella_header,
    "bench-finish": rule_bench_finish,
    "float-accumulator": rule_float_accumulator,
    "hot-loop-clock": rule_hot_loop_clock,
    "metrics-registry": rule_metrics_registry,
    "scenario-reader": rule_scenario_reader,
}


def run_rules(root, names=None):
    violations = []
    for name in names or RULES:
        violations.extend(RULES[name](Path(root)))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                    help="repository root (default: the tools/ parent)")
    ap.add_argument("--rules", default="",
                    help="comma-separated subset of rules (default: all)")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        for name, fn in RULES.items():
            print(f"{name:22s} {fn.__doc__.splitlines()[0]}")
        return 0

    names = [r.strip() for r in args.rules.split(",") if r.strip()] or None
    for name in names or []:
        if name not in RULES:
            print(f"unknown rule: {name} (see --list-rules)", file=sys.stderr)
            return 2

    violations = run_rules(args.root, names)
    for v in violations:
        print(v)
    if violations:
        print(f"\n{len(violations)} violation(s) across "
              f"{len({v.rule for v in violations})} rule(s)")
        return 1
    print(f"lint_stosched: clean ({len(names or RULES)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
