#!/usr/bin/env python3
"""ast_audit.py -- semantic determinism/RNG audits for libstosched.

Three rules that line-oriented regexes cannot express (they need function
extents, parameter identity or use-site context), enforced as the tier-1
ctest `ast_audit`. One stdlib-only tokenizer with brace matching checks all
three; it needs no compiler, so it runs wherever the suite does. Whether a
function has a production caller is a question for the linker, not for
this file: see tools/reach_audit.py.

  rng-laundering
      A function that RECEIVES an `Rng&` parameter is a router, not a
      consumer: the reproducibility contract (bit-identical results per
      (seed, stream), see util/rng.hpp) only survives if such functions
      either carve named substreams or hand the stream on whole. Allowed
      uses of an `Rng&` parameter `p`:
        * bootstrap a substream root:   [const] Rng root(p());
        * carve a named substream:      p.stream(i)
        * forward it whole:             f(..., p, ...)
      Everything else -- drawing via `p.uniform(...)`/`p.below(...)`/...,
      raw `p()` outside a bootstrap, aliasing -- is laundering: the draw
      count silently couples the caller's stream to this function's control
      flow, which is exactly how CRN pairings rot. Functions that ARE the
      draw site by design (instance generators, the random-assignment
      policy) declare it with an annotation carrying a mandatory reason:

          // rng-audit: sink(<why this function legitimately draws>)

      placed on or up to three lines above the definition. Handing the
      stream to a law, `law.sample(p)`, is a draw like `p.uniform()` and
      is flagged too, although it looks like whole-argument forwarding
      (tests/lint_fixtures/rng_laundering.cpp pins both cases).

  unordered-iteration
      Iterating a std::unordered_{map,set} (range-for or .begin()) makes
      results a function of libstdc++'s hash seed and growth history;
      pointer-keyed std::{map,set,multimap,multiset} sort by allocation
      address, which varies run to run. Both break the determinism-gate CI
      leg. Unordered lookups (find/emplace/operator[]) stay fine -- only
      iteration order is nondeterministic, so only iteration is flagged.

  entry-contract
      Public entry points (simulate_*/run_*/compare_* definitions under
      src/queueing, src/batch, src/online) must open with input
      validation: a STOSCHED_EXPECTS/STOSCHED_REQUIRE/STOSCHED_ASSERT
      contract or a validate()/validate_*() call within the first eight
      top-level statements. See src/util/contract.hpp for the
      REQUIRE-vs-EXPECTS division of labor.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from lint_stosched import line_of, strip_code  # noqa: E402

RNG_SCOPE_EXCLUDE = ("util", "dist")  # the sampling layer IS the draw site
ENTRY_SCOPE = ("queueing", "batch", "online")
ENTRY_NAME_RE = re.compile(r"\b((?:simulate|run|compare)_\w+)\s*\(")
ENTRY_OPENING_STATEMENTS = 8
ENTRY_VALIDATION_RE = re.compile(
    r"STOSCHED_EXPECTS|STOSCHED_REQUIRE|STOSCHED_ASSERT"
    r"|\.\s*validate\s*\(|\bvalidate_\w+\s*\(")
# The reason is mandatory (non-empty after the paren); it may continue onto
# the next comment line, so the closing paren is not required on this one.
SINK_RE = re.compile(r"//\s*rng-audit:\s*sink\(\s*([^\s)][^\n]*)")
SAMPLE_CALL_RE = re.compile(r"\bsample\s*\(\s*\Z")
UNORDERED_DECL_RE = re.compile(r"\bstd\s*::\s*unordered_(?:map|set)\s*<")
ORDERED_DECL_RE = re.compile(r"\bstd\s*::\s*(?:multi)?(?:map|set)\s*<")


class Violation:
    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def match_angle(text: str, start: int) -> int:
    """Index just past the `>` matching the `<` at start, or -1."""
    depth = 0
    for i in range(start, len(text)):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def match_brace(text: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


def match_paren(text: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def prev_nonspace(text: str, i: int) -> str:
    while i >= 0 and text[i].isspace():
        i -= 1
    return text[i] if i >= 0 else ""


def next_nonspace(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


# ---------------------------------------------------------------------------
# function extraction
# ---------------------------------------------------------------------------

def rng_param_functions(stripped: str):
    """Yield (header_line, audit_start, audit_end, [param names]) for every
    function DEFINITION whose parameter list contains `Rng&`.

    The audit region covers a constructor's member-initializer list too
    (substream carving often happens there). Declarations, using-aliases
    and std::function types (no `{` after the parameter list) are skipped.
    """
    seen_parens = set()
    for m in re.finditer(r"\bRng\s*&", stripped):
        # Walk back to the parameter list's opening paren.
        depth = 0
        open_idx = -1
        for i in range(m.start() - 1, max(m.start() - 4000, -1), -1):
            c = stripped[i]
            if c == ")":
                depth += 1
            elif c == "(":
                if depth == 0:
                    open_idx = i
                    break
                depth -= 1
            elif c in ";}" and depth == 0:
                break  # statement boundary before any paren: not a param
        if open_idx < 0 or open_idx in seen_parens:
            continue
        seen_parens.add(open_idx)
        close_idx = match_paren(stripped, open_idx)
        if close_idx < 0:
            continue
        params = stripped[open_idx:close_idx + 1]
        names = [n for n in re.findall(r"\bRng\s*&\s*(\w*)", params) if n]
        if not names:
            continue

        # Skip qualifiers between `)` and the body / init list.
        i = close_idx + 1
        while True:
            i = next_nonspace(stripped, i)
            q = re.match(r"(?:const|noexcept|override|final|mutable)\b",
                         stripped[i:])
            if q:
                i += q.end()
                continue
            if stripped.startswith("->", i):  # trailing return type
                nxt = re.search(r"[{;]", stripped[i:])
                if not nxt or stripped[i + nxt.start()] != "{":
                    i = -1
                else:
                    i += nxt.start()
            break
        if i < 0 or i >= len(stripped):
            continue
        audit_start = None
        if stripped[i] == ":" and not stripped.startswith("::", i):
            audit_start = i  # constructor init list: audited too
            depth = 0
            while i < len(stripped):
                c = stripped[i]
                if c == "(":
                    depth += 1
                elif c == ")":
                    depth -= 1
                elif c == "{" and depth == 0:
                    break
                i += 1
        if i >= len(stripped) or stripped[i] != "{":
            continue
        body_close = match_brace(stripped, i)
        if body_close < 0:
            continue
        yield (line_of(stripped, open_idx),
               audit_start if audit_start is not None else i,
               body_close, names)


def audit_rng_uses(stripped: str, region_start: int, region_end: int,
                   name: str):
    """Yield (pos, message) for disallowed uses of parameter `name`."""
    region = stripped[region_start:region_end + 1]
    allowed = []
    for am in re.finditer(
            r"(?:const\s+)?Rng\s+\w+\s*\(\s*" + name + r"\s*\(\s*\)\s*\)",
            region):
        allowed.append((am.start(), am.end()))
    for am in re.finditer(r"\b" + name + r"\s*\.\s*stream\s*\(", region):
        allowed.append((am.start(), am.end()))

    for um in re.finditer(r"\b" + name + r"\b", region):
        if any(a <= um.start() < b for a, b in allowed):
            continue
        j = next_nonspace(region, um.end())
        nxt = region[j] if j < len(region) else ""
        if nxt == ".":
            k = next_nonspace(region, j + 1)
            member = re.match(r"\w+", region[k:])
            member_name = member.group(0) if member else "?"
            yield (region_start + um.start(),
                   f"'{name}' draws directly via .{member_name}(); carve a "
                   "substream or forward the stream whole "
                   "(// rng-audit: sink(reason) if this function is the "
                   "draw site by design)")
        elif nxt == "(":
            yield (region_start + um.start(),
                   f"raw '{name}()' outside an `Rng root({name}())` "
                   "bootstrap")
        elif SAMPLE_CALL_RE.search(region, 0, um.start()):
            yield (region_start + um.start(),
                   f"'{name}' handed to sample(): the law draws on the "
                   "routed stream; carve a substream first")
        else:
            prev = prev_nonspace(region, um.start() - 1)
            if prev in "(," and nxt in ",)":
                continue  # whole-argument forwarding
            yield (region_start + um.start(),
                   f"'{name}' aliased or used outside the substream "
                   "discipline (allowed: bootstrap, .stream(i), whole-"
                   "argument forwarding)")


def sink_lines(raw: str) -> set:
    lines = set()
    for i, text in enumerate(raw.splitlines(), start=1):
        m = SINK_RE.search(text)
        if m and m.group(1).strip():
            lines.add(i)
    return lines


def check_rng_laundering(rel: str, raw: str, stripped: str) -> list:
    sinks = sink_lines(raw)
    out = []
    for header_line, start, end, names in rng_param_functions(stripped):
        if any(s in sinks for s in range(header_line - 3, header_line + 1)):
            continue
        for name in names:
            for pos, msg in audit_rng_uses(stripped, start, end, name):
                out.append(Violation("rng-laundering", rel,
                                     line_of(stripped, pos), msg))
    return out


# ---------------------------------------------------------------------------
# unordered iteration / pointer-keyed containers
# ---------------------------------------------------------------------------

def check_unordered_iteration(rel: str, stripped: str) -> list:
    out = []
    unordered_names = set()
    for m in UNORDERED_DECL_RE.finditer(stripped):
        close = match_angle(stripped, m.end() - 1)
        if close < 0:
            continue
        # One or more declarators: `... memo_d, memo_r;`
        decl = re.match(r"\s*(\w+(?:\s*,\s*\w+)*)\s*[;={(]",
                        stripped[close:close + 200])
        if decl:
            for n in re.split(r"\s*,\s*", decl.group(1)):
                unordered_names.add(n)
    for name in sorted(unordered_names):
        for m in re.finditer(
                r"for\s*\([^;()]*:\s*" + name + r"\s*\)", stripped):
            out.append(Violation(
                "unordered-iteration", rel, line_of(stripped, m.start()),
                f"range-for over unordered container '{name}': iteration "
                "order depends on the hash seed and rehash history; use an "
                "ordered container or sort the keys first"))
        for m in re.finditer(r"\b" + name + r"\s*\.\s*c?begin\s*\(",
                             stripped):
            out.append(Violation(
                "unordered-iteration", rel, line_of(stripped, m.start()),
                f"iterator walk over unordered container '{name}': "
                "iteration order is not deterministic"))
    for m in ORDERED_DECL_RE.finditer(stripped):
        close = match_angle(stripped, m.end() - 1)
        if close < 0:
            continue
        args = stripped[m.end():close - 1]
        depth = 0
        key_end = len(args)
        for i, c in enumerate(args):
            if c == "<":
                depth += 1
            elif c == ">":
                depth -= 1
            elif c == "," and depth == 0:
                key_end = i
                break
        if "*" in args[:key_end]:
            out.append(Violation(
                "unordered-iteration", rel, line_of(stripped, m.start()),
                "pointer-keyed ordered container: iteration order is "
                "allocation-address order, which varies run to run; key by "
                "a stable id instead"))
    return out


# ---------------------------------------------------------------------------
# entry contracts
# ---------------------------------------------------------------------------

def entry_opening(stripped: str, body_open: int) -> str:
    """The first ENTRY_OPENING_STATEMENTS top-level statements of a body."""
    depth_brace = 0
    depth_paren = 0
    statements = 0
    i = body_open + 1
    while i < len(stripped):
        c = stripped[i]
        if c == "{":
            depth_brace += 1
        elif c == "}":
            if depth_brace == 0:
                break
            depth_brace -= 1
        elif c == "(":
            depth_paren += 1
        elif c == ")":
            depth_paren -= 1
        elif c == ";" and depth_brace == 0 and depth_paren == 0:
            statements += 1
            if statements >= ENTRY_OPENING_STATEMENTS:
                break
        i += 1
    return stripped[body_open + 1:i + 1]


def check_entry_contract(rel: str, stripped: str) -> list:
    out = []
    for m in ENTRY_NAME_RE.finditer(stripped):
        open_idx = m.end() - 1
        close_idx = match_paren(stripped, open_idx)
        if close_idx < 0:
            continue
        i = next_nonspace(stripped, close_idx + 1)
        while True:
            q = re.match(r"(?:const|noexcept)\b", stripped[i:])
            if not q:
                break
            i = next_nonspace(stripped, i + q.end())
        if i >= len(stripped) or stripped[i] != "{":
            continue  # declaration or call, not a definition
        opening = entry_opening(stripped, i)
        if not ENTRY_VALIDATION_RE.search(opening):
            out.append(Violation(
                "entry-contract", rel, line_of(stripped, m.start()),
                f"public entry '{m.group(1)}' must validate its inputs "
                f"within its first {ENTRY_OPENING_STATEMENTS} statements "
                "(STOSCHED_EXPECTS / STOSCHED_REQUIRE / a validate() "
                "call); see src/util/contract.hpp"))
    return out


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def source_files(root: Path) -> list:
    src = root / "src"
    return sorted(
        p.relative_to(root).as_posix()
        for p in list(src.rglob("*.cpp")) + list(src.rglob("*.hpp")))


def in_rng_scope(rel: str) -> bool:
    parts = rel.split("/")
    return len(parts) > 2 and parts[1] not in RNG_SCOPE_EXCLUDE


def in_entry_scope(rel: str) -> bool:
    parts = rel.split("/")
    return len(parts) > 2 and parts[1] in ENTRY_SCOPE


def run_rules(root: Path, files: list) -> list:
    out = []
    for rel in files:
        raw = (root / rel).read_text(encoding="utf-8")
        stripped = strip_code(raw)
        if in_rng_scope(rel):
            out.extend(check_rng_laundering(rel, raw, stripped))
        out.extend(check_unordered_iteration(rel, stripped))
        if in_entry_scope(rel):
            out.extend(check_entry_contract(rel, stripped))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    violations = run_rules(root, source_files(root))

    for v in violations:
        print(v)
    if violations:
        print(f"\nast_audit: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
