#!/usr/bin/env python3
"""ast_audit.py -- semantic determinism/RNG audits for libstosched.

Four rules that line-oriented regexes cannot express (they need function
extents, parameter identity, use-site context or the whole tree), enforced
as the tier-1 ctest `ast_audit`:

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

  caller-less
      Every function name declared in src/**/*.hpp (free functions and
      public members; constructors, destructors, operators and overrides
      skipped; an overload set is one name) needs a production caller: the
      name appears in bench/, perfbench/ or examples/, or in src/ outside
      its own declarations and definitions. A use in tests/ never counts. A
      function that only a test needs says which test and why:

          // caller-audit: test-only(Suite.Name: <why the test needs it>)

      placed on or up to three lines above the declaration. The annotation
      is itself a finding when Suite.Name matches no TEST/TEST_P/TEST_F in
      tests/, when the reason is empty, when the function has a production
      caller after all, or when no declaration follows it
      (tests/lint_fixtures/caller_less/ is a toy tree that pins the cases).

Backends:
  --backend textual   (default) stdlib-only tokenizer + brace matching;
                      runs everywhere, gates the build as a ctest.
  --backend clang     drives `clang++ -Xclang -ast-dump=json` over a CMake
                      compile database (CMAKE_EXPORT_COMPILE_COMMANDS=ON)
                      for the two AST-shaped rules; entry-contract stays
                      textual even here because contracts are macros and
                      the AST only sees their expansion, and so does
                      caller-less, which reads bench/, perfbench/ and
                      examples/ that the compile database may not cover.
                      Used by the arch-and-ast CI job where clang-18 is
                      installed.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint_stosched  # noqa: E402  (shared strip_code / brace matching)

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
CALLER_DIRS = ("bench", "perfbench", "examples")
CALLER_AUDIT_RE = re.compile(r"//\s*caller-audit:\s*test-only\(([^\n]*)")
TEST_DECL_RE = re.compile(r"\bTEST(?:_P|_F)?\s*\(\s*(\w+)\s*,\s*(\w+)\s*\)")
CLASS_HEAD_RE = re.compile(r"\s*(?:template\s*<[^{;]*>\s*)?(class|struct|union)"
                           r"\b\s*(?:alignas\s*\([^)]*\)\s*)?(\w*)")


class Violation:
    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


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
# textual backend: function extraction
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
# textual backend: unordered iteration / pointer-keyed containers
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
# textual backend: entry contracts
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
# textual backend: caller-less public functions
# ---------------------------------------------------------------------------

# One function declared or defined at namespace or class scope. `start`..
# `end` spans the whole statement, through the closing brace of a body when
# there is one: the name's own declaration and definition.
FunctionDecl = collections.namedtuple("FunctionDecl",
                                      "name pos start end public")


def blank_preprocessor(text: str) -> str:
    """Blank `#...` lines (and their `\\` continuations), keeping offsets."""
    out = []
    continued = False
    for line in text.splitlines(keepends=True):
        if continued or line.lstrip().startswith("#"):
            continued = line.rstrip("\n").endswith("\\")
            out.append(re.sub(r"[^\n]", " ", line))
        else:
            out.append(line)
    return "".join(out)


def parse_function_head(text: str, cls: str):
    """(name, offset of name, audited) when `text` is the head of a function
    declaration or definition, else None. Constructors, destructors,
    operators, overrides, deleted functions and macros are functions the
    caller-less rule does not audit."""
    i = 0
    while True:  # leading template headers
        m = re.compile(r"\s*template\s*<").match(text, i)
        if not m:
            break
        i = match_angle(text, m.end() - 1)
        if i < 0:
            return None
    if re.compile(r"\s*(?:using|typedef|static_assert)\b").match(text, i):
        return None
    depth = 0
    open_idx = -1
    for k in range(i, len(text)):
        c = text[k]
        if c == "<":
            depth += 1
        elif c == ">" and depth:
            depth -= 1
        elif depth == 0 and c in "={":
            return None  # a variable and its initializer
        elif depth == 0 and c == "(":
            open_idx = k
            break
    head = re.search(r"(?:(\w+)\s*::\s*)?(~?)\s*(\w+)\s*\Z",
                     text[i:open_idx]) if open_idx >= 0 else None
    if not head:
        return None
    name = head.group(3)
    close = match_paren(text, open_idx)
    audited = not (
        head.group(2) or name in (cls, head.group(1)) or name.isupper() or
        not text[i:i + head.start()].strip() or
        re.search(r"\boperator\b", text[i:open_idx]) or
        name in ("alignas", "decltype", "sizeof", "noexcept") or
        re.search(r"\boverride\b|=\s*delete\b",
                  text[close + 1:] if close >= 0 else ""))
    return name, i + head.start(3), audited


def body_open(text: str, decl_close: int) -> int:
    """Index of the `{` that opens the body of the function whose parameter
    list closes at `decl_close`, skipping a constructor's member-initializer
    list (a `{` glued to a member name is a brace-init, not the body)."""
    i = decl_close + 1
    init_list = False
    while i < len(text):
        c = text[i]
        prev = prev_nonspace(text, i - 1)
        if c == "(":
            i = match_paren(text, i)
        elif c == ":" and ":" not in (prev, text[i + 1:i + 2]):
            init_list = True
        elif c == "{":
            if init_list and (prev.isalnum() or prev in "_>"):
                i = match_brace(text, i)
            else:
                return i
        elif c == ";":
            return -1
        if i < 0:
            return -1
        i += 1
    return -1


def function_decls(stripped: str) -> list:
    """Every function declared or defined at namespace or class scope, with
    whether it is public (namespace scope, or a public member of a public
    class). Function bodies and initializers are opaque."""
    text = blank_preprocessor(stripped)
    out = []
    # scope: [kind, class name, enclosing publicity, current access]
    stack = [["namespace", "", True, True]]
    stmt = 0
    i = 0
    while i < len(text):
        c = text[i]
        if c == "(":  # a parameter list: its braces open no scope
            i = match_paren(text, i)
            if i < 0:
                break
        if c not in ";{}":
            i += 1
            continue
        scope = stack[-1]
        prefix = text[stmt:i]
        label = re.match(r"(?:\s*(public|private|protected)\s*:(?!:))+",
                         prefix)
        if label:
            scope[3] = label.group(1) == "public"
            stmt += label.end()
            prefix = text[stmt:i]
        public = scope[2] and scope[3]
        if c == "}":
            if len(stack) > 1:
                stack.pop()
            stmt = i + 1
        elif c == ";":
            head = parse_function_head(prefix, scope[1])
            if head and head[2]:
                out.append(FunctionDecl(head[0], stmt + head[1], stmt, i,
                                        public))
            stmt = i + 1
        elif re.search(r"\bnamespace\b|^\s*extern\s*$", prefix):
            stack.append(["namespace", "", public, True])
            stmt = i + 1
        elif re.search(r"\benum\b", prefix):
            i = match_brace(text, i)
            if i < 0:
                break
            stmt = i + 1
        elif cls := CLASS_HEAD_RE.match(prefix):
            stack.append(["class", cls.group(2), public,
                          cls.group(1) != "class"])
            stmt = i + 1
        else:
            head = parse_function_head(prefix, scope[1])
            if head:
                open_paren = text.index("(", stmt + head[1])
                body = body_open(text, match_paren(text, open_paren))
                close = match_brace(text, body) if body >= 0 else -1
                if close < 0:
                    break
                if head[2]:
                    out.append(FunctionDecl(head[0], stmt + head[1], stmt,
                                            close, public))
                i = close
                stmt = i + 1
            else:  # brace initializer: the statement runs on to its `;`
                i = match_brace(text, i)
                if i < 0:
                    break
        i += 1
    return out


def cxx_sources(root: Path, sub: str) -> list:
    """(rel, stripped text) of every C++ file under root/sub, lint fixtures
    excluded."""
    out = []
    for p in sorted((root / sub).rglob("*")):
        rel = p.relative_to(root)
        if p.suffix in (".cpp", ".hpp", ".h") and \
                "lint_fixtures" not in rel.parts:
            out.append((rel.as_posix(), lint_stosched.strip_code(
                p.read_text(encoding="utf-8"))))
    return out


def test_names(root: Path) -> set:
    names = set()
    for _, text in cxx_sources(root, "tests"):
        for m in TEST_DECL_RE.finditer(text):
            names.add(f"{m.group(1)}.{m.group(2)}")
    return names


def caller_annotations(raw: str) -> list:
    """(line, test id, reason) of each `caller-audit: test-only(...)`."""
    out = []
    for line, text in enumerate(raw.splitlines(), start=1):
        m = CALLER_AUDIT_RE.search(text)
        if m:
            test, _, reason = m.group(1).partition(":")
            out.append((line, test.strip(), reason.strip().rstrip(")")))
    return out


def check_caller_less(root: Path) -> list:
    """A public function declared in src/**/*.hpp must be named in bench/,
    perfbench/ or examples/, or in src/ outside its own declarations and
    definitions; otherwise it carries a test-only annotation that names an
    existing test and gives a reason."""
    src = cxx_sources(root, "src")
    decls = {rel: function_decls(text) for rel, text in src}
    audited = {}  # name -> first public header declaration (rel, line)
    for rel, text in src:
        if rel.endswith(".hpp"):
            for d in decls[rel]:
                if d.public:
                    audited.setdefault(d.name, (rel, line_of(text, d.pos)))
    own = {}  # (rel, name) -> [(start, end)]
    for rel, ds in decls.items():
        for d in ds:
            own.setdefault((rel, d.name), []).append((d.start, d.end))

    called = set()
    for sub in CALLER_DIRS:
        for _, text in cxx_sources(root, sub):
            called.update(re.findall(r"\b\w+\b", text))
    for rel, text in src:
        for m in re.finditer(r"\b\w+\b", text):
            name = m.group(0)
            if name in audited and name not in called and not any(
                    a <= m.start() <= b for a, b in own.get((rel, name), ())):
                called.add(name)

    out = []
    tests = test_names(root)
    annotated = set()  # a broken annotation is reported once, at itself
    for rel, text in src:
        if not rel.endswith(".hpp"):
            continue
        raw = (root / rel).read_text(encoding="utf-8")
        lines = sorted((line_of(text, d.pos), d.name)
                       for d in decls[rel] if d.public)
        for line, test, reason in caller_annotations(raw):
            name = next((n for l, n in lines if line <= l <= line + 3), None)
            problem = None
            if name is None:
                problem = "annotation is not attached to a public function " \
                          "declared within three lines below it"
            elif not re.fullmatch(r"\w+\.\w+", test) or test not in tests:
                problem = f"annotation on '{name}' names no TEST/TEST_P/" \
                          f"TEST_F '{test}' in tests/"
            elif not reason:
                problem = f"annotation on '{name}' gives no reason"
            elif name in called:
                problem = f"'{name}' has a production caller; drop its " \
                          "test-only annotation"
            if problem:
                out.append(Violation("caller-less", rel, line, problem))
            annotated.add(name)
    for name, (rel, line) in sorted(audited.items()):
        if name not in called and name not in annotated:
            out.append(Violation(
                "caller-less", rel, line,
                f"public function '{name}' has no caller in src/, bench/, "
                "perfbench/ or examples/: delete it, or annotate it "
                "// caller-audit: test-only(Suite.Name: reason)"))
    return out


# ---------------------------------------------------------------------------
# clang backend (CI): the two AST-shaped rules over a compile database
# ---------------------------------------------------------------------------

def find_clang():
    for c in ("clang++-18", "clang++", "clang-18", "clang"):
        path = shutil.which(c)
        if path:
            return path
    return None


def ast_nodes(node, parents):
    """Depth-first (node, parents) walk of a clang JSON AST."""
    yield node, parents
    for child in node.get("inner", ()) or ():
        if isinstance(child, dict):
            yield from ast_nodes(child, parents + [node])


def clang_ast(clang: str, entry: dict) -> dict:
    """Run one compile-db entry through -ast-dump=json."""
    args = [clang, "-x", "c++", "-fsyntax-only", "-Xclang",
            "-ast-dump=json"]
    it = iter(entry["command"].split() if "command" in entry
              else entry["arguments"])
    next(it, None)  # original compiler
    for tok in it:
        if tok.startswith(("-I", "-D", "-std=", "-isystem")):
            args.append(tok)
    args.append(entry["file"])
    proc = subprocess.run(args, capture_output=True, text=True,
                          cwd=entry.get("directory", "."))
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.strip().splitlines()[-1]
                           if proc.stderr.strip() else "clang failed")
    return json.loads(proc.stdout)


def is_rng_ref_type(qual: str) -> bool:
    return bool(re.search(r"\bRng\s*&$", qual or ""))


def callee_name(call: dict) -> str:
    """Name of the function a CallExpr / CXXMemberCallExpr calls, or ''."""
    node = next((c for c in call.get("inner", ()) if isinstance(c, dict)), {})
    while node.get("kind") in ("ImplicitCastExpr", "ParenExpr"):
        node = next((c for c in node.get("inner", ())
                     if isinstance(c, dict)), {})
    if node.get("kind") == "MemberExpr":
        return node.get("name", "")
    if node.get("kind") == "DeclRefExpr":
        return (node.get("referencedDecl") or {}).get("name", "")
    return ""


def clang_check_tu(tree: dict, rel: str, raw: str) -> list:
    """rng-laundering + unordered-iteration on one TU's JSON AST."""
    out = []
    sinks = sink_lines(raw)

    # Collect Rng& parameters of function definitions in this file.
    rng_params = {}  # decl id -> (name, fn line)
    for node, parents in ast_nodes(tree, []):
        if node.get("kind") != "ParmVarDecl":
            continue
        qual = (node.get("type") or {}).get("qualType", "")
        if not is_rng_ref_type(qual) or not node.get("name"):
            continue
        fn = next((p for p in reversed(parents)
                   if p.get("kind") in ("FunctionDecl", "CXXMethodDecl",
                                        "CXXConstructorDecl",
                                        "LambdaExpr")), None)
        if fn is None or not any(c.get("kind") == "CompoundStmt"
                                 for c in fn.get("inner", ())
                                 if isinstance(c, dict)):
            continue  # declaration only
        line = ((fn.get("loc") or {}).get("line")
                or (node.get("loc") or {}).get("line") or 0)
        rng_params[node["id"]] = (node["name"], line)

    for node, parents in ast_nodes(tree, []):
        kind = node.get("kind")
        if kind == "DeclRefExpr":
            ref = (node.get("referencedDecl") or {}).get("id")
            if ref not in rng_params:
                continue
            name, fn_line = rng_params[ref]
            if any(s in sinks for s in range(fn_line - 3, fn_line + 1)):
                continue
            line = ((node.get("loc") or {}).get("line") or fn_line)
            # Nearest structural ancestor, skipping implicit casts/parens.
            chain = [p for p in reversed(parents)
                     if p.get("kind") not in ("ImplicitCastExpr",
                                              "ParenExpr")]
            parent = chain[0] if chain else {}
            pk = parent.get("kind", "")
            if pk == "MemberExpr":
                member = parent.get("name", "?")
                if member != "stream":
                    out.append(Violation(
                        "rng-laundering", rel, line,
                        f"'{name}' draws directly via .{member}() "
                        "(clang backend)"))
            elif pk == "CXXOperatorCallExpr":
                # p(): allowed only when the result constructs an Rng.
                gp = chain[1] if len(chain) > 1 else {}
                ctor_type = ((gp.get("type") or {}).get("qualType", ""))
                if not (gp.get("kind") == "CXXConstructExpr"
                        and re.search(r"\bRng\b", ctor_type)):
                    out.append(Violation(
                        "rng-laundering", rel, line,
                        f"raw '{name}()' outside an Rng bootstrap "
                        "(clang backend)"))
            elif pk in ("CallExpr", "CXXMemberCallExpr") and \
                    callee_name(parent) == "sample":
                out.append(Violation(
                    "rng-laundering", rel, line,
                    f"'{name}' handed to sample() (clang backend)"))
            elif pk in ("CallExpr", "CXXConstructExpr",
                        "CXXMemberCallExpr"):
                pass  # whole-argument forwarding
            elif pk in ("VarDecl", "BinaryOperator", "InitListExpr"):
                out.append(Violation(
                    "rng-laundering", rel, line,
                    f"'{name}' aliased or stored (clang backend)"))
        elif kind == "CXXForRangeStmt":
            for child, _ in ast_nodes(node, []):
                qual = (child.get("type") or {}).get("qualType", "")
                if "unordered_map" in qual or "unordered_set" in qual:
                    line = ((node.get("range") or {}).get("begin") or
                            {}).get("line") or 0
                    out.append(Violation(
                        "unordered-iteration", rel, line,
                        "range-for over an unordered container "
                        "(clang backend)"))
                    break
        elif kind in ("VarDecl", "FieldDecl"):
            qual = (node.get("type") or {}).get("qualType", "")
            if re.search(r"\bstd::(?:multi)?(?:map|set)<[^,<]*\*", qual):
                line = ((node.get("loc") or {}).get("line") or 0)
                out.append(Violation(
                    "unordered-iteration", rel, line,
                    "pointer-keyed ordered container (clang backend)"))
    return out


def run_clang_backend(root: Path, db_path: Path, files: list) -> list:
    clang = find_clang()
    if clang is None:
        print("ast_audit --backend clang: no clang++ on PATH",
              file=sys.stderr)
        sys.exit(3)
    with open(db_path, encoding="utf-8") as f:
        db = {str(Path(e["file"]).resolve()): e for e in json.load(f)}
    out = []
    for rel in files:
        if not rel.endswith(".cpp"):
            continue
        entry = db.get(str((root / rel).resolve()))
        if entry is None:
            continue
        raw = (root / rel).read_text(encoding="utf-8")
        try:
            out.extend(clang_check_tu(clang_ast(clang, entry), rel, raw))
        except Exception as e:  # noqa: BLE001 -- report, don't crash CI
            out.append(Violation("ast-backend-error", rel, 0, str(e)))
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


def run_textual(root: Path, files: list) -> list:
    out = []
    for rel in files:
        raw = (root / rel).read_text(encoding="utf-8")
        stripped = lint_stosched.strip_code(raw)
        if in_rng_scope(rel):
            out.extend(check_rng_laundering(rel, raw, stripped))
        out.extend(check_unordered_iteration(rel, stripped))
        if in_entry_scope(rel):
            out.extend(check_entry_contract(rel, stripped))
    out.extend(check_caller_less(root))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--backend", choices=("textual", "clang"),
                        default="textual")
    parser.add_argument("--compile-db", type=Path, default=None,
                        help="compile_commands.json for --backend clang")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    files = source_files(root)

    if args.backend == "clang":
        db = args.compile_db or root / "build" / "compile_commands.json"
        violations = run_clang_backend(root, db, files)
        # entry-contract is macro-shaped and caller-less is whole-tree:
        # both are always checked textually.
        for rel in files:
            if in_entry_scope(rel):
                raw = (root / rel).read_text(encoding="utf-8")
                violations.extend(check_entry_contract(
                    rel, lint_stosched.strip_code(raw)))
        violations.extend(check_caller_less(root))
    else:
        violations = run_textual(root, files)

    for v in violations:
        print(v)
    if violations:
        print(f"\nast_audit: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
