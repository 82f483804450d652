#!/usr/bin/env python3
"""arch_check.py -- architecture-DAG enforcement for libstosched.

The module layering of src/ is data, not folklore: tools/arch_layers.json
declares the layers (bottom-up) and every allowed cross-module #include
edge. This tool extracts the REAL include graph from the tree -- quoted
includes only, which are project-internal by repo convention -- and fails
when manifest and reality disagree in either direction:

  arch-unknown-module    a src/ module missing from the manifest (or a
                         declared module with no directory behind it)
  arch-undeclared-edge   a cross-module include the manifest does not allow,
                         even if it points to a lower layer
  arch-stale-edge        a declared edge no longer present in the tree (the
                         manifest must match the graph exactly, so deleted
                         dependencies cannot silently stay "allowed")
  arch-back-edge         an include that does not go to a strictly lower
                         layer (same-layer edges are back-edges too: they
                         are how cycles start)
  arch-include-cycle     a cycle in the file-level include graph (headers
                         including each other compile under #pragma once
                         but make the DAG a lie)
  arch-dot-stale         docs/arch.dot no longer matches the graph
                         (regenerate with --write-dot)

Umbrella headers (declared in the manifest) are exempt from edge
extraction: src/core/stosched.hpp exists to include everything.

Edge exactness also bounds reachability: when every real edge is declared,
the real graph's transitive closure lies inside the declared graph's.

Modes:
  arch_check.py [--root DIR]              run the graph checks + dot freshness
  arch_check.py --write-dot               regenerate docs/arch.dot
  arch_check.py --headers                 header self-containment: compile
                                          each public header alone with
                                          -fsyntax-only (needs a C++ compiler)

Stdlib-only; runs as the tier-1 ctests `arch_check` / `arch_check_selftest`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)

SOURCE_SUFFIXES = (".hpp", ".cpp", ".h", ".cc")


class Violation:
    def __init__(self, rule: str, path: str, message: str):
        self.rule = rule
        self.path = path
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}: [{self.rule}] {self.message}"


def load_manifest(path: Path) -> dict:
    with open(path, encoding="utf-8") as f:
        manifest = json.load(f)
    layers = manifest["layers"]
    layer_of = {}
    for i, layer in enumerate(layers):
        for mod in layer:
            if mod in layer_of:
                raise ValueError(f"module {mod!r} listed in two layers")
            layer_of[mod] = i
    manifest["_layer_of"] = layer_of
    manifest["_edges"] = {m: set(deps) for m, deps in manifest["edges"].items()}
    manifest["_umbrella"] = set(manifest.get("umbrella", []))
    return manifest


def scan_includes(src: Path, umbrella: set) -> dict:
    """Map src-relative file path -> list of quoted include targets.

    Umbrella files are scanned (their own includes must still resolve for
    the self-containment mode) but tagged so edge extraction can skip them.
    """
    graph = {}
    for dirpath, _, files in os.walk(src):
        for name in sorted(files):
            if not name.endswith(SOURCE_SUFFIXES):
                continue
            path = Path(dirpath) / name
            rel = path.relative_to(src).as_posix()
            text = path.read_text(encoding="utf-8")
            graph[rel] = INCLUDE_RE.findall(text)
    return graph


def module_of(rel: str) -> str:
    return rel.split("/", 1)[0]


def module_edges(graph: dict, umbrella: set) -> dict:
    """Real module-level edge set: {module: {dep_module: [witness files]}}."""
    edges = {}
    for rel, includes in graph.items():
        if rel in umbrella:
            continue
        mod = module_of(rel)
        for inc in includes:
            dep = module_of(inc)
            if dep == mod:
                continue
            edges.setdefault(mod, {}).setdefault(dep, []).append(rel)
    return edges


def find_file_cycle(graph: dict) -> list | None:
    """One cycle in the file-level include graph, as a path, or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {rel: WHITE for rel in graph}
    stack = []

    def dfs(rel):
        color[rel] = GRAY
        stack.append(rel)
        for inc in graph.get(rel, ()):
            if inc not in graph:
                continue  # include of a file outside src/ (none today)
            if color[inc] == GRAY:
                return stack[stack.index(inc):] + [inc]
            if color[inc] == WHITE:
                cycle = dfs(inc)
                if cycle:
                    return cycle
        stack.pop()
        color[rel] = BLACK
        return None

    for rel in sorted(graph):
        if color[rel] == WHITE:
            cycle = dfs(rel)
            if cycle:
                return cycle
    return None


def render_dot(manifest: dict, real_edges: dict) -> str:
    """Deterministic DOT of the module DAG, layers as ranks (bottom-up)."""
    lines = [
        "// Generated by tools/arch_check.py --write-dot. Do not edit:",
        "// the ctest `arch_check` fails when this file goes stale.",
        "digraph stosched_arch {",
        "  rankdir=BT;",
        "  node [shape=box, fontname=\"Helvetica\"];",
    ]
    for i, layer in enumerate(manifest["layers"]):
        members = " ".join(f'"{m}";' for m in sorted(layer))
        lines.append(f"  {{ rank=same; {members} }}  // layer {i}")
    for mod in sorted(real_edges):
        for dep in sorted(real_edges[mod]):
            lines.append(f'  "{mod}" -> "{dep}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def check_graph(root: Path, manifest: dict, dot_path: Path | None) -> list:
    src = root / "src"
    umbrella = manifest["_umbrella"]
    layer_of = manifest["_layer_of"]
    declared = manifest["_edges"]
    graph = scan_includes(src, umbrella)
    real = module_edges(graph, umbrella)
    violations = []

    real_modules = {module_of(rel) for rel in graph}
    for mod in sorted(real_modules - layer_of.keys()):
        violations.append(Violation(
            "arch-unknown-module", f"src/{mod}",
            "module has no layer in tools/arch_layers.json"))
    for mod in sorted(layer_of.keys() - real_modules):
        violations.append(Violation(
            "arch-unknown-module", "tools/arch_layers.json",
            f"declared module '{mod}' has no files under src/"))

    for mod in sorted(real):
        for dep in sorted(real[mod]):
            witness = f"src/{real[mod][dep][0]}"
            if dep not in declared.get(mod, set()):
                violations.append(Violation(
                    "arch-undeclared-edge", witness,
                    f"edge {mod} -> {dep} is not declared in the manifest"))
            if mod in layer_of and dep in layer_of and \
                    layer_of[mod] <= layer_of[dep]:
                violations.append(Violation(
                    "arch-back-edge", witness,
                    f"{mod} (layer {layer_of[mod]}) includes {dep} "
                    f"(layer {layer_of[dep]}): edges must point strictly "
                    "down the layering"))

    for mod in sorted(declared):
        for dep in sorted(declared[mod]):
            if dep not in real.get(mod, {}):
                violations.append(Violation(
                    "arch-stale-edge", "tools/arch_layers.json",
                    f"declared edge {mod} -> {dep} no longer exists in the "
                    "tree; remove it so the manifest matches reality"))

    cycle = find_file_cycle(graph)
    if cycle:
        violations.append(Violation(
            "arch-include-cycle", f"src/{cycle[0]}",
            "include cycle: " + " -> ".join(cycle)))

    if dot_path is not None:
        want = render_dot(manifest, real)
        have = dot_path.read_text(encoding="utf-8") if dot_path.exists() \
            else None
        if have != want:
            violations.append(Violation(
                "arch-dot-stale", str(dot_path.relative_to(root)),
                "module-graph DOT is stale; regenerate with "
                "tools/arch_check.py --write-dot"))
    return violations


def find_compiler() -> list | None:
    cxx = os.environ.get("CXX")
    candidates = ([cxx] if cxx else []) + ["g++", "clang++"]
    for c in candidates:
        path = shutil.which(c)
        if path:
            return [path]
    return None


def check_headers(root: Path, manifest: dict, jobs: int) -> list:
    """Header self-containment: each public header must compile alone.

    A header that leans on its includer's earlier includes works until
    someone includes it first; one-include translation units with
    -fsyntax-only make the property a gate instead of an accident.
    """
    compiler = find_compiler()
    if compiler is None:
        print("arch_check --headers: no C++ compiler found; skipping",
              file=sys.stderr)
        return []
    src = root / "src"
    headers = sorted(p.relative_to(src).as_posix()
                     for p in src.rglob("*.hpp"))
    violations = []

    def compile_one(header: str):
        with tempfile.TemporaryDirectory() as tmp:
            tu = Path(tmp) / "tu.cpp"
            tu.write_text(f'#include "{header}"\n', encoding="utf-8")
            cmd = compiler + ["-std=c++20", "-fsyntax-only",
                              "-I", str(src), str(tu)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                first = proc.stderr.strip().splitlines()
                detail = first[0] if first else "compiler error"
                return Violation(
                    "arch-header-not-self-contained", f"src/{header}",
                    f"does not compile as a one-include TU: {detail}")
        return None

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for result in pool.map(compile_one, headers):
            if result is not None:
                violations.append(result)
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--manifest", type=Path, default=None,
                        help="layer manifest (default: ROOT/tools/"
                             "arch_layers.json)")
    parser.add_argument("--dot", type=Path, default=None,
                        help="DOT artifact path (default: ROOT/docs/arch.dot)")
    parser.add_argument("--no-dot-check", action="store_true",
                        help="skip the DOT freshness check")
    parser.add_argument("--write-dot", action="store_true",
                        help="regenerate the DOT artifact and exit")
    parser.add_argument("--headers", action="store_true",
                        help="run the header self-containment mode instead "
                             "of the graph checks")
    parser.add_argument("-j", "--jobs", type=int,
                        default=os.cpu_count() or 4)
    args = parser.parse_args(argv)

    root = args.root.resolve()
    manifest_path = args.manifest or root / "tools" / "arch_layers.json"
    manifest = load_manifest(manifest_path)
    dot_path = args.dot or root / "docs" / "arch.dot"

    if args.write_dot:
        graph = scan_includes(root / "src", manifest["_umbrella"])
        dot_path.parent.mkdir(parents=True, exist_ok=True)
        dot_path.write_text(
            render_dot(manifest, module_edges(graph, manifest["_umbrella"])),
            encoding="utf-8")
        print(f"wrote {dot_path}")
        return 0

    if args.headers:
        violations = check_headers(root, manifest, args.jobs)
    else:
        violations = check_graph(
            root, manifest, None if args.no_dot_check else dot_path)

    for v in violations:
        print(v)
    if violations:
        print(f"\narch_check: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
