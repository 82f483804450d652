#!/usr/bin/env python3
"""Compare two STOSCHED_BENCH_JSON files (bench perf/result trajectories).

Each bench binary mirrors its table to JSON when STOSCHED_BENCH_JSON=<path>
is set: title, columns, per-row cells (numbers where the cell is a metric),
verdicts and wall-clock seconds. This tool diffs two such files — typically
the same bench at two commits — and reports:

  * verdict changes (PASS -> FAIL is a regression: exit code 1);
  * wall-clock drift beyond a threshold (reported, not fatal by default;
    --fail-on-slowdown makes it fatal);
  * numeric cell drift beyond a relative threshold, keyed by row label and
    column name;
  * mismatched run provenance (compiler, flags, build type, sanitizers,
    OMP thread count, scenario hash — the "provenance" block stamped by
    bench_common::finish): warn-only annotations flagging the comparison as
    apples-to-oranges. Files from before the block existed are tolerated.

Files carry an "arrival" block (process kind + burstiness) describing the
traffic configuration the bench ran under; two files with *different*
arrival blocks are refused outright (exit code 2) — a trajectory diff is
only meaningful against the same traffic. Files written before the block
existed are tolerated (treated as matching).

With --exact the tool instead enforces bit-identical results: any numeric
cell difference (at all), any verdict difference, or any row/column shape
difference is fatal (exit 1). Wall-clock is ignored — it is the one field
allowed to vary. This is the thread-count determinism gate: the same bench
run under OMP_NUM_THREADS=1, =3 and =8 must produce byte-equal metrics,
because the engine's fixed 16-replication merge cells and its serial-order
merge of speculative cells make results a pure function of
(seed, replication count). The deterministic-histogram tail keys
(wait_count/p50/p90/p99/p999, sojourn_*) join the gate when both files
carry them; the provenance block is excluded (thread counts legitimately
differ across the gate's legs). --exact also fails when either file
carries a nonzero wait_invalid or sojourn_invalid: NaN or negative samples
reached a wait/sojourn histogram, which means a simulator recorded a value
that is not a duration, whatever the other file says.

Usage:
  bench_compare.py OLD.json NEW.json [--rel-tol 0.05] [--time-tol 0.25]
                   [--fail-on-slowdown] [--exact]

Stdlib only — no third-party dependencies.
"""

import argparse
import json
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    for key in ("bench", "columns", "rows", "verdicts"):
        if key not in doc:
            raise SystemExit(f"{path}: not a STOSCHED_BENCH_JSON file "
                             f"(missing '{key}')")
    return doc


def row_label(row):
    """First cell is the row's label column in every bench table."""
    return str(row[0]) if row else "<empty>"


def compare_verdicts(old, new):
    regressions, fixes, changes = [], [], []
    old_v = {v["what"]: v["pass"] for v in old["verdicts"]}
    new_v = {v["what"]: v["pass"] for v in new["verdicts"]}
    for what, passed in new_v.items():
        if what not in old_v:
            changes.append(f"new verdict: [{'PASS' if passed else 'FAIL'}] {what}")
        elif old_v[what] and not passed:
            regressions.append(f"PASS -> FAIL: {what}")
        elif not old_v[what] and passed:
            fixes.append(f"FAIL -> PASS: {what}")
    for what in old_v:
        if what not in new_v:
            changes.append(f"verdict removed: {what}")
    return regressions, fixes, changes


def compare_cells(old, new, rel_tol):
    """Yield (row label, column, old, new, rel drift) for drifted metrics."""
    cols = new["columns"]
    old_rows = {row_label(r): r for r in old["rows"]}
    for row in new["rows"]:
        label = row_label(row)
        if label not in old_rows:
            continue
        before = old_rows[label]
        for c, cell in enumerate(row):
            if c >= len(before) or c >= len(cols):
                break
            a, b = before[c], cell
            if not (isinstance(a, (int, float)) and isinstance(b, (int, float))):
                continue
            denom = max(abs(a), abs(b), 1e-12)
            drift = abs(b - a) / denom
            if drift > rel_tol:
                yield label, cols[c], a, b, drift


# Provenance facts whose mismatch makes a perf diff apples-to-oranges.
# Warn-only: the numbers are still shown, but every wall-clock / throughput
# line below them is suspect when one of these differs.
PROVENANCE_KEYS = ("compiler", "flags", "build_type", "sanitizers",
                   "contracts", "omp_max_threads")


def compare_provenance(old, new):
    """Warning lines for mismatched build/run provenance (empty when
    matching or when either file predates the provenance block)."""
    p_old, p_new = old.get("provenance"), new.get("provenance")
    if not isinstance(p_old, dict) or not isinstance(p_new, dict):
        return []
    warnings = []
    for key in PROVENANCE_KEYS:
        if key in p_old and key in p_new and p_old[key] != p_new[key]:
            warnings.append(f"{key}: {p_old[key]!r} != {p_new[key]!r}")
    if "scenario_hash" in p_old and "scenario_hash" in p_new \
            and p_old["scenario_hash"] != p_new["scenario_hash"]:
        warnings.append(f"scenario_hash: {p_old['scenario_hash']!r} != "
                        f"{p_new['scenario_hash']!r} (the bench table/"
                        f"traffic definition itself changed)")
    return warnings


def compare_exact(old, new):
    """Byte-equality over everything except wall_seconds; the list of
    mismatch descriptions is empty iff the two runs are bit-identical."""
    problems = []
    for key in ("bench", "columns", "arrival", "notes"):
        if old.get(key) != new.get(key):
            problems.append(f"'{key}' differs: {old.get(key)!r} "
                            f"!= {new.get(key)!r}")
    # The DES event count is deterministic and belongs in the gate — but
    # only when both files carry it (JSONs from before the counter existed
    # simply lack the key and must still compare clean).
    if "events" in old and "events" in new and old["events"] != new["events"]:
        problems.append(f"'events' differs: {old['events']!r} "
                        f"!= {new['events']!r}")
    # Same deal for LP effort: solve and simplex-iteration counts are pure
    # functions of the instances solved (relaxed-atomic sums commute, so
    # they are thread-schedule independent), hence part of the gate when
    # both files carry them. lp_solves_per_sec is wall-clock-like and stays
    # out of --exact.
    for key in ("lp_solves", "lp_iterations"):
        if key in old and key in new and old[key] != new[key]:
            problems.append(f"'{key}' differs: {old[key]!r} != {new[key]!r}")
    # Latency-tail percentiles come from the obs registry's deterministic
    # log2-bucketed histograms: bucket counts are commutative relaxed-atomic
    # sums and percentiles are bucket edges, so they are bit-identical across
    # thread schedules and belong in the gate (both-present, like the
    # counters above — old JSONs simply lack the keys). The "provenance"
    # block stays OUT of --exact: the determinism gate compares runs under
    # different OMP thread counts, so provenance legitimately differs.
    for prefix in ("wait", "sojourn"):
        for suffix in ("count", "p50", "p90", "p99", "p999"):
            key = f"{prefix}_{suffix}"
            if key in old and key in new and old[key] != new[key]:
                problems.append(f"'{key}' differs: {old[key]!r} "
                                f"!= {new[key]!r}")
    # A NaN or negative wait/sojourn sample is a simulator defect, not a
    # difference between runs: fail on it even when both files agree.
    for doc, side in ((old, "old"), (new, "new")):
        for key in ("wait_invalid", "sojourn_invalid"):
            if doc.get(key, 0) != 0:
                problems.append(f"{side} file has '{key}': {doc[key]!r} "
                                f"invalid samples")
    if old["verdicts"] != new["verdicts"]:
        problems.append(f"verdicts differ: {old['verdicts']!r} "
                        f"!= {new['verdicts']!r}")
    if len(old["rows"]) != len(new["rows"]):
        problems.append(f"row count differs: {len(old['rows'])} "
                        f"!= {len(new['rows'])}")
        return problems
    cols = new.get("columns", [])
    for i, (a_row, b_row) in enumerate(zip(old["rows"], new["rows"])):
        if len(a_row) != len(b_row):
            problems.append(f"row {i} ({row_label(a_row)}): cell count "
                            f"differs")
            continue
        for c, (a, b) in enumerate(zip(a_row, b_row)):
            if a != b:
                col = cols[c] if c < len(cols) else f"col{c}"
                problems.append(f"row {i} ({row_label(a_row)}) "
                                f"[{col}]: {a!r} != {b!r}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--rel-tol", type=float, default=0.05,
                    help="relative metric-drift threshold (default 0.05)")
    ap.add_argument("--time-tol", type=float, default=0.25,
                    help="relative wall-clock drift threshold (default 0.25)")
    ap.add_argument("--fail-on-slowdown", action="store_true",
                    help="exit nonzero when wall clock regresses past "
                         "--time-tol")
    ap.add_argument("--exact", action="store_true",
                    help="determinism gate: fail on ANY difference except "
                         "wall_seconds")
    args = ap.parse_args()

    old, new = load(args.old), load(args.new)

    if args.exact:
        problems = compare_exact(old, new)
        print(f"bench: {new['bench']} (exact comparison)")
        for p in problems:
            print(f"  MISMATCH  {p}")
        if problems:
            print(f"\n{len(problems)} mismatch(es) — results are not "
                  f"bit-identical")
            return 1
        print(f"  bit-identical: {len(new['rows'])} rows, "
              f"{len(new['verdicts'])} verdicts")
        return 0
    if old["bench"] != new["bench"]:
        print(f"warning: comparing different benches:\n  old: {old['bench']}"
              f"\n  new: {new['bench']}")

    arr_old, arr_new = old.get("arrival"), new.get("arrival")
    if arr_old is not None and arr_new is not None and arr_old != arr_new:
        print(f"refusing to diff mismatched traffic configurations:\n"
              f"  old arrival: {arr_old}\n  new arrival: {arr_new}")
        return 2

    failed = False
    print(f"bench: {new['bench']}")

    for line in compare_provenance(old, new):
        print(f"  PROVENANCE MISMATCH (apples-to-oranges)  {line}")

    regressions, fixes, changes = compare_verdicts(old, new)
    for line in regressions:
        print(f"  VERDICT REGRESSION  {line}")
        failed = True
    for line in fixes:
        print(f"  verdict fixed       {line}")
    for line in changes:
        print(f"  verdict changed     {line}")
    if not (regressions or fixes or changes):
        print(f"  verdicts: {len(new['verdicts'])} unchanged "
              f"({sum(v['pass'] for v in new['verdicts'])} PASS)")

    t_old, t_new = old.get("wall_seconds"), new.get("wall_seconds")
    if isinstance(t_old, (int, float)) and isinstance(t_new, (int, float)) \
            and t_old > 0:
        drift = (t_new - t_old) / t_old
        marker = ""
        if drift > args.time_tol:
            marker = "  SLOWDOWN"
            if args.fail_on_slowdown:
                failed = True
        elif drift < -args.time_tol:
            marker = "  speedup"
        print(f"  wall: {t_old:.3f}s -> {t_new:.3f}s ({drift:+.1%}){marker}")

    # Throughput trajectory: warn-only (never fails the gate) — events/sec
    # is machine-noisy, but a sustained drop across commits is the first
    # symptom of a hot-path regression. Old JSONs without the key are fine.
    r_old, r_new = old.get("events_per_sec"), new.get("events_per_sec")
    if isinstance(r_old, (int, float)) and isinstance(r_new, (int, float)) \
            and r_old > 0 and r_new > 0:
        drift = (r_new - r_old) / r_old
        marker = "  THROUGHPUT DROP (warn-only)" if drift < -args.time_tol \
            else ""
        print(f"  events/sec: {r_old:,.0f} -> {r_new:,.0f} "
              f"({drift:+.1%}){marker}")

    # LP solve throughput: same warn-only treatment as events/sec.
    l_old, l_new = old.get("lp_solves_per_sec"), new.get("lp_solves_per_sec")
    if isinstance(l_old, (int, float)) and isinstance(l_new, (int, float)) \
            and l_old > 0 and l_new > 0:
        drift = (l_new - l_old) / l_old
        marker = "  THROUGHPUT DROP (warn-only)" if drift < -args.time_tol \
            else ""
        print(f"  lp solves/sec: {l_old:,.0f} -> {l_new:,.0f} "
              f"({drift:+.1%}){marker}")

    drifted = list(compare_cells(old, new, args.rel_tol))
    for label, col, a, b, drift in drifted:
        print(f"  metric drift        [{label}] {col}: {a} -> {b} "
              f"({drift:+.1%})")
    if not drifted:
        print(f"  metrics: no drift beyond {args.rel_tol:.0%}")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
