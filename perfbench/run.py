#!/usr/bin/env python3
"""Repository benchmark: time-to-result of the library's experiment calls.

    python3 perfbench/run.py --workload queue-seq --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds the library and the benchmark
binary from source into .bench_build/ (or $CARGO_TARGET_DIR), runs the
workload and prints, as the last line of standard output, one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a separate traced
run (its spans are written to .bench_build/trace-<workload>-<seed>.json).

Correctness: an experiment call fails if it throws, if a paper verdict
fails, or if its round-0 result disagrees with reference.json for that seed
(exact fingerprint of replications, DES events and merged statistics;
LP-derived means to 1e-6 relative). `--make-reference A-B` regenerates
reference.json for seeds A..B. See README.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("queue-seq", "queue-fixed", "online-lp")
LP_RTOL = 1e-6
SETUP_SPAWNS = 101
TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure (once) and build; returns the benchmark binary path."""
    if not (ROOT / "src").is_dir():
        raise RuntimeError(f"no library sources at {ROOT / 'src'}")
    out = build_dir() / "perfbench"
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench"


def run_binary(binary, *args):
    """Run the benchmark binary and parse the JSON object on its last stdout line."""
    proc = subprocess.run([str(binary), *args], stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=TIMEOUT_S,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(binary, workload, seed):
    """Mean over setup-only processes of each one's median time to build
    the workload's scenarios and arms (see main.cpp, --mode setup). Each
    process's median lands in one of two modes about 1.6x apart (2.9 and
    4.8 us on queue-seq), decided per process. A median over processes
    jumps between the modes; the mean moves smoothly with their shares."""
    times = []
    for _ in range(SETUP_SPAWNS):
        res = run_binary(binary, "--workload", workload, "--seed", str(seed),
                         "--mode", "setup")
        times.append(res["setup_ns"] * 1e-9)
    return statistics.fmean(times)


def load_reference():
    path = HERE / "reference.json"
    return json.loads(path.read_text()) if path.exists() else {}


def reference_mismatch(ref_call, call):
    """Why `call` disagrees with its reference record ("" = it agrees)."""
    for key in ("experiment", "replications", "events", "digest"):
        if ref_call[key] != call[key]:
            return f"{key} {call[key]} != reference {ref_call[key]}"
    if len(ref_call["lp"]) != len(call["lp"]):
        return "LP value count differs from reference"
    for want, got in zip(ref_call["lp"], call["lp"]):
        if abs(got - want) > LP_RTOL * max(1.0, abs(want)):
            return f"LP-derived value {got!r} != reference {want!r}"
    return ""


def check_calls(workload, seed, calls):
    """Count failed calls: their own errors, and disagreements of the
    round-0 calls (the first ones) with the stored reference."""
    ref = load_reference().get(workload, {}).get(str(seed))
    if ref is None:
        log(f"no stored reference for {workload} seed {seed}; "
            "verdicts and determinism checks only")
        ref = []
    failed = max(0, len(ref) - len(calls))
    for i, call in enumerate(calls):
        why = call["error"] or (
            reference_mismatch(ref[i], call) if i < len(ref) else "")
        if why:
            log(f"call {i} ({call['experiment']}, seed {call['seed']}) "
                f"failed: {why}")
            failed += 1
    return failed


UNITS = {"setup_s": "s", "wall_s": "s", "reps_per_s": "1/s",
         "events_per_s": "1/s", "peak_rss_mb": "MB"}


def measure(binary, args):
    setup = setup_seconds(binary, args.workload, args.seed)
    res = run_binary(binary, "--workload", args.workload, "--seed",
                     str(args.seed), "--seconds", str(args.seconds),
                     "--mode", "measure")
    log(f"{res['rounds']} rounds on {res['threads']} threads")
    failed = check_calls(args.workload, args.seed, res["calls"])
    values = {"setup_s": setup, **res["metrics"]}
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    return len(res["calls"]), failed, metrics


def traced(binary, args):
    trace_file = build_dir() / f"trace-{args.workload}-{args.seed}.json"
    res = run_binary(binary, "--workload", args.workload, "--seed",
                     str(args.seed), "--mode", "trace",
                     "--trace-out", str(trace_file))
    failed = res["failed"] + check_calls(args.workload, args.seed,
                                         res["calls"])
    return res["attempted"], failed, res["metrics"]


def make_reference(binary, seed_range):
    lo, hi = (int(x) for x in seed_range.split("-"))
    ref = load_reference()
    for workload in WORKLOADS:
        table = ref.setdefault(workload, {})
        for seed in range(lo, hi + 1):
            res = run_binary(binary, "--workload", workload, "--seed",
                             str(seed), "--seconds", "0", "--mode", "measure")
            calls = [c for c in res["calls"] if c["seed"] == seed]
            bad = [c for c in calls if c["error"]]
            if bad:
                raise RuntimeError(f"{workload} seed {seed}: {bad[0]['error']}")
            table[str(seed)] = [{k: c[k] for k in
                                 ("experiment", "replications", "events",
                                  "digest", "lp")} for c in calls]
            log(f"reference {workload} seed {seed}")
    (HERE / "reference.json").write_text(
        json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-reference", metavar="A-B")
    args = ap.parse_args()
    try:
        binary = build()
        if args.make_reference:
            make_reference(binary, args.make_reference)
            return 0
        if not args.workload:
            ap.error("--workload is required")
        attempted, failed, metrics = (traced if args.trace else measure)(
            binary, args)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as exc:
        log(f"error: {exc}")
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
