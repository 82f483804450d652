// provenance.hpp — build + runtime facts for apples-to-apples comparisons.
//
// A bench number without its build context is a trap: comparing a
// sanitizer build against Release, or an 8-thread run against 1-thread,
// "detects" regressions that are configuration diffs. This header exposes
// the facts that make two BENCH_*.json files comparable —
// bench_common::finish stamps them into a "provenance" block and
// tools/bench_compare.py warns when they disagree (the --exact determinism
// gate deliberately ignores the block: its whole point is comparing
// different OMP thread counts).
//
// Compile-time facts (git sha, compiler, flags, build type, sanitizers,
// whether contracts are armed) are baked into provenance.cpp via
// CMake-provided defines — the git sha is captured at *configure* time, so
// it can lag the working tree until the next CMake run; treat it as "the
// commit this build directory was configured from". Runtime facts (OpenMP
// width) are read fresh on every call.
#pragma once

#include <string>

namespace stosched::obs {

/// Everything worth knowing about how this binary was built and how wide
/// it will run. Strings are never empty — unknown facts say "unknown".
struct BuildInfo {
  std::string git_sha;     ///< configure-time HEAD (short), or "unknown"
  std::string compiler;    ///< e.g. "gcc 12.2.0" / "clang 18.1.8 ..."
  std::string flags;       ///< CMAKE_CXX_FLAGS + active per-config flags
  std::string build_type;  ///< CMAKE_BUILD_TYPE, or "unknown"
  std::string sanitizers;  ///< STOSCHED_SANITIZE value; "none" when off
  bool contracts = false;  ///< STOSCHED_CONTRACTS armed in this build
  int omp_max_threads = 1; ///< omp_get_max_threads() now (1 without OpenMP)
};

BuildInfo build_info();

}  // namespace stosched::obs
