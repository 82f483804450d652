#include "obs/provenance.hpp"

#include "util/contract.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

// CMake sets these as per-source compile definitions on this file only
// (see set_source_files_properties in CMakeLists.txt); the fallbacks keep
// the file buildable outside the repo's own build system.
#ifndef STOSCHED_GIT_SHA
#define STOSCHED_GIT_SHA "unknown"
#endif
#ifndef STOSCHED_BUILD_TYPE
#define STOSCHED_BUILD_TYPE "unknown"
#endif
#ifndef STOSCHED_BUILD_FLAGS
#define STOSCHED_BUILD_FLAGS "unknown"
#endif
#ifndef STOSCHED_SANITIZE_STR
#define STOSCHED_SANITIZE_STR "none"
#endif

namespace stosched::obs {
namespace {

const char* compiler_string() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

BuildInfo build_info() {
  BuildInfo b;
  b.git_sha = STOSCHED_GIT_SHA;
  b.compiler = compiler_string();
  b.flags = STOSCHED_BUILD_FLAGS;
  b.build_type = STOSCHED_BUILD_TYPE;
  b.sanitizers = STOSCHED_SANITIZE_STR;
  if (b.sanitizers.empty() || b.sanitizers == "OFF") b.sanitizers = "none";
  b.contracts = STOSCHED_CONTRACTS_ACTIVE != 0;
#ifdef _OPENMP
  b.omp_max_threads = omp_get_max_threads();
#else
  b.omp_max_threads = 1;
#endif
  return b;
}

}  // namespace stosched::obs
