// trace.hpp — compiled-out Chrome-trace spans for the replication pipeline.
//
// Answers the question the scalar metrics cannot: not "how many events"
// but "where did the wall time go, on which OpenMP lane, in which
// replication". Instrumentation macros in the contract.hpp style —
// compiled to nothing unless the CMake option STOSCHED_TRACE=ON defines
// STOSCHED_TRACE, so the Release hot path carries zero cost:
//
//   STOSCHED_TRACE_SPAN("engine", "replication");   // scoped duration
//   STOSCHED_TRACE_INSTANT("engine", "stop-rule");  // point marker
//   STOSCHED_TRACE_COUNTER("lp", "iterations", n);  // sampled series
//
// Category and name must be string literals (they are stored as pointers,
// never copied). The collector buffers fixed-size PODs in thread-local
// vectors — no locks, no allocation beyond vector growth on the recording
// path — and merges them at write time. Each recording thread gets its own
// `tid`, so OpenMP worker lanes render as separate tracks.
//
// Output is the Chrome trace_event JSON array format: load it at
// ui.perfetto.dev or chrome://tracing, or schema-check it with the
// stdlib-only tools/trace_check.py (the CI trace-smoke job does both
// halves of that automatically). In an instrumented build, set
//
//   STOSCHED_TRACE_FILE=run.trace.json ./bench_t9_cmu
//
// and the trace is written at process exit. The collector itself is always
// compiled (tests drive it directly in every build); only the macros are
// gated, which is what keeps the zero-side-effect guarantee testable via
// the ghost-count pattern (see tests/test_obs.cpp).
//
// The repo's instrumentation points: experiment/engine.hpp marks every
// sweep cell, replication, and CRN arm; lp/ marks every simplex solve;
// each of the four event-driven simulators and the online simulator marks
// its whole-run span. Clock reads go through now_ns() below, the library's
// one wall clock; the hot-loop-clock lint rule keeps every clock, this one
// included, out of the event and pivot loops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace stosched::obs::trace {

/// Monotonic wall clock in nanoseconds (steady_clock; origin arbitrary).
std::uint64_t now_ns() noexcept;

/// Append one complete ("ph":"X") event: a named region of `dur_ns`
/// nanoseconds that began at `start_ns` (now_ns clock).
void record_complete(const char* cat, const char* name, std::uint64_t start_ns,
                     std::uint64_t dur_ns) noexcept;

/// Append one instant ("ph":"i") event at the current time.
void record_instant(const char* cat, const char* name) noexcept;

/// Append one counter ("ph":"C") sample at the current time.
void record_counter(const char* cat, const char* name, double value) noexcept;

/// Events buffered so far across all threads (live + retired buffers).
std::size_t event_count();

/// Drop every buffered event (tests only; concurrent recording during a
/// clear is the caller's problem).
void clear();

/// Merge all thread buffers and write a complete Chrome trace JSON array,
/// events sorted by timestamp. Safe to call with zero events (emits "[]").
void write(std::ostream& os);

/// write() to `path`; returns false (and keeps the events buffered) when
/// the file cannot be opened.
bool write_file(const std::string& path);

/// RAII region marker used by STOSCHED_TRACE_SPAN: stamps the clock on
/// construction and records a complete event on destruction.
class Span {
 public:
  Span(const char* cat, const char* name) noexcept
      : cat_(cat), name_(name), start_ns_(now_ns()) {}
  ~Span() {
    record_complete(cat_, name_, start_ns_, now_ns() - start_ns_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* cat_;
  const char* name_;
  std::uint64_t start_ns_;
};

}  // namespace stosched::obs::trace

// ---- instrumentation macros ------------------------------------------------
// STOSCHED_TRACE_ACTIVE is 0/1 (not defined/undefined) so tests can assert
// the exact evaluation count of macro arguments in both modes — the ghost
// evaluation-count pattern from util/contract.hpp. When inactive, macro
// arguments are never evaluated and no clock is read.
#ifdef STOSCHED_TRACE
#define STOSCHED_TRACE_ACTIVE 1
#define STOSCHED_TRACE_CONCAT2_(a, b) a##b
#define STOSCHED_TRACE_CONCAT_(a, b) STOSCHED_TRACE_CONCAT2_(a, b)
#define STOSCHED_TRACE_SPAN(cat, name)        \
  const ::stosched::obs::trace::Span STOSCHED_TRACE_CONCAT_( \
      stosched_trace_span_, __LINE__)(cat, name)
#define STOSCHED_TRACE_INSTANT(cat, name) \
  ::stosched::obs::trace::record_instant(cat, name)
#define STOSCHED_TRACE_COUNTER(cat, name, value) \
  ::stosched::obs::trace::record_counter(cat, name, \
                                         static_cast<double>(value))
#else
#define STOSCHED_TRACE_ACTIVE 0
#define STOSCHED_TRACE_SPAN(cat, name) static_cast<void>(0)
#define STOSCHED_TRACE_INSTANT(cat, name) static_cast<void>(0)
#define STOSCHED_TRACE_COUNTER(cat, name, value) static_cast<void>(0)
#endif
