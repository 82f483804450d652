// bench_common.hpp — shared scaffolding for the experiment binaries.
//
// Every experiment binary regenerates one table/figure of EXPERIMENTS.md:
// it prints a Table (rows = instances or sweep points), appends PASS/FAIL
// verdicts for the paper's qualitative predictions, and exits nonzero if a
// verdict failed so the bench loop doubles as a regression gate.
//
// Two environment knobs:
//   * STOSCHED_BENCH_JSON=<path>   — also write the table (title, columns,
//     per-row metrics, verdicts, wall-clock seconds) as JSON, so perf/result
//     trajectories can accumulate across commits;
//   * STOSCHED_BENCH_SMOKE=1      — benches shrink replication caps and
//     horizons (via smoke()/smoke_scale()) so CI can exercise the full
//     experiment-engine path in seconds.
//
// All telemetry now flows from the obs registry (src/obs/): the "events" /
// "lp_solves" / "lp_iterations" counters keep their historical JSON keys
// bit-for-bit, the cross-simulator wait/sojourn histograms add
// deterministic tail-percentile columns (p50/p90/p99/p999), and finish()
// stamps a "provenance" block (git sha, compiler, flags, build type,
// sanitizers, OpenMP width, seed, scenario hash) so tools/bench_compare.py
// can flag apples-to-oranges comparisons instead of silently diffing them.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "util/table.hpp"

namespace stosched::bench {

/// Traffic-configuration metadata mirrored into the bench JSON: which
/// arrival-process kind drove the experiment and its burstiness (asymptotic
/// index of dispersion; 1 = Poisson, interarrival SCV for renewal input).
/// tools/bench_compare.py refuses to diff two files whose arrival blocks
/// disagree — a perf/metric trajectory is only meaningful against the same
/// traffic. The default describes every pre-arrival-process bench.
struct ArrivalMeta {
  std::string kind = "poisson";
  double burstiness = 1.0;
};

/// True when STOSCHED_BENCH_SMOKE is set (and not "0"): benches should run
/// with tight replication caps so the whole binary finishes in seconds.
inline bool smoke() {
  const char* v = std::getenv("STOSCHED_BENCH_SMOKE");
  return v != nullptr && std::strcmp(v, "0") != 0;
}

/// `full` in a normal run, `reduced` in a smoke run.
template <class T>
T smoke_scale(T full, T reduced) {
  return smoke() ? reduced : full;
}

namespace detail {

/// Wall-clock anchor: initialized at static-init time of the bench binary,
/// read by finish() — close enough to process wall time for trend tracking.
inline const std::chrono::steady_clock::time_point bench_start =
    std::chrono::steady_clock::now();

/// Master seed recorded by note_seed(); stamped into the provenance block
/// when the bench declared one.
inline std::uint64_t g_seed = 0;
inline bool g_seed_set = false;

/// Minimal JSON string escaping (quotes, backslashes, control chars).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// True iff `s` matches the strict JSON number grammar ("-?int[.frac][exp]",
/// no leading zeros, no leading '+', no inf/nan) — stricter than strtod,
/// which would happily accept "012" or "inf".
inline bool is_json_number(const std::string& s) {
  std::size_t i = 0;
  const std::size_t n = s.size();
  if (i < n && s[i] == '-') ++i;
  if (i >= n || s[i] < '0' || s[i] > '9') return false;
  if (s[i] == '0') {
    ++i;
  } else {
    while (i < n && s[i] >= '0' && s[i] <= '9') ++i;
  }
  if (i < n && s[i] == '.') {
    ++i;
    if (i >= n || s[i] < '0' || s[i] > '9') return false;
    while (i < n && s[i] >= '0' && s[i] <= '9') ++i;
  }
  if (i < n && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < n && (s[i] == '+' || s[i] == '-')) ++i;
    if (i >= n || s[i] < '0' || s[i] > '9') return false;
    while (i < n && s[i] >= '0' && s[i] <= '9') ++i;
  }
  return i == n;
}

/// Emit a cell as a JSON number only when it is one AND carries a decimal
/// point or exponent. Metric cells come from fmt() and always contain '.',
/// while label cells ("102", instance ids, N values) never do — requiring
/// the marker keeps every column type-consistent across rows ("012" and
/// "102" both stay strings instead of splitting into string/number).
inline std::string json_cell(const std::string& cell) {
  if (is_json_number(cell) &&
      cell.find_first_of(".eE") != std::string::npos)
    return cell;
  return '"' + json_escape(cell) + '"';
}

/// FNV-1a over the bytes of `s`, chained through `h` — the scenario hash is
/// the fold over title, column headers and arrival block, so any change to
/// what the bench measures changes the hash.
inline std::uint64_t fnv1a(const std::string& s,
                           std::uint64_t h = 1469598103934665603ULL) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

inline std::string scenario_hash(const Table& table,
                                 const ArrivalMeta& arrival) {
  std::uint64_t h = fnv1a(table.title());
  for (const std::string& col : table.header()) h = fnv1a(col, h);
  h = fnv1a(arrival.kind, h);
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", arrival.burstiness);
  h = fnv1a(buf, h);
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Tail-percentile keys for one registry histogram, emitted only when it
/// recorded anything (so the JSON shape of benches without that histogram —
/// and of all pre-obs history — is untouched). Percentiles are bucket
/// boundaries: deterministic, so they join the --exact gate.
inline void write_tails(std::ostream& os, const char* prefix,
                        const obs::HistogramSnapshot& h) {
  if (h.total == 0) return;
  os << "  \"" << prefix << "_count\": " << h.total << ",\n"
     << "  \"" << prefix << "_p50\": " << h.percentile(0.50) << ",\n"
     << "  \"" << prefix << "_p90\": " << h.percentile(0.90) << ",\n"
     << "  \"" << prefix << "_p99\": " << h.percentile(0.99) << ",\n"
     << "  \"" << prefix << "_p999\": " << h.percentile(0.999) << ",\n";
}

inline void write_provenance(std::ostream& os, const Table& table,
                             const ArrivalMeta& arrival) {
  const obs::BuildInfo b = obs::build_info();
  os << "  \"provenance\": {\"git_sha\": \"" << json_escape(b.git_sha)
     << "\", \"compiler\": \"" << json_escape(b.compiler)
     << "\", \"flags\": \"" << json_escape(b.flags)
     << "\", \"build_type\": \"" << json_escape(b.build_type)
     << "\", \"sanitizers\": \"" << json_escape(b.sanitizers)
     << "\", \"contracts\": " << (b.contracts ? "true" : "false")
     << ", \"omp_max_threads\": " << b.omp_max_threads;
  if (g_seed_set) os << ", \"seed\": " << g_seed;
  os << ", \"scenario_hash\": \"" << scenario_hash(table, arrival)
     << "\"},\n";
}

inline void write_json(const Table& table, const std::string& path,
                       double wall_seconds, std::uint64_t events,
                       double events_per_sec, const ArrivalMeta& arrival,
                       std::uint64_t lp_solves, std::uint64_t lp_iterations) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "bench: cannot write JSON to " << path << '\n';
    return;
  }
  os << "{\n  \"bench\": \"" << json_escape(table.title()) << "\",\n"
     << "  \"wall_seconds\": " << wall_seconds << ",\n"
     << "  \"events\": " << events << ",\n"
     << "  \"events_per_sec\": " << events_per_sec << ",\n";
  // LP effort keys appear only when the bench solved LPs, so the JSON shape
  // of every pre-LP bench (and its history) is untouched. Counts are
  // deterministic; the rate is the perf trajectory (warn-only in compare).
  if (lp_solves > 0) {
    const double lp_rate =
        wall_seconds > 0.0 ? static_cast<double>(lp_solves) / wall_seconds
                           : 0.0;
    os << "  \"lp_solves\": " << lp_solves << ",\n"
       << "  \"lp_iterations\": " << lp_iterations << ",\n"
       << "  \"lp_solves_per_sec\": " << lp_rate << ",\n";
  }
  write_tails(os, "wait", obs::histogram_snapshot("wait_time"));
  write_tails(os, "sojourn", obs::histogram_snapshot("sojourn_time"));
  write_provenance(os, table, arrival);
  os << "  \"arrival\": {\"kind\": \"" << json_escape(arrival.kind)
     << "\", \"burstiness\": " << arrival.burstiness << "},\n"
     << "  \"passed\": " << (table.all_checks_passed() ? "true" : "false")
     << ",\n  \"columns\": [";
  for (std::size_t c = 0; c < table.header().size(); ++c)
    os << (c ? ", " : "") << '"' << json_escape(table.header()[c]) << '"';
  os << "],\n  \"rows\": [";
  const auto& rows = table.row_cells();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    os << (r ? ",\n    [" : "\n    [");
    for (std::size_t c = 0; c < rows[r].size(); ++c)
      os << (c ? ", " : "") << json_cell(rows[r][c]);
    os << ']';
  }
  os << "\n  ],\n  \"notes\": [";
  const auto& notes = table.notes();
  for (std::size_t n = 0; n < notes.size(); ++n)
    os << (n ? ", " : "") << '"' << json_escape(notes[n]) << '"';
  os << "],\n  \"verdicts\": [";
  const auto& verdicts = table.verdicts();
  for (std::size_t v = 0; v < verdicts.size(); ++v)
    os << (v ? ",\n    {" : "\n    {") << "\"pass\": "
       << (verdicts[v].pass ? "true" : "false") << ", \"what\": \""
       << json_escape(verdicts[v].what) << "\"}";
  os << "\n  ]\n}\n";
}

}  // namespace detail

/// Record the bench's master seed for the provenance block. Call once,
/// right where the bench fixes its EngineOptions seed; the JSON "seed" key
/// appears only for benches that declared one.
inline void note_seed(std::uint64_t seed) {
  detail::g_seed = seed;
  detail::g_seed_set = true;
}

/// Print the table plus a DES throughput line (events popped process-wide
/// and events/sec — the events count is deterministic, the rate is the perf
/// trajectory), optionally mirror both to $STOSCHED_BENCH_JSON (tagged with
/// the bench's traffic configuration and build provenance), and return the
/// process exit code. Benches driving non-Poisson input pass an explicit
/// ArrivalMeta so the compare tool never diffs trajectories across traffic
/// regimes. All counts are read from the obs registry by name.
inline int finish(const Table& table, const ArrivalMeta& arrival = {}) {
  table.print(std::cout);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    detail::bench_start)
          .count();
  const std::uint64_t events = obs::counter_value("events");
  const double events_per_sec =
      wall > 0.0 ? static_cast<double>(events) / wall : 0.0;
  if (events > 0)
    std::cout << "[des] " << events << " events in " << wall << " s ("
              << events_per_sec << " events/sec)\n";
  const std::uint64_t lp_solves = obs::counter_value("lp_solves");
  const std::uint64_t lp_iterations = obs::counter_value("lp_iterations");
  if (lp_solves > 0)
    std::cout << "[lp] " << lp_solves << " solves, " << lp_iterations
              << " simplex iterations ("
              << (wall > 0.0 ? static_cast<double>(lp_solves) / wall : 0.0)
              << " solves/sec)\n";
  const obs::HistogramSnapshot waits = obs::histogram_snapshot("wait_time");
  if (waits.total > 0)
    std::cout << "[obs] wait tails over " << waits.total
              << " samples: p50 " << waits.percentile(0.50) << ", p99 "
              << waits.percentile(0.99) << ", p999 "
              << waits.percentile(0.999) << '\n';
  if (const char* path = std::getenv("STOSCHED_BENCH_JSON"))
    detail::write_json(table, path, wall, events, events_per_sec, arrival,
                       lp_solves, lp_iterations);
  return table.all_checks_passed() ? 0 : 1;
}

}  // namespace stosched::bench
