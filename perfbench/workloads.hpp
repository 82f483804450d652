// workloads.hpp — the benchmark's three workloads and the span recorder its
// traced run uses.
//
// A workload is a fixed list of experiment calls through the production
// entry points (experiment::compare_*_policies); one pass over the list is a
// round, and the benchmark runs rounds in a closed loop. Every experiment
// also carries a *replica*: the same engine call (experiment::run_paired)
// with a body that wraps exactly the run_replication calls the production
// adapter makes, plus spans around them. The traced run checks that the
// replica's result equals the production result bit for bit, so the layer
// numbers describe the program that the end-to-end numbers time.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dist/arrival.hpp"
#include "dist/distribution.hpp"
#include "experiment/engine.hpp"

namespace perfbench {

using stosched::experiment::EngineOptions;
using stosched::experiment::PairedResult;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- span recorder -----------------------------------------------------------
// Spans live in per-thread buffers (no locking on the hot path) and are
// written out once, at exit. A span's parent is the span open on the same
// thread when it started; a body span opened on a worker thread has the
// current experiment call as its parent.

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< global span id, -1 = root
  std::uint32_t call = 0;    ///< experiment call the span belongs to
  std::uint32_t rep = 0;     ///< replication index (body spans)
  std::uint32_t arm = 0;     ///< policy arm (body spans)
  std::uint64_t value = 0;   ///< payload: LP iterations for lp.solve spans

  [[nodiscard]] double ms() const { return (end_ns - start_ns) * 1e-6; }
};

class Tracer {
 public:
  /// Size the per-thread buffers; spans are recorded only while enabled.
  void reset(unsigned threads);
  void set_enabled(bool on) { enabled_ = on; }

  /// Open a span on the calling thread; returns its buffer index (or -1
  /// when tracing is off).
  std::int64_t open(const char* name, std::uint32_t rep = 0,
                    std::uint32_t arm = 0);
  void close(std::int64_t index, std::uint64_t value = 0);

  /// Main-thread call spans: the parent of every body span of the call.
  void begin_call(const char* name);
  void end_call();
  [[nodiscard]] std::uint32_t call_id() const { return call_; }

  [[nodiscard]] const std::vector<std::vector<Span>>& buffers() const {
    return buf_;
  }
  /// Chrome-trace JSON (load in Perfetto or chrome://tracing).
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<std::vector<Span>> buf_;   ///< [thread][span]
  std::vector<std::int64_t> open_;       ///< per thread: open span index
  std::int64_t call_span_ = -1;          ///< global id of the open call
  std::uint32_t call_ = 0;
};

Tracer& tracer();

/// RAII span on the calling thread.
class Scope {
 public:
  explicit Scope(const char* name, std::uint32_t rep = 0,
                 std::uint32_t arm = 0)
      : index_(tracer().open(name, rep, arm)) {}
  ~Scope() { tracer().close(index_, value_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void set_value(std::uint64_t v) { value_ = v; }

 private:
  std::int64_t index_;
  std::uint64_t value_ = 0;
};

// ---- experiments and workloads ---------------------------------------------

enum class Family { kMg1, kPolling, kNetwork, kMmm, kOnline };
const char* family_name(Family f);

/// The service and arrival laws an experiment's simulators draw from, for
/// the sampling replays.
struct Laws {
  std::vector<stosched::DistPtr> service;
  std::vector<stosched::ArrivalPtr> arrival;
  /// Events the simulators keep resident in the FES: one pending arrival
  /// per externally fed class plus one completion per busy server.
  std::vector<std::size_t> fes_sizes;
};

struct Experiment {
  std::string name;
  Family family = Family::kMg1;
  std::size_t arms = 0;
  EngineOptions opt;  ///< seed is set per call
  std::function<PairedResult(const EngineOptions&)> production;
  std::function<PairedResult(const EngineOptions&)> replica;
  /// Paper verdicts on a result; empty string = all hold, else the failure.
  std::function<std::string(const PairedResult&)> verdict;
  /// Metric dimensions derived from the LP bound (compared to 1e-6 relative
  /// against the reference instead of exactly).
  std::vector<std::size_t> lp_dims;
  /// Metric dimension holding jobs per replication (online only), else -1.
  int jobs_dim = -1;
  Laws laws;
};

struct Workload {
  std::string name;
  std::vector<Experiment> experiments;
};

/// Workload by name ("queue-seq", "queue-fixed", "online-lp"); throws
/// std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name);

/// Experiment seed of round `round`: the workload seed itself for round 0,
/// a SplitMix64 derivation for later rounds.
std::uint64_t round_seed(std::uint64_t seed, std::size_t round);

/// Exact equality of two paired results (counts and every accumulator's
/// moments and extremes, compared as bits).
bool same_result(const PairedResult& a, const PairedResult& b);

/// Stopping rounds and cells the engine ran for a result of `opt`.
struct RoundShape {
  std::size_t rounds = 0;
  std::size_t cells = 0;
};
RoundShape round_shape(const EngineOptions& opt, std::size_t replications);

/// One experiment call and what the benchmark observed around it.
struct CallRecord {
  std::string experiment;
  std::uint64_t seed = 0;
  PairedResult result;
  double wall_s = 0.0;
  std::size_t merged = 0;       ///< replication-arm results in the answer
  std::uint64_t des_events = 0;  ///< `events` counter delta
  std::uint64_t lp_solves = 0;
  std::uint64_t lp_iterations = 0;
  /// Events for the throughput figure: des_events, or two per online job
  /// (arrival and completion) while simulate_online counts none.
  std::uint64_t events = 0;
  std::string error;   ///< empty = the call succeeded and its verdicts hold
  /// Exact fingerprint: replications, convergence, `events`, the wait and
  /// sojourn histogram deltas and every accumulator outside lp_dims.
  std::string digest;
  std::vector<double> lp_values;  ///< LP-derived means, checked to 1e-6
};

/// Run one call of `e` with experiment seed `seed`, through the production
/// entry point or (replica = true) through the traced replica. Never
/// throws: a throwing call or a failed verdict is recorded in `error`.
CallRecord run_call(const Experiment& e, std::uint64_t seed, bool replica);

/// JSON object for one call record (the fields the reference compares).
std::string call_json(const CallRecord& c);

/// Peak resident set of the process, in MiB.
double peak_rss_mb();

/// Median of a sample (0 for an empty one).
double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1] (0 for an empty sample).
double percentile(std::vector<double> v, double q);

/// Traced run: writes the per-layer metrics JSON line and the span file.
/// Returns the process exit code.
int run_traced(const Workload& w, std::uint64_t seed,
               const std::string& trace_path);

}  // namespace perfbench
