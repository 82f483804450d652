// engine.hpp — the unified replication engine of the experiment subsystem.
//
// Every simulator in the library answers one question per replication: "run
// the model once on this RNG stream and report a metric vector". The engine
// owns everything around that call, uniformly for all simulators:
//
//   * *Substreams*: replication r always draws from `Rng(seed).stream(r)`,
//     so an experiment is a pure function of (seed, replication count) —
//     independent of thread count, scheduling and batch boundaries.
//   * *Fan-out*: the replication is the unit of parallel work. Every
//     OpenMP thread (when available) claims chunks of replications in
//     order, and each replication writes its metric row into a shared
//     buffer. The merge folds the rows of each fixed-size cell of
//     `kCellSize` replications into a cell accumulator in replication
//     order and combines the cells in cell order with the exact
//     Chan–Golub–LeVeque merge, so the aggregate is bit-identical for 1 or
//     N threads. A replication that throws does not abort the fan-out: the
//     exception is rethrown on the calling thread when merging reaches its
//     cell.
//   * *Common random numbers* (`run_paired`): K policy arms replay the
//     *same* substream per replication, turning a policy comparison into a
//     paired-difference estimate whose variance drops by the (usually
//     large) common-variation term — see the CRN tests for the measured
//     factor on M/G/1 discipline comparisons. A comparison may split each
//     replication into `prepare` (what every arm shares, such as the
//     realized workload and its offline bound) and `evaluate` (one arm);
//     under CRN the shared half then runs once per replication, not once
//     per arm. One task covers all K arms of a replication.
//   * *Sequential stopping*: instead of guessing a replication count, run
//     batches until every tracked metric's 95% CI half-width falls
//     below `rel_precision * |mean|`, with a hard cap. The thread that
//     completes a batch merges it and applies the stop test at its
//     boundary, as a one-batch-at-a-time loop would, while the other
//     threads run on *speculatively* into the batches past it (once a
//     stop test has let the run go on: whole batches holding at least
//     `engine_threads()` replications), so no thread waits for a stop test
//     that lets the run go on. Replications past the stopping point are
//     dropped unmerged. Since a replication's result depends only on its
//     substream and the stop test sees the same left-fold of the same
//     cells at the same boundaries, the outcome is a pure function of
//     (options, body) at any thread count; one thread never runs past a
//     stop check.
//   * *Telemetry*: every chunk records into its own obs::Telemetry from a
//     pool. Sinks are committed in replication order as the prefix of
//     finished chunks grows, never past a stop check that could discard
//     them nor past the first failing replication, so the instruments count
//     exactly the replications a one-thread run would have run.
//
// The body parameter is a template, not a std::function: the hot loop
// inlines the replication call.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace stosched::experiment {

/// Replications per merge cell, the unit of deterministic merging: a cell's
/// rows are folded in replication order into one accumulator, and results
/// depend only on the (fixed) cell boundaries, never on how replications
/// map onto threads. Batches are whole cells.
inline constexpr std::size_t kCellSize = 16;

/// Controls for a replication run. With `rel_precision == 0` the engine
/// runs exactly `max_replications` (a classical fixed-length design);
/// otherwise it adds `batch`-sized rounds until every metric's CI is tight
/// enough or the cap is hit.
struct EngineOptions {
  std::uint64_t seed = 1;
  std::size_t max_replications = 1024;  ///< hard cap (and fixed-run length)
  std::size_t min_replications = 64;    ///< no stopping check before this
  std::size_t batch = 256;              ///< replications per stopping check
  double rel_precision = 0.0;  ///< target: halfwidth <= rel * |mean|; 0 = off
  /// Metrics with |mean| < abs_floor are judged on absolute half-width
  /// (halfwidth <= rel_precision) instead — a relative target is
  /// meaningless at zero.
  double abs_floor = 1e-9;
  /// Metric dimensions the stopping rule watches (empty = all). Paired runs
  /// apply this to the difference statistics: typically the one or two
  /// metrics a comparison is about, not every bookkeeping column.
  std::vector<std::size_t> tracked;
};

/// Aggregated outcome of a replication run.
struct EngineResult {
  std::vector<RunningStat> metrics;  ///< one accumulator per dimension
  std::size_t replications = 0;
  bool converged = true;  ///< false only if the precision target was missed

  [[nodiscard]] Estimate estimate(std::size_t metric = 0) const {
    STOSCHED_REQUIRE(metric < metrics.size(), "metric index out of range");
    return make_estimate(metrics[metric]);
  }
};

/// How `run_paired` feeds randomness to the K policy arms.
enum class Pairing {
  kCommonRandomNumbers,  ///< all arms replay replication r's substream
  kIndependentStreams,   ///< every (replication, arm) gets its own substream
};

/// Outcome of a K-arm comparison: per-arm metric statistics plus the
/// paired-difference statistics of every arm against arm 0.
struct PairedResult {
  std::vector<std::vector<RunningStat>> arm;   ///< [k][metric]
  std::vector<std::vector<RunningStat>> diff;  ///< [k-1][metric]: arm k − arm 0
  std::size_t replications = 0;
  bool converged = true;
};

/// Worker threads the engine fans out over (1 without OpenMP).
unsigned engine_threads() noexcept;

namespace detail {

/// True iff one accumulator meets the precision target of `opt`.
bool metric_precise(const RunningStat& s, const EngineOptions& opt);

/// True iff every tracked accumulator meets the precision target of `opt`.
bool precision_met(const std::vector<RunningStat>& stats,
                   const EngineOptions& opt);

/// Paired variant: every tracked dimension of every arm-vs-baseline
/// difference must be precise.
bool paired_precision_met(
    const std::vector<std::vector<RunningStat>>& diff,
    const EngineOptions& opt);

/// Round `batch` up to a whole number of cells (at least one).
std::size_t cells_per_batch(std::size_t batch);

/// The shared state of one `drive` call: which chunks of replications are
/// handed out, which have finished, which batch boundary is ready to merge,
/// and where each chunk's telemetry goes. Every member function but row()
/// takes one mutex.
///
/// Replications below the first stop check that can end the run are
/// *sure* to merge; more are handed out *speculatively* past it, so threads
/// need not wait for the stop test. Once a stop test has let the run go on,
/// that is whole batches holding one replication per thread; before, a
/// batch less (nothing unless a batch is shorter than the thread count),
/// since a first check often ends a run and in-flight speculative work
/// delays the end. A chunk is a quarter of a batch per thread, and of
/// what is left of the run near its end (as in guided scheduling), so
/// cheap bodies in long batches go out in long chunks while small batches
/// and the tail of a fixed run go out one by one. A chunk never straddles
/// a batch boundary, and none is handed out past the first failing
/// replication or while four per thread are in flight, which bounds the
/// sinks held back. Each chunk records into its own sink from a pool. As
/// the prefix of finished chunks grows, a sink is committed to where the
/// calling thread records when its chunk is sure, folded into its batch's
/// held sink when speculative (committed once the stop test lets that
/// batch merge, dropped when the run stops first), and dropped past the
/// first failure. So the instruments see exactly the replications a
/// one-thread run would have run.
class Schedule {
 public:
  /// A claimed chunk: replications [lo, hi) and the sink they record into
  /// (null when no chunk is held).
  struct Chunk {
    std::size_t seq = 0, lo = 0, hi = 0;
    std::unique_ptr<obs::Telemetry> sink;
  };
  /// A batch boundary to merge: every replication in [from, to) has
  /// finished, or every one up to `failed`, which lies below `to`. `to` is
  /// 0 when there is none.
  struct Ready {
    std::size_t from = 0, to = 0, failed = SIZE_MAX;
  };

  Schedule(const EngineOptions& opt, std::size_t slots);

  /// Replication r's row of the buffer, `slots` doubles.
  [[nodiscard]] std::span<double> row(std::size_t r) noexcept {
    return {rows_.data() + (r % capacity_) * slots_, slots_};
  }
  /// Hand back `chunk` if it holds a finished one. Then either return a
  /// boundary the caller must merge (one thread merges at a time), or wait
  /// for the next chunk and claim it into `chunk`; `chunk.sink` is null
  /// once no chunk is left to hand out (the threads still running chunks
  /// merge what is left).
  Ready next(Chunk& chunk);
  /// Note that replication `rep` threw `error`; the first one is kept.
  void fail(std::size_t rep, std::exception_ptr error);
  /// The merging thread's verdict on boundary `to`: end the run there, or
  /// go on. Returns the next boundary for it to merge, if any.
  Ready decide(std::size_t to, bool end, bool converged);
  /// End the run with `error` (the first failure when null), rethrown by
  /// result(); the merging thread calls this when the merge reaches a
  /// failure or its callbacks throw.
  void abort(std::exception_ptr error);
  /// The replications merged and whether the run converged; rethrows the
  /// failure that ended the run. Call once every thread is done.
  [[nodiscard]] std::pair<std::size_t, bool> result() const;

 private:
  struct Slot {
    std::size_t lo = 0, hi = 0;
    bool done = false;
    std::unique_ptr<obs::Telemetry> sink;
  };
  [[nodiscard]] std::size_t limit() const noexcept;  // issue no further
  std::unique_ptr<obs::Telemetry> fresh_sink();  // from the pool, cleared
  void retire(Slot& s);  // route the oldest finished chunk's telemetry
  Ready ready();         // the boundary to merge now, if any

  const std::size_t max_, min_, batch_, threads_, ahead_, slots_, capacity_;
  obs::Telemetry* const outer_;  // where the calling thread records
  std::vector<double> rows_;     // ring buffer of capacity_ rows
  std::vector<Slot> flight_;     // ring of the chunks in flight, by seq
  mutable std::mutex mutex_;
  std::condition_variable more_;  // signalled when a claim may proceed
  std::size_t oldest_ = 0;    // seq of the oldest chunk in flight
  std::size_t seq_ = 0;       // seq of the next chunk
  std::size_t issued_ = 0;    // replications handed out
  std::size_t finished_ = 0;  // prefix of finished replications
  std::size_t merged_ = 0;    // replications merged (a boundary)
  std::size_t sure_;          // first stop check that can end the run
  bool merging_ = false, over_ = false, converged_ = true;
  bool went_on_ = false;  // a stop test has let the run go on
  std::size_t failed_ = SIZE_MAX;  // first failing replication
  std::exception_ptr failure_, error_;
  // Telemetry of the speculative batches from sure_ on, in order.
  std::deque<std::unique_ptr<obs::Telemetry>> held_;
  std::vector<std::unique_ptr<obs::Telemetry>> pool_;
};

/// The shared scheduling/merge/stopping orchestration behind run() and
/// run_paired(). `rep_body(r, row)` runs replication r into `row`, a zeroed
/// span of `slots` doubles; `merge_cell(acc)` folds a finished cell — its
/// rows pushed in replication order into `slots` accumulators — into the
/// caller's cumulative state (called in cell order: that fixed left-fold
/// is the determinism guarantee); `stop()` reports whether the tracked
/// statistics meet the precision target. Returns (replications run,
/// converged).
///
/// Every thread claims chunks of replications from a `Schedule` and runs
/// them. The thread that completes a batch merges it cell by cell and
/// applies the stop test at its boundary, exactly as a one-batch loop
/// would, while the others run on into the next batch; the merge and the
/// stop test run on one thread at a time, in boundary order. Replications
/// past the stopping point are dropped with their telemetry. An exception
/// from `rep_body` is rethrown on the calling thread when merging reaches
/// its cell, after the cells before it are merged and the telemetry of
/// the replications up to and including it committed; a failure that the
/// stop test discards never throws. An exception from `merge_cell` or
/// `stop` is rethrown likewise.
template <class RepBody, class Merge, class Stop>
std::pair<std::size_t, bool> drive(const EngineOptions& opt,
                                   std::size_t slots, RepBody&& rep_body,
                                   Merge&& merge_cell, Stop&& stop) {
  Schedule schedule(opt, slots);
  std::vector<RunningStat> acc(slots);  // the merging thread's
  // Merge from boundary to boundary while this thread has one to merge.
  const auto merge = [&](Schedule::Ready ready) {
    try {
      while (ready.to != 0) {
        for (std::size_t lo = ready.from; lo < ready.to; lo += kCellSize) {
          const std::size_t hi = std::min(lo + kCellSize, ready.to);
          if (ready.failed < hi) return schedule.abort(nullptr);
          std::fill(acc.begin(), acc.end(), RunningStat{});
          for (std::size_t r = lo; r < hi; ++r) {
            const std::span<const double> row = schedule.row(r);
            for (std::size_t d = 0; d < slots; ++d) acc[d].push(row[d]);
          }
          merge_cell(acc);
        }
        const bool sequential = opt.rel_precision > 0.0;
        const bool converged =
            !sequential || (ready.to >= opt.min_replications && stop());
        ready = schedule.decide(
            ready.to, converged || ready.to >= opt.max_replications,
            converged);
      }
    } catch (...) {
      schedule.abort(std::current_exception());
    }
  };
  const auto work = [&] {
    Schedule::Chunk chunk;
    for (;;) {
      const Schedule::Ready ready = schedule.next(chunk);
      if (ready.to != 0) {
        merge(ready);
        continue;
      }
      if (!chunk.sink) return;
      obs::Telemetry* const prev = obs::set_telemetry_sink(chunk.sink.get());
      std::size_t r = chunk.lo;
      try {
        for (; r < chunk.hi; ++r) {
          const std::span<double> row = schedule.row(r);
          std::fill(row.begin(), row.end(), 0.0);
          rep_body(r, row);
        }
      } catch (...) {
        schedule.fail(r, std::current_exception());
      }
      obs::set_telemetry_sink(prev);
    }
  };
#ifdef _OPENMP
#pragma omp parallel
  work();
#else
  work();
#endif
  return schedule.result();
}

}  // namespace detail

/// Run replications of `body(rep, rng, out)` where `out` is a zeroed span of
/// `dims` doubles holding the replication's metric vector. Deterministic in
/// (opt, body); thread count never changes the result.
template <class Body>
EngineResult run(const EngineOptions& opt, std::size_t dims, Body&& body) {
  STOSCHED_REQUIRE(dims > 0, "need at least one metric dimension");
  const Rng master(opt.seed);
  EngineResult res;
  res.metrics.assign(dims, RunningStat{});
  const auto [done, converged] = detail::drive(
      opt, dims,
      [&](std::size_t r, std::span<double> row) {
        Rng rng = master.stream(r);
        body(r, rng, row);
      },
      [&](const std::vector<RunningStat>& acc) {
        for (std::size_t d = 0; d < dims; ++d) res.metrics[d].merge(acc[d]);
      },
      [&] { return detail::precision_met(res.metrics, opt); });
  res.replications = done;
  res.converged = converged;
  return res;
}

/// K-arm comparison split into the part of a replication every arm shares
/// and the part each arm runs: `prepare(rep, rng)` returns a `Shared` value
/// (e.g. the realized workload), `evaluate(shared, arm, out)` runs one arm
/// on it. Under `Pairing::kCommonRandomNumbers` every arm faces the same
/// workload, so `prepare` runs once per replication on substream r and
/// `evaluate` runs K times on its result; under `kIndependentStreams`
/// `prepare` runs once per (replication, arm) pair on its own substream.
/// The stopping rule tracks the *difference* metrics (arm k − arm 0) —
/// those are what a comparison wants tight — and the run is deterministic
/// in (opt, prepare, evaluate).
template <class Prepare, class Evaluate>
PairedResult run_paired(const EngineOptions& opt, std::size_t arms,
                        std::size_t dims, Pairing pairing, Prepare&& prepare,
                        Evaluate&& evaluate) {
  STOSCHED_REQUIRE(arms >= 2, "a paired comparison needs at least two arms");
  STOSCHED_REQUIRE(dims > 0, "need at least one metric dimension");
  const Rng master(opt.seed);
  PairedResult res;
  res.arm.assign(arms, std::vector<RunningStat>(dims));
  res.diff.assign(arms - 1, std::vector<RunningStat>(dims));

  // A replication's row: arms*dims arm metrics, then (arms-1)*dims
  // differences against arm 0.
  const std::size_t slots = arms * dims + (arms - 1) * dims;
  const auto [done, converged] = detail::drive(
      opt, slots,
      [&](std::size_t r, std::span<double> row) {
        const auto run_arm = [&](const auto& shared, std::size_t k) {
          const std::span<double> out = row.subspan(k * dims, dims);
          evaluate(shared, k, out);
          if (k > 0)
            for (std::size_t d = 0; d < dims; ++d)
              row[arms * dims + (k - 1) * dims + d] = out[d] - row[d];
        };
        if (pairing == Pairing::kCommonRandomNumbers) {
          Rng rng = master.stream(r);
          const auto shared = prepare(r, rng);
          for (std::size_t k = 0; k < arms; ++k) run_arm(shared, k);
        } else {
          for (std::size_t k = 0; k < arms; ++k) {
            Rng rng = master.stream(r * arms + k);
            run_arm(prepare(r, rng), k);
          }
        }
      },
      [&](const std::vector<RunningStat>& acc) {
        for (std::size_t k = 0; k < arms; ++k)
          for (std::size_t d = 0; d < dims; ++d)
            res.arm[k][d].merge(acc[k * dims + d]);
        for (std::size_t k = 0; k + 1 < arms; ++k)
          for (std::size_t d = 0; d < dims; ++d)
            res.diff[k][d].merge(acc[arms * dims + k * dims + d]);
      },
      [&] { return detail::paired_precision_met(res.diff, opt); });
  res.replications = done;
  res.converged = converged;
  return res;
}

/// K-arm comparison of `body(rep, arm, rng, out)`, the form for bodies with
/// no shared part: every arm gets its own copy of the replication's
/// substream (the same one for all arms under CRN), so the draws are those
/// of the split form with `Shared` = that substream.
template <class Body>
PairedResult run_paired(const EngineOptions& opt, std::size_t arms,
                        std::size_t dims, Pairing pairing, Body&& body) {
  struct Stream {
    Rng rng;
    std::size_t rep;
  };
  return run_paired(
      opt, arms, dims, pairing,
      [](std::size_t r, Rng& rng) { return Stream{Rng(rng), r}; },
      [&](const Stream& s, std::size_t k, std::span<double> out) {
        Rng rng = s.rng;
        body(s.rep, k, rng, out);
      });
}

}  // namespace stosched::experiment
