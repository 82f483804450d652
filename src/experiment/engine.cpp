#include "experiment/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace stosched::experiment {

unsigned engine_threads() noexcept {
#ifdef _OPENMP
  // Past the active-level limit a parallel region gets a team of one,
  // whatever omp_get_max_threads() says.
  if (omp_get_active_level() >= omp_get_max_active_levels()) return 1;
  return static_cast<unsigned>(std::max(1, omp_get_max_threads()));
#else
  return 1;
#endif
}

namespace detail {

bool metric_precise(const RunningStat& s, const EngineOptions& opt) {
  if (s.count() < 2) return false;
  const double hw = s.ci_halfwidth();
  const double mean = std::abs(s.mean());
  const double target =
      mean >= opt.abs_floor ? opt.rel_precision * mean : opt.rel_precision;
  return hw <= target;
}

bool precision_met(const std::vector<RunningStat>& stats,
                   const EngineOptions& opt) {
  if (opt.tracked.empty()) {
    for (const RunningStat& s : stats)
      if (!metric_precise(s, opt)) return false;
    return true;
  }
  for (const std::size_t d : opt.tracked) {
    STOSCHED_REQUIRE(d < stats.size(), "tracked metric index out of range");
    if (!metric_precise(stats[d], opt)) return false;
  }
  return true;
}

bool paired_precision_met(const std::vector<std::vector<RunningStat>>& diff,
                          const EngineOptions& opt) {
  for (const auto& arm : diff)
    if (!precision_met(arm, opt)) return false;
  return true;
}

std::size_t cells_per_batch(std::size_t batch) {
  return std::max<std::size_t>(1, (batch + kCellSize - 1) / kCellSize);
}

namespace {

/// Reset a pooled sink, skipping histograms that are already empty.
void clear(obs::Telemetry& t) noexcept {
  t.events = t.lp_solves = t.lp_iterations = 0;
  for (obs::LocalHistogram* h : {&t.wait, &t.sojourn})
    if (h->total() != 0 || h->invalid() != 0) h->clear();
}

/// Record all of `t` into `target` (the instruments when null).
void commit_into(obs::Telemetry* target, const obs::Telemetry& t) noexcept {
  if (t.events == 0 && t.lp_solves == 0 && t.wait.total() == 0 &&
      t.wait.invalid() == 0 && t.sojourn.total() == 0 &&
      t.sojourn.invalid() == 0)
    return;
  obs::Telemetry* const prev = obs::set_telemetry_sink(target);
  obs::commit(t);
  obs::set_telemetry_sink(prev);
}

/// The first batch boundary past `merged` whose stop test can end a run.
std::size_t check_after(std::size_t merged, std::size_t batch,
                        std::size_t min, std::size_t max) {
  std::size_t b = merged + batch;
  if (b < min) b = (min + batch - 1) / batch * batch;
  return std::min(b, max);
}

std::size_t batch_of(const EngineOptions& opt) {
  return opt.rel_precision > 0.0 ? cells_per_batch(opt.batch) * kCellSize
                                 : opt.max_replications;
}

}  // namespace

Schedule::Schedule(const EngineOptions& opt, std::size_t slots)
    : max_(opt.max_replications),
      min_(opt.min_replications),
      batch_(batch_of(opt)),
      threads_(engine_threads()),
      // Whole batches holding one replication per thread.
      ahead_(opt.rel_precision > 0.0 ? (threads_ + batch_ - 1) / batch_ * batch_
                                     : 0),
      slots_(slots),
      capacity_(std::min(max_, check_after(0, batch_, min_, max_) + ahead_)),
      outer_(obs::telemetry_sink()),
      rows_(capacity_ * slots),
      flight_(4 * threads_),
      sure_(check_after(0, batch_, min_, max_)) {
  STOSCHED_REQUIRE(opt.max_replications > 0, "need at least one replication");
  STOSCHED_REQUIRE(opt.rel_precision >= 0.0, "rel_precision must be >= 0");
}

std::size_t Schedule::limit() const noexcept {
  // Until a stop test has let the run go on, only as far as a batch falls
  // short of one replication per thread: a first check often ends a run.
  const std::size_t ahead = went_on_ || ahead_ == 0 ? ahead_ : ahead_ - batch_;
  return std::min(max_, sure_ + ahead);
}

Schedule::Ready Schedule::next(Chunk& chunk) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (chunk.sink) {
    Slot& s = flight_[chunk.seq % flight_.size()];
    s.done = true;
    s.sink = std::move(chunk.sink);
    const std::size_t oldest = oldest_;
    for (; oldest_ < seq_; ++oldest_) {
      Slot& head = flight_[oldest_ % flight_.size()];
      if (!head.done) break;
      retire(head);
    }
    if (oldest_ != oldest) more_.notify_all();  // room in flight_
    if (const Ready r = ready(); r.to != 0) return r;
  }
  // None is left once the run is over, the cap is handed out or a
  // replication has failed.
  const auto none_left = [&] {
    return over_ || issued_ == max_ || failed_ != SIZE_MAX;
  };
  more_.wait(lock, [&] {
    return none_left() ||
           (issued_ < limit() && seq_ - oldest_ < flight_.size());
  });
  if (none_left()) return {};
  // A quarter of a batch per thread, shrinking with what is left of a
  // fixed run (or of the cap), within the batch.
  const std::size_t span = std::min(batch_, max_ - issued_);
  const std::size_t boundary =
      std::min((issued_ / batch_ + 1) * batch_, max_);
  const std::size_t size = std::min(
      std::max<std::size_t>(1, span / (4 * threads_)), boundary - issued_);
  chunk.seq = seq_++;
  chunk.lo = issued_;
  chunk.hi = issued_ += size;
  chunk.sink = fresh_sink();
  Slot& s = flight_[chunk.seq % flight_.size()];
  s.lo = chunk.lo;
  s.hi = chunk.hi;
  return {};
}

void Schedule::retire(Slot& s) {
  finished_ = s.hi;
  s.done = false;
  if (s.lo <= failed_) {
    if (s.lo < sure_) {
      commit_into(outer_, *s.sink);
    } else {
      const std::size_t batch = (s.lo - sure_) / batch_;
      while (held_.size() <= batch) held_.push_back(fresh_sink());
      commit_into(held_[batch].get(), *s.sink);
    }
  }
  pool_.push_back(std::move(s.sink));
}

void Schedule::fail(std::size_t rep, std::exception_ptr error) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (rep < failed_) {
    failed_ = rep;
    failure_ = std::move(error);
  }
}

Schedule::Ready Schedule::decide(std::size_t to, bool end, bool converged) {
  const std::lock_guard<std::mutex> lock(mutex_);
  merged_ = to;
  merging_ = false;
  if (end) {
    over_ = true;
    converged_ = converged;
    more_.notify_all();
    return {};
  }
  went_on_ = went_on_ || to == sure_;
  // The batches between the old and the new first check are now sure.
  const std::size_t sure = check_after(merged_, batch_, min_, max_);
  for (; sure_ < sure; sure_ += batch_) {
    if (held_.empty()) continue;
    commit_into(outer_, *held_.front());
    pool_.push_back(std::move(held_.front()));
    held_.pop_front();
  }
  sure_ = sure;
  more_.notify_all();
  return ready();
}

void Schedule::abort(std::exception_ptr error) {
  const std::lock_guard<std::mutex> lock(mutex_);
  merging_ = false;
  over_ = true;
  error_ = error ? std::move(error) : failure_;
  more_.notify_all();
}

std::pair<std::size_t, bool> Schedule::result() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (error_) std::rethrow_exception(error_);
  return {merged_, converged_};
}

std::unique_ptr<obs::Telemetry> Schedule::fresh_sink() {
  if (pool_.empty()) return std::make_unique<obs::Telemetry>();
  std::unique_ptr<obs::Telemetry> sink = std::move(pool_.back());
  pool_.pop_back();
  clear(*sink);
  return sink;
}

Schedule::Ready Schedule::ready() {
  if (merging_ || over_) return {};
  const std::size_t to = std::min(merged_ + batch_, max_);
  if (finished_ < to && !(failed_ < to && finished_ > failed_)) return {};
  merging_ = true;
  return {merged_, to, failed_};
}

}  // namespace detail

}  // namespace stosched::experiment
