// event_queue.hpp — the future-event set of the discrete-event simulator.
//
// Requirements driving the design:
//   * *Deterministic replay*: ties in event time are broken by insertion
//     sequence number, so a simulation is a pure function of its inputs —
//     essential for the reproducibility guarantees the experiment harness
//     makes (and for common-random-number policy comparisons).
//   * *Cache behaviour*: the heap is a flat array of 32-byte PODs; a d-ary
//     layout (default d=4) trades slightly more comparisons per level for
//     ~half the levels and fewer cache misses — the micro-bench ablation
//     `bench_micro_des` measures binary vs 4-ary on hold-model workloads.
//   * *Cancellation without tombstone scans*: events carry a user payload;
//     models that need cancellation (e.g. preemption timers) use
//     generation counters in the payload instead of erasing heap entries,
//     the standard "lazy deletion" idiom.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/check.hpp"
#include "util/contract.hpp"

namespace stosched {

/// One scheduled occurrence. POD; 32 bytes.
struct Event {
  double time = 0.0;       ///< absolute simulation time
  std::uint64_t seq = 0;   ///< tie-breaker: insertion order
  std::uint32_t type = 0;  ///< model-defined event kind
  std::uint32_t a = 0;     ///< model payload (e.g. class index)
  std::uint64_t b = 0;     ///< model payload (e.g. job id / generation)
};

/// Add `n` processed events to the process-wide obs counter "events" — the
/// numerator of the events/sec throughput number bench_common::finish puts
/// in every BENCH_*.json. Queues count pops in a plain per-instance counter
/// (no hot-path atomics) and flush it here, atomically, when cleared or
/// destroyed; read it with obs::counter_value("events") after the
/// simulations of interest have finished. Thread-safe.
void add_process_events(std::uint64_t n) noexcept;

/// Min-heap on (time, seq) with configurable arity.
template <unsigned Arity = 4>
class DaryEventHeap {
  static_assert(Arity >= 2, "heap arity must be >= 2");

 public:
  DaryEventHeap() = default;

  /// Pre-size the heap from a capacity hint, so multi-replication drivers
  /// that rebuild their future-event set every replication allocate once.
  explicit DaryEventHeap(std::size_t capacity_hint) {
    heap_.reserve(capacity_hint);
  }

  /// Heaps are simulation-local working state: copying one would double-
  /// flush its pop count into the process-wide events counter.
  DaryEventHeap(const DaryEventHeap&) = delete;
  DaryEventHeap& operator=(const DaryEventHeap&) = delete;

  ~DaryEventHeap() { flush_popped(); }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return heap_.capacity();
  }

  /// Drop all pending events and restart the tie-break sequence. Keeps the
  /// allocated capacity, so a cleared heap is reusable allocation-free.
  /// Flushes the pop count into the process-wide events counter.
  void clear() noexcept {
    heap_.clear();
    next_seq_ = 0;
    flush_popped();
    STOSCHED_CONTRACT_CODE(has_last_pop_ = false;);
  }

  void reserve(std::size_t n) { heap_.reserve(n); }

  /// Schedule an event; `seq` is assigned automatically.
  void push(double time, std::uint32_t type, std::uint32_t a = 0,
            std::uint64_t b = 0) {
    Event e{time, next_seq_++, type, a, b};
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
  }

  /// The earliest event (smallest time, then smallest seq).
  [[nodiscard]] const Event& top() const {
    STOSCHED_ASSERT(!heap_.empty(), "top() on empty event heap");
    return heap_.front();
  }

  Event pop() {
    STOSCHED_ASSERT(!heap_.empty(), "pop() on empty event heap");
    ++popped_;
    Event out = heap_.front();
    // Pop monotonicity: the FES contract every simulator's clock rests on —
    // (time, seq) keys leave in nondecreasing order between clear()s.
    STOSCHED_INVARIANT(
        !has_last_pop_ || out.time > last_pop_time_ ||
            (out.time == last_pop_time_ && out.seq > last_pop_seq_),
        "event heap popped out of (time, seq) order");
    STOSCHED_CONTRACT_CODE(has_last_pop_ = true; last_pop_time_ = out.time;
                           last_pop_seq_ = out.seq;);
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return out;
  }

 private:
  void flush_popped() noexcept {
    if (popped_ != 0) {
      add_process_events(popped_);
      popped_ = 0;
    }
  }
  static bool before(const Event& x, const Event& y) noexcept {
    if (x.time != y.time) return x.time < y.time;
    return x.seq < y.seq;
  }

  void sift_up(std::size_t i) noexcept {
    Event e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / Arity;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void sift_down(std::size_t i) noexcept {
    Event e = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = Arity * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + Arity, n);
      for (std::size_t c = first + 1; c < last; ++c)
        if (before(heap_[c], heap_[best])) best = c;
      if (!before(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t popped_ = 0;  ///< pops since the last flush (see clear())
  // Ghost state for the pop-monotonicity contract (absent in Release).
  STOSCHED_CONTRACT_STATE(bool has_last_pop_ = false;)
  STOSCHED_CONTRACT_STATE(double last_pop_time_ = 0.0;)
  STOSCHED_CONTRACT_STATE(std::uint64_t last_pop_seq_ = 0;)
};

/// The future-event set used by all simulators in the library.
///
/// Shootout outcome (bench_micro_des, hold model + ramp/drain, sizes 64 to
/// 10^6): the 4-ary heap wins at the small resident sizes the library's
/// simulators actually run (~2 events per class), and on ramp/drain. A
/// calendar queue overtook it only from ~16k resident events; it was
/// removed for want of a caller and lives in git history.
using EventQueue = DaryEventHeap<4>;

}  // namespace stosched
