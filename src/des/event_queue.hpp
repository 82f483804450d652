// event_queue.hpp — the future-event set of the discrete-event simulator.
//
// Requirements driving the design:
//   * *Deterministic replay*: ties in event time are broken by insertion
//     sequence number, so a simulation is a pure function of its inputs —
//     essential for the reproducibility guarantees the experiment harness
//     makes (and for common-random-number policy comparisons). Because the
//     keys (time, seq) are unique, the pop sequence is fixed by the keys
//     alone: any exact min-queue over them pops the same events in the same
//     order, so how the heap moves its entries around (the deferred pop
//     below, the arity) can change without changing any simulation output.
//   * *Cache behaviour*: the heap is a flat array of 32-byte PODs in a 4-ary
//     layout, which trades slightly more comparisons per level for ~half
//     the levels and fewer cache misses than a binary heap.
//   * *Deferred pop*: pop() leaves a hole at the root instead of moving the
//     last entry there and sifting it down. A simulator handling an event
//     usually schedules the next one, and that push fills the hole and
//     sifts down once: one sift and one move per event instead of two sifts
//     (sift down after the pop, sift up after the push). When no push
//     comes, the next top() or pop() settles the hole the classic way.
//   * *Cancellation without tombstone scans*: events carry a user payload;
//     models that need cancellation (e.g. preemption timers) use
//     generation counters in the payload instead of erasing heap entries,
//     the standard "lazy deletion" idiom.
//
// The queue is a pure data structure and records no telemetry: the loop
// that pops it (queueing::Kernel::run) counts what it processed.
//
// Shootout outcome (hold model + ramp/drain over 2-, 4- and 8-ary heaps
// and a calendar queue, sizes 64 to 10^6): the 4-ary heap won at the small
// resident sizes the library's simulators actually run (~2 events per
// class), and on ramp/drain. The calendar queue overtook it only from ~16k
// resident events. The other arities and the calendar queue live in git
// history; bench_micro_des keeps the 4-ary hold model (from 4 resident
// events up) and ramp/drain.
#pragma once

#include <algorithm>
#include <cstddef>
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

/// The future-event set used by all simulators in the library: a 4-ary
/// min-heap on (time, seq) with a deferred pop.
class EventQueue {
 public:
  EventQueue() = default;

  /// Pre-size the heap from a capacity hint, so multi-replication drivers
  /// that rebuild their future-event set every replication allocate once.
  explicit EventQueue(std::size_t capacity_hint) {
    heap_.reserve(capacity_hint);
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.size() == hole_; }
  [[nodiscard]] std::size_t size() const noexcept {
    return heap_.size() - hole_;
  }
  // caller-audit: test-only(EventQueue.CapacityHintAndClearKeepCapacity: it
  // observes that a cleared heap is reused without reallocating)
  [[nodiscard]] std::size_t capacity() const noexcept {
    return heap_.capacity();
  }

  /// Drop all pending events and restart the tie-break sequence. Keeps the
  /// allocated capacity, so a cleared heap is reusable allocation-free.
  void clear() noexcept {
    heap_.clear();
    hole_ = false;
    next_seq_ = 0;
    STOSCHED_CONTRACT_CODE(has_last_pop_ = false;);
  }

  void reserve(std::size_t n) { heap_.reserve(n); }

  /// Schedule an event; `seq` is assigned automatically. Fills the hole a
  /// pop() left at the root, if there is one.
  void push(double time, std::uint32_t type, std::uint32_t a = 0,
            std::uint64_t b = 0) {
    const Event e{time, next_seq_++, type, a, b};
    if (hole_) {
      hole_ = false;
      sift_down(0, e);
    } else {
      heap_.push_back(e);
      sift_up(heap_.size() - 1, e);
    }
  }

  /// The earliest event (smallest time, then smallest seq).
  [[nodiscard]] const Event& top() {
    STOSCHED_ASSERT(!empty(), "top() on empty event heap");
    settle();
    return heap_.front();
  }

  /// Remove and return the earliest event. Its slot stays as a hole at the
  /// root until the next push(), top() or pop().
  Event pop() {
    STOSCHED_ASSERT(!empty(), "pop() on empty event heap");
    settle();
    const Event out = heap_.front();
    // Pop monotonicity: the FES contract every simulator's clock rests on —
    // (time, seq) keys leave in nondecreasing order between clear()s.
    STOSCHED_INVARIANT(
        !has_last_pop_ || out.time > last_pop_time_ ||
            (out.time == last_pop_time_ && out.seq > last_pop_seq_),
        "event heap popped out of (time, seq) order");
    STOSCHED_CONTRACT_CODE(has_last_pop_ = true; last_pop_time_ = out.time;
                           last_pop_seq_ = out.seq;);
    hole_ = true;
    return out;
  }

 private:
  static constexpr std::size_t kArity = 4;

  static bool before(const Event& x, const Event& y) noexcept {
    if (x.time != y.time) return x.time < y.time;
    return x.seq < y.seq;
  }

  /// Fill the root hole with the last entry, the classic pop.
  void settle() noexcept {
    if (!hole_) return;
    hole_ = false;
    const Event last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
  }

  /// Place `e` at slot `i` or above it.
  void sift_up(std::size_t i, const Event e) noexcept {
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  /// Place `e` at slot `i` or below it; the entry at `i` is overwritten.
  void sift_down(std::size_t i, const Event e) noexcept {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + kArity, n);
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
  /// True while heap_[0] is the stale slot of the last pop().
  bool hole_ = false;
  // Ghost state for the pop-monotonicity contract (absent in Release).
  STOSCHED_CONTRACT_STATE(bool has_last_pop_ = false;)
  STOSCHED_CONTRACT_STATE(double last_pop_time_ = 0.0;)
  STOSCHED_CONTRACT_STATE(std::uint64_t last_pop_seq_ = 0;)
};

}  // namespace stosched
