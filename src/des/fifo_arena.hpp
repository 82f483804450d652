// fifo_arena.hpp — a reusable ring-buffer FIFO for simulator job records.
//
// The event-driven simulators used to keep their waiting-job queues in
// std::deque, whose chunked storage allocates and frees throughout a
// replication — pure churn on the hot path, repeated for every replication
// the engine fans out. FifoArena replaces it with a power-of-two ring
// buffer over one contiguous allocation, mirroring the EventQueue
// capacity-hint idiom: reserve once up front, then clear-don't-free, so a
// replication's queue operations are allocation-free after warm-up and the
// records sit contiguously in cache order.
//
// Supported operations are exactly what the simulators need: FIFO
// push_back/front/pop_front, plus push_front for the M/G/1 preemptive-
// resume discipline (a preempted job re-enters at the head of its class).
// T must be default-constructible and copyable (the queues hold small POD
// records: arrival epochs, WaitingJob, class ids).
#pragma once

#include <cstddef>
#include <vector>

#include "util/check.hpp"
#include "util/contract.hpp"

namespace stosched {

template <class T>
class FifoArena {
 public:
  FifoArena() = default;

  /// Pre-size to at least `n` slots (rounded up to a power of two), so
  /// steady-state simulation never reallocates.
  explicit FifoArena(std::size_t n) { reserve(n); }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  // caller-audit: test-only(FifoArena.ReserveKeepsClearAllocationFree: it
  // observes that a reserved, cleared arena does not reallocate)
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }

  void reserve(std::size_t n) {
    if (n > buf_.size()) rebuild(round_up_pow2(n));
  }

  /// Drop all entries, keeping the allocation — the clear-don't-free half
  /// of the arena contract.
  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

  void push_back(const T& value) {
    if (size_ == buf_.size()) grow();
    ring_invariant();
    buf_[(head_ + size_) & mask_] = value;
    ++size_;
  }

  void push_front(const T& value) {
    if (size_ == buf_.size()) grow();
    ring_invariant();
    head_ = (head_ + mask_) & mask_;  // head - 1, mod capacity
    buf_[head_] = value;
    ++size_;
  }

  [[nodiscard]] const T& front() const {
    STOSCHED_ASSERT(size_ > 0, "front() on empty FifoArena");
    return buf_[head_];
  }

  void pop_front() {
    STOSCHED_ASSERT(size_ > 0, "pop_front() on empty FifoArena");
    ring_invariant();
    head_ = (head_ + 1) & mask_;
    --size_;
  }

 private:
  /// The ring's structural invariants, checked (contract builds only) at
  /// every mutation: a power-of-two backing array whose mask matches it,
  /// head inside the ring, and occupancy within capacity. A violation means
  /// the index algebra below has been edited wrong, not a caller error.
  void ring_invariant() const noexcept {
    STOSCHED_INVARIANT(!buf_.empty() && (buf_.size() & mask_) == 0 &&
                           mask_ == buf_.size() - 1,
                       "FifoArena capacity/mask relation broken");
    STOSCHED_INVARIANT(head_ <= mask_, "FifoArena head outside the ring");
    STOSCHED_INVARIANT(size_ <= buf_.size(), "FifoArena overfull");
  }
  static std::size_t round_up_pow2(std::size_t n) noexcept {
    std::size_t c = kMinCapacity;
    while (c < n) c <<= 1;
    return c;
  }

  void grow() { rebuild(buf_.empty() ? kMinCapacity : buf_.size() * 2); }

  /// Reallocate to `cap` slots (a power of two), un-wrapping the ring so
  /// the live entries land at the front in FIFO order.
  void rebuild(std::size_t cap) {
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i)
      next[i] = buf_[(head_ + i) & mask_];
    buf_ = std::move(next);
    mask_ = cap - 1;
    head_ = 0;
  }

  static constexpr std::size_t kMinCapacity = 16;

  std::vector<T> buf_;
  std::size_t mask_ = 0;  ///< capacity - 1 (capacity is a power of two)
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace stosched
