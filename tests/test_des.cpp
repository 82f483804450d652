// Tests for des/: heap ordering with tie-breaking (the determinism
// guarantee), arity-parameterized property checks, the FifoArena ring
// buffer against a std::deque reference, and the process-wide event
// counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "des/event_queue.hpp"
#include "des/fifo_arena.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace stosched {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(3.0, 0);
  q.push(1.0, 1);
  q.push(2.0, 2);
  EXPECT_EQ(q.pop().type, 1u);
  EXPECT_EQ(q.pop().type, 2u);
  EXPECT_EQ(q.pop().type, 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  for (std::uint32_t i = 0; i < 50; ++i) q.push(1.0, i);
  for (std::uint32_t i = 0; i < 50; ++i) EXPECT_EQ(q.pop().type, i);
}

TEST(EventQueue, PayloadsSurvive) {
  EventQueue q;
  q.push(1.0, 7, 13, 99);
  const Event e = q.pop();
  EXPECT_EQ(e.type, 7u);
  EXPECT_EQ(e.a, 13u);
  EXPECT_EQ(e.b, 99u);
}

TEST(EventQueue, ClearResets) {
  EventQueue q;
  q.push(1.0, 0);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, CapacityHintAndClearKeepCapacity) {
  EventQueue q(256);
  EXPECT_GE(q.capacity(), 256u);
  for (int i = 0; i < 200; ++i) q.push(static_cast<double>(i), 0);
  const std::size_t cap = q.capacity();
  q.clear();
  // A cleared heap is reusable without reallocating: capacity survives and
  // the tie-break sequence restarts.
  EXPECT_EQ(q.capacity(), cap);
  EXPECT_TRUE(q.empty());
  q.push(3.0, 7);
  EXPECT_EQ(q.top().seq, 0u);
}

template <unsigned A>
void random_heap_property() {
  DaryEventHeap<A> q;
  Rng rng(42);
  std::vector<double> times;
  for (int i = 0; i < 5000; ++i) {
    const double t = rng.uniform(0.0, 100.0);
    times.push_back(t);
    q.push(t, 0);
  }
  std::sort(times.begin(), times.end());
  for (const double expected : times) {
    ASSERT_FALSE(q.empty());
    EXPECT_DOUBLE_EQ(q.pop().time, expected);
  }
}

TEST(EventQueue, HeapPropertyBinary) { random_heap_property<2>(); }
TEST(EventQueue, HeapPropertyQuad) { random_heap_property<4>(); }
TEST(EventQueue, HeapPropertyOctal) { random_heap_property<8>(); }

TEST(EventQueue, InterleavedPushPop) {
  EventQueue q;
  Rng rng(43);
  double last = 0.0;
  // Hold model: pop the min, push a new event later than the popped one.
  for (int i = 0; i < 100; ++i) q.push(rng.uniform(0.0, 10.0), 0);
  for (int i = 0; i < 10000; ++i) {
    const Event e = q.pop();
    EXPECT_GE(e.time, last);
    last = e.time;
    q.push(e.time + rng.uniform(0.0, 5.0), 0);
  }
}

TEST(EventCounter, FlushesOnClearAndDestroy) {
  const std::uint64_t before = obs::counter_value("events");
  {
    EventQueue q;
    q.push(1.0, 0);
    q.push(2.0, 0);
    q.pop();
    // Unflushed pops are not yet visible process-wide.
    EXPECT_EQ(obs::counter_value("events"), before);
    q.clear();
    EXPECT_EQ(obs::counter_value("events"), before + 1);
    q.push(1.0, 0);
    q.pop();
  }  // destructor flushes the second pop
  EXPECT_EQ(obs::counter_value("events"), before + 2);
}

TEST(FifoArena, MatchesDequeReference) {
  // Randomized differential test against std::deque, covering wrap-around,
  // growth mid-stream, push_front (the preemption path), and clear-reuse.
  FifoArena<int> arena;
  std::deque<int> ref;
  Rng rng(7);
  int next = 0;
  for (int op = 0; op < 20000; ++op) {
    const double u = rng.uniform();
    if (u < 0.40) {
      arena.push_back(next);
      ref.push_back(next);
      ++next;
    } else if (u < 0.55) {
      arena.push_front(next);
      ref.push_front(next);
      ++next;
    } else if (u < 0.98) {
      if (!ref.empty()) {
        ASSERT_EQ(arena.front(), ref.front());
        arena.pop_front();
        ref.pop_front();
      }
    } else {
      arena.clear();
      ref.clear();
    }
    ASSERT_EQ(arena.size(), ref.size());
    ASSERT_EQ(arena.empty(), ref.empty());
  }
  while (!ref.empty()) {
    ASSERT_EQ(arena.front(), ref.front());
    arena.pop_front();
    ref.pop_front();
  }
}

TEST(FifoArena, ReserveKeepsClearAllocationFree) {
  FifoArena<double> arena(100);
  const std::size_t cap = arena.capacity();
  EXPECT_GE(cap, 100u);
  for (int i = 0; i < 100; ++i) arena.push_back(1.0);
  arena.clear();
  EXPECT_EQ(arena.capacity(), cap);
  EXPECT_TRUE(arena.empty());
}

TEST(FifoArena, GrowthUnwrapsRing) {
  // Force head_ away from 0, then grow: FIFO order must survive the
  // unwrap-to-front rebuild.
  FifoArena<int> arena;
  for (int i = 0; i < 10; ++i) arena.push_back(i);
  for (int i = 0; i < 10; ++i) arena.pop_front();
  for (int i = 0; i < 40; ++i) arena.push_back(i);  // wraps, then grows
  for (int i = 0; i < 40; ++i) {
    ASSERT_EQ(arena.front(), i);
    arena.pop_front();
  }
}

}  // namespace
}  // namespace stosched
