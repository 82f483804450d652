// Tests for des/: heap ordering with tie-breaking (the determinism
// guarantee), a randomized heap-property check, the EventQueue against an
// ordered-set reference, and the FifoArena ring buffer against a std::deque
// reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "des/event_queue.hpp"
#include "des/fifo_arena.hpp"
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

// Random times pop in sorted order, for each heap size and seed. The three
// tests below share this check and differ only in the size family swept.
void random_heap_property(std::initializer_list<int> sizes) {
  for (const int size : sizes) {
    for (const std::uint64_t seed : {42u, 43u, 44u}) {
      EventQueue q;
      Rng rng(seed);
      std::vector<double> times;
      for (int i = 0; i < size; ++i) {
        const double t = rng.uniform(0.0, 100.0);
        times.push_back(t);
        q.push(t, 0);
      }
      std::sort(times.begin(), times.end());
      for (const double expected : times) {
        ASSERT_FALSE(q.empty()) << "size " << size << ", seed " << seed;
        ASSERT_DOUBLE_EQ(q.pop().time, expected)
            << "size " << size << ", seed " << seed;
      }
      EXPECT_TRUE(q.empty());
    }
  }
}

// Sizes around powers of two.
TEST(EventQueue, HeapPropertyBinary) {
  random_heap_property({1, 2, 3, 7, 8, 9, 255, 256, 257, 4095, 4096, 4097});
}

// Sizes that fill whole 4-ary levels, and one past or short of them.
TEST(EventQueue, HeapPropertyQuad) {
  random_heap_property({4, 5, 6, 20, 21, 22, 85, 86, 340, 341, 342, 5461});
}

// Sizes around powers of eight, which end levels mid-node in a 4-ary heap.
TEST(EventQueue, HeapPropertyOctal) {
  random_heap_property({17, 63, 64, 65, 300, 511, 512, 513, 5000});
}

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

TEST(EventQueue, MatchesOrderedSetReference) {
  // Randomized differential test against a std::set ordered on (time, seq):
  // pops followed by a push (which fill the hole a pop leaves), pops with
  // no push after them, pushes after a pop, clear() while a pop is
  // pending, equal times, and size/empty/top in between. Times never go
  // below the last popped one, as in a simulation.
  using Key = std::tuple<double, std::uint64_t, std::uint32_t, std::uint32_t,
                         std::uint64_t>;
  auto key = [](const Event& e) {
    return Key{e.time, e.seq, e.type, e.a, e.b};
  };
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    EventQueue q;
    std::set<Key> ref;
    std::uint64_t ref_seq = 0;
    std::vector<Key> got, want;
    Rng rng(seed);
    double now = 0.0;
    auto push = [&] {
      // A coarse grid makes equal times common, ties with `now` included.
      const double t = now + 0.25 * static_cast<double>(rng.below(8));
      const auto type = static_cast<std::uint32_t>(rng.below(4));
      const auto a = static_cast<std::uint32_t>(rng.below(1000));
      const std::uint64_t b = rng();
      q.push(t, type, a, b);
      ref.insert(Key{t, ref_seq++, type, a, b});
    };
    auto pop = [&] {
      got.push_back(key(q.pop()));
      want.push_back(*ref.begin());
      ref.erase(ref.begin());
      now = std::get<0>(want.back());
      ASSERT_EQ(got.back(), want.back()) << "seed " << seed;
    };
    for (int op = 0; op < 20000; ++op) {
      const double u = rng.uniform();
      if (u < 0.36) {
        push();
      } else if (u < 0.72) {
        if (ref.empty()) continue;
        pop();
        if (rng.bernoulli(0.5)) push();
      } else if (u < 0.80) {
        if (ref.empty()) continue;
        ASSERT_EQ(key(q.top()), *ref.begin()) << "seed " << seed;
      } else if (u < 0.995) {
        ASSERT_EQ(q.size(), ref.size()) << "seed " << seed;
        ASSERT_EQ(q.empty(), ref.empty()) << "seed " << seed;
      } else {
        if (!ref.empty()) pop();
        q.clear();
        ref.clear();
        ref_seq = 0;
        now = 0.0;
        ASSERT_TRUE(q.empty());
      }
    }
    while (!ref.empty()) pop();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(got, want) << "seed " << seed;
  }
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
