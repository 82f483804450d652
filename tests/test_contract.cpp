// test_contract.cpp — the compiled-out contract layer (util/contract.hpp).
//
// Split by what is unconditional vs build-dependent:
//   * the violation handler is compiled into every build type, so its
//     abort-with-diagnostic behavior is death-tested unconditionally;
//   * the macros themselves obey STOSCHED_CONTRACTS_ACTIVE, which this test
//     reads to assert BOTH sides of the policy — armed builds evaluate the
//     condition and die on violation, Release builds must not evaluate the
//     condition at all (the zero-cost rule is "no call, no branch", not
//     merely "no abort").
#include "util/contract.hpp"

#include <gtest/gtest.h>

#include "des/event_queue.hpp"
#include "des/fifo_arena.hpp"

namespace stosched {
namespace {

TEST(ContractHandlerTest, AbortsWithKindExprLocationAndMessage) {
  // Compiled in every build type; the macros are only the conditional part.
  EXPECT_DEATH(detail::contract_violation("invariant", "x == y", "file.cpp",
                                          42, "the message"),
               "invariant.*x == y.*file\\.cpp:42.*the message");
}

TEST(ContractMacrosTest, ConditionEvaluatedExactlyWhenArmed) {
  // The side-effect counter distinguishes "checked and passed" from
  // "compiled out": armed builds must evaluate each condition once, Release
  // builds exactly zero times.
  int evaluations = 0;
  [[maybe_unused]] auto pass = [&evaluations]() {
    ++evaluations;
    return true;
  };
  STOSCHED_EXPECTS(pass(), "passing precondition");
  STOSCHED_ENSURES(pass(), "passing postcondition");
  STOSCHED_INVARIANT(pass(), "passing invariant");
  EXPECT_EQ(evaluations, STOSCHED_CONTRACTS_ACTIVE ? 3 : 0);
}

TEST(ContractMacrosTest, ContractCodeRunsOnlyWhenArmed) {
  int runs = 0;
  STOSCHED_CONTRACT_CODE(++runs;);
  EXPECT_EQ(runs, STOSCHED_CONTRACTS_ACTIVE ? 1 : 0);
}

#if STOSCHED_CONTRACTS_ACTIVE

TEST(ContractMacrosTest, FailingContractAborts) {
  EXPECT_DEATH(STOSCHED_EXPECTS(1 + 1 == 3, "arithmetic broke"),
               "precondition.*arithmetic broke");
  EXPECT_DEATH(STOSCHED_ENSURES(false, "post failed"),
               "postcondition.*post failed");
  EXPECT_DEATH(STOSCHED_INVARIANT(false, "inv failed"),
               "invariant.*inv failed");
}

#endif  // STOSCHED_CONTRACTS_ACTIVE

// The pop-monotonicity and ring contracts must NOT fire on legitimate use:
// run each contract-carrying structure through a representative workload in
// whatever build configuration this test was compiled under. In armed
// builds this exercises the ghost-state bookkeeping; in Release it documents
// the workload stays valid.
TEST(ContractedStructuresTest, EventHeapLegitimateUseIsContractClean) {
  for (int round = 0; round < 3; ++round) {
    EventQueue q;  // each replication builds its own future-event set
    for (int i = 0; i < 100; ++i) q.push(double((i * 37) % 50), 0, 0, 0);
    double last = -1.0;
    while (!q.empty()) {
      const Event e = q.pop();
      EXPECT_GE(e.time, last);
      last = e.time;
    }
  }
}

TEST(ContractedStructuresTest, FifoArenaLegitimateUseIsContractClean) {
  FifoArena<int> fifo;
  for (int i = 0; i < 100; ++i) fifo.push_back(i);
  fifo.push_front(-1);  // preemptive-resume head re-entry path
  EXPECT_EQ(fifo.front(), -1);
  int expect = -1;
  while (!fifo.empty()) {
    EXPECT_EQ(fifo.front(), expect++);
    fifo.pop_front();
  }
}

}  // namespace
}  // namespace stosched
