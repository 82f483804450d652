// Micro: discrete-event core — hold-model throughput of the future-event
// set (the 4-ary EventQueue) at sizes from 4 to 10^6, a ramp-up/drain profile
// matching multi-replication engine runs, and the random-variate dispatch
// ablation (virtual Distribution::sample vs the devirtualized FlatSampler
// switch) over a mixed pool of laws. The hold model (pop one, push one) is
// the classical FES benchmark.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "des/event_queue.hpp"
#include "dist/arrival.hpp"
#include "util/rng.hpp"

namespace {

void bm_hold_quad(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  stosched::EventQueue heap;
  stosched::Rng rng(42);
  for (std::size_t i = 0; i < size; ++i)
    heap.push(rng.uniform(0.0, 100.0), 0);
  for (auto _ : state) {
    const stosched::Event e = heap.pop();
    heap.push(e.time + rng.exponential(1.0), 0);
    benchmark::DoNotOptimize(heap.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// 4 and 8 are the resident FES sizes of the queueing simulators (about two
// events per class); the larger sizes are the classical hold-model sweep.
BENCHMARK(bm_hold_quad)
    ->Arg(4)
    ->Arg(8)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(16384)
    ->Arg(1000000);

// Ramp-up/drain: push N events, then pop all N — the transient profile of
// a replication's start and finish, where the hold model's steady size
// never goes. Items processed = one push + one pop.
void bm_ramp_drain_quad(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  stosched::EventQueue heap;
  stosched::Rng rng(42);
  for (auto _ : state) {
    for (std::size_t i = 0; i < size; ++i)
      heap.push(rng.uniform(0.0, 100.0), 0);
    while (!heap.empty()) benchmark::DoNotOptimize(heap.pop());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * size));
}

BENCHMARK(bm_ramp_drain_quad)->Arg(1024)->Arg(16384);

// Random-variate dispatch ablation over a mixed pool of arrival laws,
// drawn in per-law bursts (a simulator draining one class's epochs). The
// virtual side is the pre-flattening per-draw path: ArrivalProcess::next_gap
// (indirect) chaining into Distribution::sample (a second, dependent
// indirect call). The flat side is what the simulators now do — resolve the
// law once into a CachedGapSampler and draw through the register-resident
// tagged-POD switch. Draw sequences are bit-identical (same Rng primitives
// in the same order). The pool leans on cheap laws (deterministic, uniform)
// so dispatch structure — not variate math, which is identical on both
// sides — is what the ratio isolates; with log-heavy laws the transcendental
// work would drown it.
constexpr std::size_t kMixRun = 64;  ///< draws per law per pass

std::vector<stosched::ArrivalPtr> mixed_pool() {
  return {
      stosched::renewal_arrivals(stosched::deterministic_dist(1.0)),
      stosched::renewal_arrivals(stosched::deterministic_dist(1.5)),
      stosched::renewal_arrivals(stosched::uniform_dist(0.5, 1.5)),
      stosched::renewal_arrivals(stosched::deterministic_dist(2.0)),
      stosched::renewal_arrivals(stosched::deterministic_dist(0.5)),
      stosched::renewal_arrivals(stosched::uniform_dist(1.0, 3.0)),
  };
}

void bm_mixed_gap_virtual(benchmark::State& state) {
  const auto pool = mixed_pool();
  std::vector<double> out(kMixRun * pool.size());
  stosched::ArrivalState st;
  stosched::Rng rng(11);
  for (auto _ : state) {
    std::size_t k = 0;
    for (const auto& process : pool)
      for (std::size_t j = 0; j < kMixRun; ++j)
        out[k++] = process->next_gap(st, rng);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * out.size()));
}
BENCHMARK(bm_mixed_gap_virtual);

void bm_mixed_gap_flat(benchmark::State& state) {
  const auto pool = mixed_pool();
  std::vector<stosched::CachedGapSampler> gap;
  gap.reserve(pool.size());
  for (const auto& process : pool) gap.emplace_back(process.get());
  std::vector<double> out(kMixRun * pool.size());
  stosched::ArrivalState st;
  stosched::Rng rng(11);
  for (auto _ : state) {
    std::size_t k = 0;
    // By-value copy: the sampler is 40 bytes of POD, so the whole point of
    // the flat representation is that a draw loop holds it in registers.
    for (const stosched::CachedGapSampler sampler : gap)
      for (std::size_t j = 0; j < kMixRun; ++j)
        out[k++] = sampler.next_gap(st, rng);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * out.size()));
}
BENCHMARK(bm_mixed_gap_flat);

void bm_rng_uniform(benchmark::State& state) {
  stosched::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform());
}
BENCHMARK(bm_rng_uniform);

void bm_rng_exponential(benchmark::State& state) {
  stosched::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.exponential(1.0));
}
BENCHMARK(bm_rng_exponential);

}  // namespace
