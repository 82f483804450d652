// Micro: end-to-end simulator throughput — multiclass M/G/1 events per
// second under each discipline, and the Lu-Kumar network. Establishes the
// cost of one simulated time unit, which sizes every experiment above.
// Plus the engine's per-task cost: a fixed run of 1024 replications of a
// ~1 us and a ~1 ms body, at 1 thread and at one per processor.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <span>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "experiment/engine.hpp"
#include "queueing/mg1.hpp"
#include "queueing/network.hpp"
#include "util/rng.hpp"

namespace {

using namespace stosched;
using namespace stosched::queueing;

std::vector<ClassSpec> classes3() {
  return {{0.25, exponential_dist(1.0), 1.0},
          {0.2, erlang_dist(2, 3.0), 2.0},
          {0.15, hyperexp2_dist(1.2, 3.0), 0.5}};
}

void bm_mg1(benchmark::State& state, Discipline d) {
  const auto classes = classes3();
  SimOptions opt;
  opt.discipline = d;
  if (d != Discipline::kFcfs) opt.priority = {1, 0, 2};
  opt.horizon = static_cast<double>(state.range(0));
  opt.warmup = opt.horizon / 10.0;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(++seed);
    const auto res = simulate_mg1(classes, opt, rng);
    benchmark::DoNotOptimize(res.cost_rate);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void bm_mg1_fcfs(benchmark::State& s) { bm_mg1(s, Discipline::kFcfs); }
void bm_mg1_np(benchmark::State& s) {
  bm_mg1(s, Discipline::kPriorityNonPreemptive);
}
void bm_mg1_pr(benchmark::State& s) {
  bm_mg1(s, Discipline::kPriorityPreemptiveResume);
}
BENCHMARK(bm_mg1_fcfs)->Arg(10000);
BENCHMARK(bm_mg1_np)->Arg(10000);
BENCHMARK(bm_mg1_pr)->Arg(10000);

void bm_lu_kumar(benchmark::State& state) {
  const auto cfg = lu_kumar_network(1.0, 0.01, 2.0 / 3.0, 0.01, 2.0 / 3.0,
                                    /*bad_priority=*/false);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(++seed);
    const auto trace =
        simulate_network(cfg, static_cast<double>(state.range(0)), 10, rng);
    benchmark::DoNotOptimize(trace.mean_total);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_lu_kumar)->Arg(10000);

/// Fixed run of 1024 replications at state.range(0) threads, each drawing
/// state.range(1) uniforms (about 250 per microsecond).
void bm_engine_fixed(benchmark::State& state) {
#ifdef _OPENMP
  const int prev = omp_get_max_threads();
  omp_set_num_threads(static_cast<int>(state.range(0)));
#endif
  experiment::EngineOptions opt;
  opt.max_replications = 1024;
  const auto draws = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    ++opt.seed;
    const auto res = experiment::run(
        opt, 1, [&](std::size_t, Rng& rng, std::span<double> out) {
          double sum = 0.0;
          for (std::size_t i = 0; i < draws; ++i) sum += rng.uniform();
          out[0] = sum;
        });
    benchmark::DoNotOptimize(res.metrics[0].mean());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
#ifdef _OPENMP
  omp_set_num_threads(prev);
#endif
}

int processors() {
#ifdef _OPENMP
  return std::max(1, omp_get_num_procs());
#else
  return 1;
#endif
}

BENCHMARK(bm_engine_fixed)
    ->ArgNames({"threads", "draws"})
    ->ArgsProduct({{1, processors()}, {250, 250000}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
