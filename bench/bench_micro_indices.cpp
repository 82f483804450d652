// Micro: index computation costs — Gittins (three algorithms), Whittle,
// Klimov. These are the "easily computable" quantities the survey's
// policies hinge on; the benchmark quantifies "easily".
#include <benchmark/benchmark.h>

#include "bandit/gittins.hpp"
#include "bandit/project.hpp"
#include "queueing/klimov.hpp"
#include "restless/restless_project.hpp"
#include "restless/whittle.hpp"
#include "util/rng.hpp"

namespace {

void bm_gittins_largest_index(benchmark::State& state) {
  stosched::Rng rng(7);
  const auto p = stosched::bandit::random_project(
      static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(stosched::bandit::gittins_largest_index(p, 0.9));
}
BENCHMARK(bm_gittins_largest_index)->Arg(8)->Arg(16)->Arg(32);

void bm_gittins_restart(benchmark::State& state) {
  stosched::Rng rng(7);
  const auto p = stosched::bandit::random_project(
      static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(stosched::bandit::gittins_restart(p, 0.9));
}
BENCHMARK(bm_gittins_restart)->Arg(8)->Arg(16)->Arg(32);

void bm_gittins_calibration(benchmark::State& state) {
  stosched::Rng rng(7);
  const auto p = stosched::bandit::random_project(
      static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(stosched::bandit::gittins_calibration(p, 0.9));
}
BENCHMARK(bm_gittins_calibration)->Arg(8)->Arg(16)->Arg(32);

void bm_whittle_index(benchmark::State& state) {
  stosched::Rng rng(7);
  const auto p = stosched::restless::random_restless_project(
      static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(stosched::restless::whittle_index(p, 41, 1e-5));
}
BENCHMARK(bm_whittle_index)->Arg(3)->Arg(5);

void bm_klimov_indices(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  stosched::Rng rng(7);
  std::vector<double> means(n), costs(n);
  std::vector<std::vector<double>> feedback(n, std::vector<double>(n, 0.0));
  for (std::size_t j = 0; j < n; ++j) {
    means[j] = rng.uniform(0.2, 2.0);
    costs[j] = rng.uniform(0.5, 3.0);
    for (std::size_t k = 0; k < n; ++k)
      if (k != j) feedback[j][k] = 0.5 / n;
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(
        stosched::queueing::klimov_indices(means, feedback, costs));
}
BENCHMARK(bm_klimov_indices)->Arg(4)->Arg(8)->Arg(16);

}  // namespace
