// micro-LP — dense-tableau vs revised-simplex shootout on the two LP shapes
// the repo actually solves: the HSSW interval-indexed lower-bound LP
// (online/lower_bound.hpp) and Whittle's occupation-measure relaxation
// (restless/relaxation.hpp). Both generators are the production builders, so
// the sparsity pattern, senses and conditioning are the real thing.
//
// Per row: both engines solve the identical instance (objective agreement is
// a verdict, not an assumption), then a rhs-perturbed resolve is run cold and
// warm-started from the first solve's optimal basis — the CRN-sweep pattern
// where consecutive replications share a constraint matrix. Large interval
// instances (n >= 192) are revised-only: the dense tableau is quadratic in
// rows + cols and exists below that scale purely as the auditable reference.
// The last row is F11's audited instance itself (online-bernoulli, horizon
// 48, first replication of seed 111), and us/iter is the revised engine's
// time per pivot on each row.
//
// Table-driven (not Google Benchmark) so the bench-smoke CI job can build and
// run it and bench_history.jsonl tracks lp_solves_per_sec across commits.
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "experiment/scenario.hpp"
#include "lp/revised_simplex.hpp"
#include "lp/simplex.hpp"
#include "online/lower_bound.hpp"
#include "online/model.hpp"
#include "restless/relaxation.hpp"
#include "restless/restless_project.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace stosched;

namespace {

/// Random unrelated-machine instance with the size/release mix of the F11
/// sweep, built directly (no arrival process needed for an LP benchmark).
lp::Problem interval_problem(std::size_t jobs, Rng& rng) {
  const std::size_t machines = 4, types = 3;
  std::vector<std::vector<double>> speed(machines,
                                         std::vector<double>(types));
  for (auto& row : speed)
    for (auto& s : row) s = rng.uniform(0.5, 2.0);
  const online::Environment env = online::unrelated_machines(std::move(speed));

  online::OnlineInstance inst(jobs);
  double t = 0.0;
  for (auto& job : inst) {
    t += rng.uniform(0.0, 0.5);
    job.release = t;
    job.type = rng.below(types);
    job.weight = rng.uniform(0.5, 2.0);
    job.size = rng.uniform(0.5, 2.0);
  }
  return online::interval_indexed_lp(inst, env);
}

/// Whittle-relaxation shape: J random dense projects of S states each.
lp::Problem whittle_problem(std::size_t projects, std::size_t states,
                            Rng& rng) {
  restless::RestlessInstance inst;
  inst.projects.reserve(projects);
  for (std::size_t j = 0; j < projects; ++j)
    inst.projects.push_back(restless::random_restless_project(states, rng));
  inst.activate = std::max<std::size_t>(1, projects / 4);
  return restless::relaxation_lp(inst);
}

/// F11's LP-audited cell: the interval LP of the first replication's
/// instance, drawn the way the online replication draws it.
lp::Problem f11_audited_problem() {
  experiment::OnlineScenario s =
      experiment::online_scenario("online-bernoulli");
  s.horizon = 48.0;
  s.bound.use_lp = true;
  const Rng root = Rng(111).stream(0);
  Rng arrival_rng = root.stream(0);
  Rng type_rng = root.stream(1);
  Rng size_rng = root.stream(2);
  Rng sample_rng = root.stream(3);
  const online::OnlineInstance inst = online::generate_online_instance(
      *s.arrival, s.types, s.horizon, arrival_rng, type_rng, size_rng,
      sample_rng);
  return online::interval_indexed_lp(inst, s.env, s.bound);
}

/// Mean per-solve milliseconds over `reps` identical solves.
template <class Fn>
double solve_ms(std::size_t reps, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < reps; ++r) fn();
  const double total = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  return total / static_cast<double>(reps);
}

struct Shape {
  std::string label;
  lp::Problem problem;
  bool run_dense;
};

}  // namespace

int main() {
  Table table("micro-LP: dense tableau vs revised simplex (per-solve ms)");
  table.columns({"instance", "rows", "cols", "dense-ms", "rev-ms", "us/iter",
                 "speedup", "cold-it", "warm-it"});

  Rng rng(2024);
  std::vector<Shape> shapes;
  const std::vector<std::size_t> both =
      bench::smoke() ? std::vector<std::size_t>{12, 24, 48}
                     : std::vector<std::size_t>{12, 24, 48, 96};
  const std::vector<std::size_t> revised_only =
      bench::smoke() ? std::vector<std::size_t>{96}
                     : std::vector<std::size_t>{192, 384};
  for (const std::size_t n : both)
    shapes.push_back(
        {"interval n=" + std::to_string(n), interval_problem(n, rng), true});
  for (const std::size_t n : revised_only)
    shapes.push_back(
        {"interval n=" + std::to_string(n), interval_problem(n, rng), false});
  for (const std::size_t j : bench::smoke() ? std::vector<std::size_t>{8, 16}
                                            : std::vector<std::size_t>{8, 16,
                                                                       32})
    shapes.push_back({"whittle J=" + std::to_string(j) + " S=8",
                      whittle_problem(j, 8, rng), true});
  shapes.push_back({"f11 audited h=48", f11_audited_problem(), false});

  bool objectives_agree = true;
  bool warm_cheaper = true;
  double largest_interval_speedup = 0.0;
  std::string largest_interval_label;
  for (Shape& shape : shapes) {
    const lp::Problem& p = shape.problem;
    const std::size_t cols = p.costs.size();
    const std::size_t rows = p.constraints.size();
    const std::size_t reps = cols > 2000 ? 1 : (cols > 500 ? 3 : 10);

    lp::Solution revised_sol;
    const double rev_ms =
        solve_ms(reps, [&] { revised_sol = lp::solve_revised(p); });
    if (!revised_sol.optimal()) {
      table.add_row({shape.label, std::to_string(rows), std::to_string(cols),
                     "-", "-", "-", "-", "-", "-"});
      objectives_agree = false;
      continue;
    }

    std::string dense_cell = "-", speedup_cell = "-";
    if (shape.run_dense) {
      lp::Solution dense_sol;
      const double dense_ms = solve_ms(
          reps, [&] { dense_sol = lp::solve(p, lp::Solver::kDense); });
      const double scale = 1.0 + std::abs(dense_sol.objective);
      objectives_agree =
          objectives_agree && dense_sol.optimal() &&
          std::abs(dense_sol.objective - revised_sol.objective) <=
              1e-6 * scale;
      const double speedup = rev_ms > 0.0 ? dense_ms / rev_ms : 0.0;
      dense_cell = fmt(dense_ms, 3);
      speedup_cell = fmt(speedup, 1);
      if (shape.label.rfind("interval", 0) == 0) {
        largest_interval_speedup = speedup;  // `both` is sorted ascending
        largest_interval_label = shape.label;
      }
    }

    // Warm start: re-solve after an independent per-row rhs drift (a uniform
    // scaling would leave the old basis exactly optimal — zero pivots), cold
    // vs from the optimal basis of the undrifted solve.
    lp::Basis basis;
    lp::solve_revised(p, basis);
    lp::Problem drifted = p;
    for (auto& c : drifted.constraints) c.rhs *= rng.uniform(0.97, 1.06);
    const lp::Solution cold = lp::solve_revised(drifted);
    const lp::Solution warm = lp::solve_revised(drifted, basis);
    const double wscale = 1.0 + std::abs(cold.objective);
    warm_cheaper = warm_cheaper && cold.optimal() && warm.optimal() &&
                   std::abs(warm.objective - cold.objective) <=
                       1e-6 * wscale &&
                   warm.iterations < cold.iterations;

    const double us_per_iter =
        revised_sol.iterations > 0
            ? 1e3 * rev_ms / static_cast<double>(revised_sol.iterations)
            : 0.0;
    table.add_row({shape.label, std::to_string(rows), std::to_string(cols),
                   dense_cell, fmt(rev_ms, 3), fmt(us_per_iter, 2),
                   speedup_cell,
                   std::to_string(cold.iterations),
                   std::to_string(warm.iterations)});
  }

  table.note("generators: production HSSW interval-indexed and Whittle "
             "occupation-measure builders (real sparsity patterns)");
  table.note("us/iter: revised rev-ms per pivot of that solve, in "
             "microseconds");
  table.note("warm-it: iterations to re-optimality after a per-row rhs "
             "drift, warm-started from the undrifted optimal basis (cold-it: "
             "same resolve from the all-slack basis)");
  table.verdict(objectives_agree,
                "dense and revised objectives agree within 1e-6 on every "
                "dual-engine instance");
  table.verdict(warm_cheaper,
                "warm-started resolve reaches the same optimum in strictly "
                "fewer iterations than cold on every instance");
  const double need = bench::smoke() ? 1.0 : 5.0;
  table.verdict(largest_interval_speedup >= need,
                "revised simplex >= " + fmt(need, 1) + "x dense on " +
                    largest_interval_label + " (measured " +
                    fmt(largest_interval_speedup, 1) + "x)");
  return bench::finish(table, {"none", 1.0});
}
