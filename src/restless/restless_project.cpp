#include "restless/restless_project.hpp"

#include <cmath>

#include "util/check.hpp"

namespace stosched::restless {

namespace {

void check_stochastic(const std::vector<std::vector<double>>& p,
                      std::size_t n) {
  STOSCHED_REQUIRE(p.size() == n, "transition matrix shape mismatch");
  for (const auto& row : p) {
    STOSCHED_REQUIRE(row.size() == n, "transition matrix must be square");
    double total = 0.0;
    for (const double q : row) {
      STOSCHED_REQUIRE(q >= -1e-12, "negative transition probability");
      total += q;
    }
    STOSCHED_REQUIRE(std::abs(total - 1.0) < 1e-9,
                     "transition rows must sum to 1");
  }
}

// rng-audit: sink(row-major matrix fill: the generator family's shared
// draw-order contract)
std::vector<std::vector<double>> random_stochastic(std::size_t n, Rng& rng) {
  std::vector<std::vector<double>> p(n, std::vector<double>(n, 0.0));
  for (std::size_t s = 0; s < n; ++s) {
    double total = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      p[s][t] = rng.uniform_pos();
      total += p[s][t];
    }
    for (std::size_t t = 0; t < n; ++t) p[s][t] /= total;
    double partial = 0.0;
    for (std::size_t t = 0; t + 1 < n; ++t) partial += p[s][t];
    p[s][n - 1] = 1.0 - partial;
  }
  return p;
}

}  // namespace

void RestlessProject::validate() const {
  const std::size_t n = num_states();
  STOSCHED_REQUIRE(n >= 1, "project needs at least one state");
  STOSCHED_REQUIRE(reward_active.size() == n, "reward vector shape mismatch");
  check_stochastic(trans_passive, n);
  check_stochastic(trans_active, n);
}

// rng-audit: sink(instance generator: its sequential draw order IS the
// reproducibility contract, pinned by the golden tests)
RestlessProject random_restless_project(std::size_t states, Rng& rng) {
  STOSCHED_REQUIRE(states >= 1, "project needs at least one state");
  RestlessProject p;
  p.reward_passive.resize(states);
  p.reward_active.resize(states);
  for (std::size_t s = 0; s < states; ++s) {
    p.reward_passive[s] = rng.uniform(0.0, 0.3);
    p.reward_active[s] = rng.uniform(0.0, 1.0);
  }
  p.trans_passive = random_stochastic(states, rng);
  p.trans_active = random_stochastic(states, rng);
  return p;
}

void RestlessInstance::validate() const {
  STOSCHED_REQUIRE(!projects.empty(), "instance needs at least one project");
  STOSCHED_REQUIRE(activate >= 1 && activate <= projects.size(),
                   "must activate between 1 and N projects");
  for (const auto& p : projects) p.validate();
}

RestlessInstance symmetric_instance(const RestlessProject& proto,
                                    std::size_t copies,
                                    std::size_t activate) {
  RestlessInstance inst;
  inst.projects.assign(copies, proto);
  inst.activate = activate;
  inst.validate();
  return inst;
}

}  // namespace stosched::restless
