#include "online/model.hpp"

#include <cmath>

#include "util/check.hpp"

namespace stosched::online {

void validate_types(const std::vector<JobType>& types) {
  STOSCHED_REQUIRE(!types.empty(), "online model needs at least one job type");
  double total = 0.0;
  for (const auto& t : types) {
    STOSCHED_REQUIRE(t.prob >= 0.0 && t.prob <= 1.0,
                     "type probability must lie in [0, 1]");
    STOSCHED_REQUIRE(t.weight > 0.0 && std::isfinite(t.weight),
                     "type weight must be positive and finite");
    STOSCHED_REQUIRE(t.size != nullptr, "type needs a size law");
    STOSCHED_REQUIRE(t.size->mean() > 0.0 && std::isfinite(t.size->mean()),
                     "type size law needs a positive finite mean");
    total += t.prob;
  }
  STOSCHED_REQUIRE(std::abs(total - 1.0) <= 1e-9,
                   "type probabilities must sum to 1");
}

double mean_size(const std::vector<JobType>& types) {
  double m = 0.0;
  for (const auto& t : types) m += t.prob * t.size->mean();
  return m;
}

void Environment::validate(std::size_t num_types) const {
  STOSCHED_REQUIRE(!speed.empty(), "environment needs at least one machine");
  for (const auto& row : speed) {
    STOSCHED_REQUIRE(row.size() == num_types,
                     "environment speed row must cover every job type");
    for (const double s : row)
      STOSCHED_REQUIRE(s > 0.0 && std::isfinite(s),
                       "machine speeds must be positive and finite");
  }
}

double Environment::mix_capacity(const std::vector<JobType>& types) const {
  double cap = 0.0;
  for (const auto& row : speed)
    for (std::size_t t = 0; t < types.size(); ++t)
      cap += types[t].prob * row[t];
  return cap;
}

Environment identical_machines(std::size_t m, std::size_t num_types) {
  STOSCHED_REQUIRE(m >= 1 && num_types >= 1,
                   "need at least one machine and one type");
  Environment env;
  env.speed.assign(m, std::vector<double>(num_types, 1.0));
  return env;
}

Environment unrelated_machines(std::vector<std::vector<double>> speed) {
  Environment env;
  env.speed = std::move(speed);
  STOSCHED_REQUIRE(!env.speed.empty(),
                   "environment needs at least one machine");
  env.validate(env.speed.front().size());
  return env;
}

// rng-audit: sink(workload generator: the type draw interleaves with the
// forwarded arrival/size/sample streams in release order by contract)
OnlineInstance generate_online_instance(const ArrivalProcess& arrival,
                                        const std::vector<JobType>& types,
                                        double horizon, Rng& arrival_rng,
                                        Rng& type_rng, Rng& size_rng,
                                        Rng& sample_rng) {
  validate_types(types);
  STOSCHED_REQUIRE(horizon > 0.0, "online horizon must be positive");
  std::vector<double> probs;
  probs.reserve(types.size());
  for (const auto& t : types) probs.push_back(t.prob);

  OnlineInstance inst;
  ArrivalState state;
  double now = 0.0;
  for (;;) {
    now += arrival.next_gap(state, arrival_rng);
    if (now >= horizon) break;
    OnlineJob job;
    job.release = now;
    job.type = type_rng.categorical(probs.data(), probs.size());
    job.weight = types[job.type].weight;
    job.size = types[job.type].size->sample(size_rng);
    job.sample = types[job.type].size->sample(sample_rng);
    inst.push_back(job);
  }
  return inst;
}

}  // namespace stosched::online
