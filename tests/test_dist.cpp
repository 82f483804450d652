// Tests for dist/: every law's sampled moments must match its closed-form
// moments (parameterized sweep), the documented hazard classes must agree
// with the moments, and the discrete-support accessor must round-trip.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "dist/distribution.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace stosched {
namespace {

/// Monotonicity of the hazard rate h(t) = f(t) / (1 - F(t)), as the
/// factory comments in distribution.hpp document it.
enum class Hazard { kConstant, kIncreasing, kDecreasing, kNonMonotone };

struct LawCase {
  std::string name;
  DistPtr dist;
  Hazard hazard;
  double from = 0.0;  ///< the hazard is monotone on [from, inf)
};

std::vector<LawCase> all_laws() {
  return {
      {"exp", exponential_dist(0.7), Hazard::kConstant},
      {"det", deterministic_dist(2.5), Hazard::kIncreasing},
      {"uniform", uniform_dist(1.0, 3.0), Hazard::kIncreasing},
      {"erlang", erlang_dist(3, 1.5), Hazard::kIncreasing},
      {"erlang1", erlang_dist(1, 2.0), Hazard::kConstant},
      {"hyperexp2_low", hyperexp2_dist(0.8, 1.5), Hazard::kDecreasing},
      {"hyperexp2", hyperexp2_dist(2.0, 4.0), Hazard::kDecreasing},
      {"twopoint", two_point_dist(1.0, 0.6, 5.0), Hazard::kNonMonotone},
      {"pareto_a5", pareto_dist(0.5, 5.0), Hazard::kDecreasing, 0.5},
      {"hyperexp2_scv1", hyperexp2_dist(1.5, 1.0), Hazard::kConstant},
      {"erlangmix", with_mean_scv(1.3, 0.4), Hazard::kIncreasing},
      {"pareto", pareto_dist(1.0, 3.0), Hazard::kDecreasing, 1.0},
      {"discrete", discrete_dist({1.0, 2.0, 4.0}, {0.2, 0.3, 0.5}),
       Hazard::kNonMonotone},
  };
}

class LawMoments : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LawMoments, SampleMeanMatchesAnalytic) {
  const auto laws = all_laws();
  const auto& law = laws[GetParam()];
  Rng rng(1234 + GetParam());
  RunningStat s;
  const int n = 400000;
  for (int i = 0; i < n; ++i) s.push(law.dist->sample(rng));
  const double mean = law.dist->mean();
  // 6-sigma tolerance on the Monte-Carlo error.
  const double tol =
      6.0 * std::sqrt(law.dist->variance() / n) + 1e-12;
  EXPECT_NEAR(s.mean(), mean, tol) << law.name;
}

TEST_P(LawMoments, SampleVarianceMatchesAnalytic) {
  const auto laws = all_laws();
  const auto& law = laws[GetParam()];
  Rng rng(987 + GetParam());
  RunningStat s;
  const int n = 400000;
  for (int i = 0; i < n; ++i) s.push(law.dist->sample(rng));
  const double var = law.dist->variance();
  EXPECT_NEAR(s.variance(), var, 0.05 * var + 1e-9) << law.name;
}

TEST_P(LawMoments, SecondMomentConsistent) {
  const auto laws = all_laws();
  const auto& law = laws[GetParam()];
  const double m = law.dist->mean();
  EXPECT_NEAR(law.dist->second_moment(), law.dist->variance() + m * m,
              1e-9 * (1.0 + law.dist->second_moment()))
      << law.name;
}

TEST_P(LawMoments, HazardClassAsDocumented) {
  // An IFR law has SCV <= 1 and a DFR law SCV >= 1 (Barlow-Proschan), so
  // the documented class must agree with the closed-form SCV of X - from;
  // a constant hazard is the exponential (SCV 1), and the laws documented
  // as neither are not memoryless.
  const auto laws = all_laws();
  const auto& law = laws[GetParam()];
  const double excess = law.dist->mean() - law.from;
  const double scv = law.dist->variance() / (excess * excess);
  switch (law.hazard) {
    case Hazard::kConstant:
      EXPECT_NEAR(scv, 1.0, 1e-12) << law.name;
      break;
    case Hazard::kIncreasing:
      EXPECT_LE(scv, 1.0) << law.name;
      break;
    case Hazard::kDecreasing:
      EXPECT_GE(scv, 1.0) << law.name;
      break;
    case Hazard::kNonMonotone:
      EXPECT_GT(std::abs(scv - 1.0), 0.1) << law.name;
      break;
  }
}

TEST_P(LawMoments, SamplesArePositive) {
  const auto laws = all_laws();
  const auto& law = laws[GetParam()];
  Rng rng(55 + GetParam());
  for (int i = 0; i < 10000; ++i) ASSERT_GT(law.dist->sample(rng), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllLaws, LawMoments,
                         ::testing::Range<std::size_t>(0, 13));

TEST(Distribution, ScvMatchesDefinition) {
  const auto d = hyperexp2_dist(2.0, 4.0);
  EXPECT_NEAR(d->scv(), 4.0, 1e-9);
  EXPECT_NEAR(exponential_dist(3.0)->scv(), 1.0, 1e-12);
  EXPECT_NEAR(deterministic_dist(5.0)->scv(), 0.0, 1e-12);
}

TEST(Distribution, ClosedFormScvForEveryFactoryLaw) {
  // scv() against hand-derived closed forms for all 8 factory laws.
  EXPECT_NEAR(exponential_dist(0.7)->scv(), 1.0, 1e-12);
  EXPECT_NEAR(deterministic_dist(2.5)->scv(), 0.0, 1e-12);
  // uniform(1,3): var (hi-lo)^2/12 = 1/3, mean 2.
  EXPECT_NEAR(uniform_dist(1.0, 3.0)->scv(), (1.0 / 3.0) / 4.0, 1e-12);
  EXPECT_NEAR(erlang_dist(3, 1.5)->scv(), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(hyperexp2_dist(3.0, 2.5)->scv(), 2.5, 1e-9);
  // two-point(1, .6, 5): mean 2.6, m2 10.6.
  EXPECT_NEAR(two_point_dist(1.0, 0.6, 5.0)->scv(),
              (10.6 - 6.76) / 6.76, 1e-9);
  // Pareto(alpha=3): mean 1.5 x_m, m2 = 3 x_m^2 => scv = 1/3.
  EXPECT_NEAR(pareto_dist(2.0, 3.0)->scv(), 1.0 / 3.0, 1e-9);
  // discrete {1,3} @ {.5,.5}: mean 2, m2 5, var 1.
  EXPECT_NEAR(discrete_dist({1.0, 3.0}, {0.5, 0.5})->scv(), 0.25, 1e-12);
}

TEST(Distribution, WithMeanScvHitsRequestedMomentsExactly) {
  // The two-moment fitter spans deterministic, Erlang-mixture, exponential
  // and hyperexponential regimes; mean and SCV must come back exactly.
  for (const double scv :
       {0.0, 0.15, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0, 1.7, 4.0, 16.0}) {
    const auto d = with_mean_scv(2.5, scv);
    EXPECT_NEAR(d->mean(), 2.5, 1e-9) << "scv " << scv;
    EXPECT_NEAR(d->scv(), scv, 1e-9) << "scv " << scv;
  }
}

TEST(Distribution, WithMeanScvSampledMomentsMatchTargets) {
  // The Erlang-mixture regime actually samples what it promises.
  const auto d = with_mean_scv(1.8, 0.4);
  Rng rng(321);
  RunningStat s;
  for (int i = 0; i < 400000; ++i) s.push(d->sample(rng));
  EXPECT_NEAR(s.mean(), 1.8, 0.01);
  EXPECT_NEAR(s.variance(), 0.4 * 1.8 * 1.8, 0.02);
}

TEST(Distribution, WithMeanScvRejectsBadArguments) {
  EXPECT_THROW(with_mean_scv(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(with_mean_scv(1.0, -0.1), std::invalid_argument);
  // 1/SCV Erlang stages would overflow `unsigned`.
  EXPECT_THROW(with_mean_scv(1.0, 1e-10), std::invalid_argument);
  // A million stages still fit and report the requested SCV.
  EXPECT_NEAR(with_mean_scv(1.0, 1e-6)->scv(), 1e-6, 1e-12);
}

TEST(Distribution, WithMeanScvBoundaryInputs) {
  // SCV exactly 1 must select the exponential law itself, not a degenerate
  // mixture or hyperexponential.
  const auto exp_fit = with_mean_scv(2.0, 1.0);
  EXPECT_EQ(exp_fit->flat().kind(), FlatSampler::Kind::kExponential);
  EXPECT_NEAR(exp_fit->mean(), 2.0, 1e-12);
  EXPECT_NEAR(exp_fit->scv(), 1.0, 1e-12);

  // At SCV = 1/k the Erlang-mixture weight vanishes (pure Erlang-k); a hair
  // below 1/k the fitter flips to the Erlang(k)/Erlang(k+1) mixture. Both
  // sides of every threshold must still report the requested moments
  // exactly — the radicand clamp is what this guards.
  for (unsigned k = 2; k <= 6; ++k) {
    const double at = 1.0 / static_cast<double>(k);
    for (const double scv : {at, at - 1e-12, at + 1e-12}) {
      const auto d = with_mean_scv(1.3, scv);
      EXPECT_NEAR(d->mean(), 1.3, 1e-9) << "k " << k << " scv " << scv;
      EXPECT_NEAR(d->scv(), scv, 1e-7) << "k " << k << " scv " << scv;
    }
  }

  // Tiny means must come back relatively exact in every regime.
  for (const double scv : {0.0, 0.3, 1.0, 4.0}) {
    const auto d = with_mean_scv(1e-12, scv);
    EXPECT_NEAR(d->mean(), 1e-12, 1e-21) << "scv " << scv;
    EXPECT_NEAR(d->scv(), scv, 1e-7) << "scv " << scv;
  }
}

TEST(Distribution, ScaledDistScalesTimeExactly) {
  const auto base = erlang_dist(3, 1.5);
  const auto d = scaled_dist(base, 2.0);
  EXPECT_NEAR(d->mean(), 2.0 * base->mean(), 1e-12);
  EXPECT_NEAR(d->variance(), 4.0 * base->variance(), 1e-12);
  EXPECT_NEAR(d->scv(), base->scv(), 1e-12);
  // Samples are the base draw times the factor (same substream).
  Rng a(9), b(9);
  for (int i = 0; i < 100; ++i)
    ASSERT_DOUBLE_EQ(d->sample(a), 2.0 * base->sample(b));
  // Finite supports scale too.
  std::vector<double> v, p;
  ASSERT_TRUE(discrete_support(*scaled_dist(two_point_dist(1.0, 0.5, 2.0), 3.0),
                               &v, &p));
  EXPECT_EQ(v, (std::vector<double>{3.0, 6.0}));
  EXPECT_THROW(scaled_dist(nullptr, 1.0), std::invalid_argument);
  EXPECT_THROW(scaled_dist(base, 0.0), std::invalid_argument);
}

TEST(Distribution, Hyperexp2HitsRequestedMoments) {
  const auto d = hyperexp2_dist(3.0, 2.5);
  EXPECT_NEAR(d->mean(), 3.0, 1e-9);
  EXPECT_NEAR(d->variance() / 9.0, 2.5, 1e-9);
}

TEST(Distribution, ErlangEqualsGammaMoments) {
  const auto d = erlang_dist(4, 2.0);
  EXPECT_DOUBLE_EQ(d->mean(), 2.0);
  EXPECT_DOUBLE_EQ(d->variance(), 1.0);
}

TEST(Distribution, ParetoInfiniteSecondMomentBelowAlpha2) {
  const auto d = pareto_dist(1.0, 1.5);
  EXPECT_TRUE(std::isinf(d->second_moment()));
  EXPECT_NEAR(d->mean(), 3.0, 1e-12);
}

TEST(Distribution, DiscreteSupportRoundTrip) {
  const auto d = discrete_dist({1.0, 3.0, 9.0}, {0.5, 0.25, 0.25});
  std::vector<double> v, p;
  ASSERT_TRUE(discrete_support(*d, &v, &p));
  EXPECT_EQ(v, (std::vector<double>{1.0, 3.0, 9.0}));
  EXPECT_EQ(p, (std::vector<double>{0.5, 0.25, 0.25}));
  EXPECT_FALSE(discrete_support(*exponential_dist(1.0), nullptr, nullptr));
}

TEST(Distribution, TwoPointIsDiscrete) {
  const auto d = two_point_dist(1.0, 0.75, 9.0);
  std::vector<double> v, p;
  ASSERT_TRUE(discrete_support(*d, &v, &p));
  EXPECT_EQ(v.size(), 2u);
  EXPECT_NEAR(d->mean(), 0.75 * 1.0 + 0.25 * 9.0, 1e-12);
}

TEST(Distribution, InvalidParametersThrow) {
  EXPECT_THROW(exponential_dist(0.0), std::invalid_argument);
  EXPECT_THROW(deterministic_dist(-1.0), std::invalid_argument);
  EXPECT_THROW(uniform_dist(3.0, 1.0), std::invalid_argument);
  EXPECT_THROW(erlang_dist(0, 1.0), std::invalid_argument);
  EXPECT_THROW(hyperexp2_dist(1.0, 0.5), std::invalid_argument);
  EXPECT_THROW(two_point_dist(2.0, 0.5, 1.0), std::invalid_argument);
  EXPECT_THROW(pareto_dist(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(discrete_dist({2.0, 1.0}, {0.5, 0.5}), std::invalid_argument);
  EXPECT_THROW(discrete_dist({1.0, 2.0}, {0.5, 0.6}), std::invalid_argument);
}

// ---- FlatSampler: the devirtualized hot-path sampler ----------------------

TEST_P(LawMoments, FlatSamplerIsBitIdenticalToVirtualSample) {
  // The contract simulators rely on to cache FlatSamplers: for EVERY law —
  // fast-path and virtual-fallback alike — the flat draw consumes the same
  // Rng primitives in the same order, so same-seed streams produce exactly
  // equal (bitwise, not approximately) sample paths.
  const auto laws = all_laws();
  const auto& law = laws[GetParam()];
  const FlatSampler flat = law.dist->flat();
  Rng virt_rng(911 + GetParam());
  Rng flat_rng(911 + GetParam());
  for (int i = 0; i < 1000; ++i) {
    const double expected = law.dist->sample(virt_rng);
    const double got = flat.sample(flat_rng);
    ASSERT_EQ(expected, got) << law.name << " draw " << i;
  }
  // And the streams themselves must be in the same state afterwards.
  EXPECT_EQ(virt_rng(), flat_rng());
}

TEST(FlatSampler, FastPathCoversTheCommonLawsOnly) {
  using Kind = FlatSampler::Kind;
  EXPECT_EQ(exponential_dist(0.7)->flat().kind(), Kind::kExponential);
  EXPECT_EQ(deterministic_dist(2.5)->flat().kind(), Kind::kDeterministic);
  EXPECT_EQ(uniform_dist(1.0, 3.0)->flat().kind(), Kind::kUniform);
  EXPECT_EQ(erlang_dist(3, 1.5)->flat().kind(), Kind::kErlang);
  // Everything else keeps the virtual fallback.
  EXPECT_EQ(hyperexp2_dist(2.0, 4.0)->flat().kind(), Kind::kVirtual);
  EXPECT_EQ(pareto_dist(1.0, 3.0)->flat().kind(), Kind::kVirtual);
  EXPECT_EQ(scaled_dist(exponential_dist(0.7), 2.0)->flat().kind(),
            Kind::kVirtual);
}

TEST(FlatSampler, DefaultIsInertPointMass) {
  FlatSampler s;
  Rng rng(5);
  const Rng before = rng;
  EXPECT_EQ(s.sample(rng), 0.0);
  EXPECT_EQ(rng(), Rng(before)());  // consumed no randomness
}

TEST(FlatSampler, GoldenDrawsPinTheSamplePaths) {
  // Golden first draws for the fast-path laws under Rng(2026), generated
  // once with %.17g. These pin the exact draw algorithms: any change to the
  // Rng primitives, the law implementations, or the FlatSampler cases shows
  // up here as a bitwise mismatch — the simulators' replay guarantee.
  struct Golden {
    FlatSampler sampler;
    double draws[3];
  };
  const Golden goldens[] = {
      {FlatSampler::exponential(0.7),
       {0.26937570493725943, 1.4553949809642446, 2.3971807561101972}},
      {FlatSampler::deterministic(2.5), {2.5, 2.5, 2.5}},
      {FlatSampler::uniform(1.0, 3.0),
       {2.6562966677395794, 1.722072805800021, 1.3734842855765779}},
      {FlatSampler::erlang(3, 1.5),
       {1.9235773396054603, 0.99819619398995629, 1.2289886586237107}},
  };
  for (const auto& g : goldens) {
    Rng rng(2026);
    for (const double expected : g.draws)
      ASSERT_EQ(g.sampler.sample(rng), expected);
  }
}

}  // namespace
}  // namespace stosched
