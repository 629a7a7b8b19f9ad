// Distribution sampler tests: moment checks against analytic values,
// inverse-CDF accuracy, and parameterised sweeps over parameter space.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "util/distributions.hpp"
#include "util/prng.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"

namespace riskan {
namespace {

constexpr int kSamples = 200'000;

template <typename Sampler>
OnlineStats collect(std::uint64_t seed, const Sampler& draw, int n = kSamples) {
  Xoshiro256ss rng(seed);
  OnlineStats stats;
  for (int i = 0; i < n; ++i) {
    stats.add(draw(rng));
  }
  return stats;
}

TEST(Uniform, MomentsMatch) {
  const auto stats =
      collect(1, [](auto& rng) { return sample_uniform(rng, 2.0, 6.0); });
  EXPECT_NEAR(stats.mean(), 4.0, 0.02);
  EXPECT_NEAR(stats.variance(), 16.0 / 12.0, 0.03);
  EXPECT_GE(stats.min(), 2.0);
  EXPECT_LT(stats.max(), 6.0);
}

TEST(SampleIndex, UniformOverRange) {
  Xoshiro256ss rng(2);
  std::vector<int> counts(10, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    ++counts[sample_index(rng, 10)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(SampleIndex, RejectsEmptyRange) {
  Xoshiro256ss rng(3);
  EXPECT_THROW((void)sample_index(rng, 0), ContractViolation);
}

TEST(Exponential, MomentsMatch) {
  const double lambda = 2.5;
  const auto stats =
      collect(4, [lambda](auto& rng) { return sample_exponential(rng, lambda); });
  EXPECT_NEAR(stats.mean(), 1.0 / lambda, 0.01);
  EXPECT_NEAR(stats.stdev(), 1.0 / lambda, 0.02);
  EXPECT_GT(stats.min(), 0.0);
}

class PoissonMoments : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMoments, MeanAndVarianceMatch) {
  const double mean = GetParam();
  const auto stats = collect(5, [mean](auto& rng) {
    return static_cast<double>(sample_poisson(rng, mean));
  });
  EXPECT_NEAR(stats.mean(), mean, std::max(0.02, mean * 0.02));
  EXPECT_NEAR(stats.variance(), mean, std::max(0.05, mean * 0.05));
}

INSTANTIATE_TEST_SUITE_P(SmallAndLargeMeans, PoissonMoments,
                         ::testing::Values(0.1, 0.5, 1.0, 4.0, 10.0, 15.9, 16.0, 25.0,
                                           100.0));

TEST(Poisson, ZeroMeanIsZero) {
  Xoshiro256ss rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sample_poisson(rng, 0.0), 0u);
  }
}

TEST(Normal, MomentsMatch) {
  const auto stats =
      collect(7, [](auto& rng) { return sample_normal(rng, 3.0, 2.0); });
  EXPECT_NEAR(stats.mean(), 3.0, 0.02);
  EXPECT_NEAR(stats.stdev(), 2.0, 0.02);
}

TEST(Normal, SymmetryAboutMean) {
  const auto stats =
      collect(8, [](auto& rng) { return sample_standard_normal(rng); });
  // Skewness proxy: mean of cubes should be ~0.
  Xoshiro256ss rng(8);
  double cube_sum = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double z = sample_standard_normal(rng);
    cube_sum += z * z * z;
  }
  EXPECT_NEAR(cube_sum / kSamples, 0.0, 0.05);
  EXPECT_NEAR(stats.mean(), 0.0, 0.01);
}

TEST(Lognormal, MomentsMatch) {
  const double mu = 0.5;
  const double sigma = 0.75;
  const auto stats =
      collect(9, [=](auto& rng) { return sample_lognormal(rng, mu, sigma); });
  const double expected_mean = std::exp(mu + 0.5 * sigma * sigma);
  EXPECT_NEAR(stats.mean() / expected_mean, 1.0, 0.02);
  EXPECT_GT(stats.min(), 0.0);
}

class GammaMoments : public ::testing::TestWithParam<double> {};

TEST_P(GammaMoments, ShapeMatchesMeanAndVariance) {
  const double shape = GetParam();
  const auto stats = collect(10, [shape](auto& rng) { return sample_gamma(rng, shape); });
  EXPECT_NEAR(stats.mean() / shape, 1.0, 0.03);
  EXPECT_NEAR(stats.variance() / shape, 1.0, 0.06);
  EXPECT_GT(stats.min(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(ShapesBelowAndAboveOne, GammaMoments,
                         ::testing::Values(0.3, 0.7, 1.0, 2.0, 5.0, 20.0));

TEST(BetaFromMoments, RecoversParameters) {
  double alpha = 0.0;
  double beta = 0.0;
  beta_from_moments(0.3, 0.1, alpha, beta);
  const double mean = alpha / (alpha + beta);
  const double s = alpha + beta;
  const double var = alpha * beta / (s * s * (s + 1.0));
  EXPECT_NEAR(mean, 0.3, 1e-9);
  EXPECT_NEAR(std::sqrt(var), 0.1, 1e-9);
}

TEST(BetaFromMoments, ClampsInfeasibleVariance) {
  double alpha = 0.0;
  double beta = 0.0;
  // stdev far beyond the feasible sqrt(mean*(1-mean)).
  beta_from_moments(0.5, 10.0, alpha, beta);
  EXPECT_GT(alpha, 0.0);
  EXPECT_GT(beta, 0.0);
}

TEST(BetaFromMoments, ZeroStdevDegenerates) {
  double alpha = 0.0;
  double beta = 0.0;
  beta_from_moments(0.25, 0.0, alpha, beta);
  EXPECT_NEAR(alpha / (alpha + beta), 0.25, 1e-6);
  EXPECT_GT(alpha + beta, 1e5);  // tight concentration
}

TEST(BetaFromMoments, RejectsBadMean) {
  double alpha = 0.0;
  double beta = 0.0;
  EXPECT_THROW(beta_from_moments(0.0, 0.1, alpha, beta), ContractViolation);
  EXPECT_THROW(beta_from_moments(1.0, 0.1, alpha, beta), ContractViolation);
}

class ParetoMoments : public ::testing::TestWithParam<double> {};

TEST_P(ParetoMoments, SupportAndTail) {
  const double alpha = GetParam();
  const double lo = 10.0;
  const double hi = 1000.0;
  const auto stats = collect(
      12, [=](auto& rng) { return sample_truncated_pareto(rng, alpha, lo, hi); });
  EXPECT_GE(stats.min(), lo);
  EXPECT_LE(stats.max(), hi);
  // CDF check at the median of the truncated distribution.
  Xoshiro256ss rng(13);
  int below_100 = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    if (sample_truncated_pareto(rng, alpha, lo, hi) <= 100.0) {
      ++below_100;
    }
  }
  const double lo_a = std::pow(lo, -alpha);
  const double hi_a = std::pow(hi, -alpha);
  const double expected_cdf = (lo_a - std::pow(100.0, -alpha)) / (lo_a - hi_a);
  EXPECT_NEAR(static_cast<double>(below_100) / n, expected_cdf, 0.01);
}

INSTANTIATE_TEST_SUITE_P(TailIndices, ParetoMoments, ::testing::Values(0.8, 1.1, 1.5, 2.5));

TEST(NormalInvCdf, RoundTripsThroughCdf) {
  for (const double p : {1e-9, 1e-6, 0.01, 0.02425, 0.3, 0.5, 0.7, 0.97575, 0.99,
                         1.0 - 1e-6}) {
    const double x = normal_inv_cdf(p);
    EXPECT_NEAR(normal_cdf(x), p, 1e-9) << "p=" << p;
  }
}

TEST(NormalInvCdf, KnownQuantiles) {
  EXPECT_NEAR(normal_inv_cdf(0.5), 0.0, 1e-12);
  EXPECT_NEAR(normal_inv_cdf(0.975), 1.959963984540054, 1e-8);
  EXPECT_NEAR(normal_inv_cdf(0.995), 2.5758293035489004, 1e-8);
  EXPECT_NEAR(normal_inv_cdf(0.025), -1.959963984540054, 1e-8);
}

TEST(NormalInvCdf, RejectsEndpoints) {
  EXPECT_THROW(normal_inv_cdf(0.0), ContractViolation);
  EXPECT_THROW(normal_inv_cdf(1.0), ContractViolation);
}

TEST(Contracts, NegativeParametersRejected) {
  Xoshiro256ss rng(14);
  EXPECT_THROW(sample_exponential(rng, -1.0), ContractViolation);
  EXPECT_THROW(sample_gamma(rng, 0.0), ContractViolation);
  EXPECT_THROW(sample_truncated_pareto(rng, 1.0, 5.0, 2.0), ContractViolation);
  EXPECT_THROW(sample_normal(rng, 0.0, -1.0), ContractViolation);
}

}  // namespace
}  // namespace riskan
