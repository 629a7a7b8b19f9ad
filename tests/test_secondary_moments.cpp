// The secondary sampler's Beta held to its moments.
//
// SecondarySampler draws Beta(α, β) losses on [0, exposure] with the lane
// math of util/lane_math.hpp. Each row here is an ELT row whose mean and
// sigma are a Beta's closed-form moments (exposure 1), over the shape
// classes the sampler distinguishes: both shapes ≥ 1, α < 1, β < 1 (each
// boosted by U^(1/shape)) and both < 1 (rejection-heavy). 200k draws per
// row through SecondarySampler::sample must match the closed-form mean and
// variance within 4 standard errors, the variance's error taken from the
// Beta's own fourth moment. Streams are keyed lo = i << 20, so no two
// draws share a Philox block. Part of the `statval` label.
#include <gtest/gtest.h>

#include <cmath>

#include "core/secondary.hpp"
#include "data/elt.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"

namespace riskan {
namespace {

constexpr int kDraws = 200'000;

struct BetaCase {
  double alpha;
  double beta;
};

class BetaMoments : public ::testing::TestWithParam<BetaCase> {};

TEST_P(BetaMoments, MomentsMatch) {
  const auto [alpha, beta] = GetParam();
  const double s = alpha + beta;
  const double mean = alpha / s;
  const double var = alpha * beta / (s * s * (s + 1.0));
  const double excess_kurtosis =
      6.0 * ((alpha - beta) * (alpha - beta) * (s + 1.0) - alpha * beta * (s + 2.0)) /
      (alpha * beta * (s + 2.0) * (s + 3.0));
  const double mu4 = (excess_kurtosis + 3.0) * var * var;

  const auto elt = data::EventLossTable::from_rows({{1, mean, std::sqrt(var), 1.0}});
  const core::SecondarySampler sampler(elt);
  const Philox4x32 engine(0x5EC0DA7Au);
  OnlineStats stats;
  for (int i = 0; i < kDraws; ++i) {
    PhiloxStream stream(engine, 0, static_cast<std::uint64_t>(i) << 20);
    stats.add(sampler.sample(0, stream));
  }

  const double n = kDraws;
  const double se_mean = std::sqrt(var / n);
  const double se_var = std::sqrt((mu4 - var * var * (n - 3.0) / (n - 1.0)) / n);
  EXPECT_NEAR(stats.mean(), mean, 4.0 * se_mean) << "alpha " << alpha << " beta " << beta;
  EXPECT_NEAR(stats.variance(), var, 4.0 * se_var) << "alpha " << alpha << " beta " << beta;
  EXPECT_GE(stats.min(), 0.0);
  EXPECT_LE(stats.max(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(ParameterSweep, BetaMoments,
                         ::testing::Values(BetaCase{2.0, 5.0}, BetaCase{0.5, 0.5},
                                           BetaCase{1.0, 1.0}, BetaCase{8.0, 2.0},
                                           BetaCase{0.8, 3.0}, BetaCase{3.0, 0.8}));

}  // namespace
}  // namespace riskan
