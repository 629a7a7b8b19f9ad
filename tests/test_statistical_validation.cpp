// Statistical validation of the full chain against closed-form
// expectations: for an unlimited ground-up layer the engine's mean annual
// loss must equal the catalogue's pure premium  sum_e rate_e * mean_e,
// and secondary uncertainty must preserve that mean (beta sampling is
// mean-preserving; occurrence terms are the only nonlinearity and are
// disabled here).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "catmod/analytic_ep.hpp"
#include "catmod/event_catalog.hpp"
#include "catmod/yelt_bridge.hpp"
#include "core/aggregate_engine.hpp"
#include "data/elt.hpp"
#include "finance/contract.hpp"
#include "util/distributions.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"

namespace riskan {
namespace {

struct Chain {
  catmod::EventCatalog catalog;
  data::EventLossTable elt;
  finance::Portfolio portfolio;
  double pure_premium = 0.0;  // sum rate_e * mean_e
};

Chain build_chain(std::uint64_t seed) {
  catmod::CatalogConfig cc;
  cc.events = 600;
  cc.seed = seed;
  Chain chain{catmod::EventCatalog::generate(cc), {}, {}, 0.0};

  std::vector<data::EltRow> rows;
  Xoshiro256ss rng(seed + 1);
  for (EventId e = 0; e < 600; ++e) {
    const Money mean = sample_truncated_pareto(rng, 1.3, 1e4, 1e7);
    rows.push_back({e, mean, mean * 0.5, mean * 4.0});
    chain.pure_premium += chain.catalog.event(e).annual_rate * mean;
  }
  chain.elt = data::EventLossTable::from_rows(std::move(rows));

  finance::Layer ground_up;
  ground_up.id = 0;
  ground_up.terms.occ_retention = 0.0;
  ground_up.terms.occ_limit = 1e18;
  ground_up.terms.agg_limit = 1e18;
  chain.portfolio.add(finance::Contract(0, chain.elt, {ground_up}));
  return chain;
}

class ChainValidation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChainValidation, EngineMeanMatchesPurePremium) {
  const auto chain = build_chain(GetParam());

  catmod::CatalogYeltConfig yc;
  yc.trials = 30'000;
  yc.seed = GetParam() * 13 + 1;
  const auto yelt = catmod::simulate_yelt(chain.catalog, yc);

  core::EngineConfig config;
  config.secondary_uncertainty = false;
  config.compute_oep = false;
  config.keep_contract_ylts = false;
  const auto result = core::run_aggregate_analysis(chain.portfolio, yelt, config);

  // Monte Carlo error: the annual loss is a compound Poisson sum of
  // heavy-ish severities; 30k trials pin the mean to a few percent.
  EXPECT_NEAR(result.portfolio_ylt.mean() / chain.pure_premium, 1.0, 0.06)
      << "pure premium " << chain.pure_premium;
}

TEST_P(ChainValidation, SecondarySamplingPreservesTheMean) {
  const auto chain = build_chain(GetParam());
  catmod::CatalogYeltConfig yc;
  yc.trials = 30'000;
  yc.seed = GetParam() * 17 + 3;
  const auto yelt = catmod::simulate_yelt(chain.catalog, yc);

  core::EngineConfig off;
  off.secondary_uncertainty = false;
  off.compute_oep = false;
  off.keep_contract_ylts = false;
  core::EngineConfig on = off;
  on.secondary_uncertainty = true;

  const auto base = core::run_aggregate_analysis(chain.portfolio, yelt, off);
  const auto sampled = core::run_aggregate_analysis(chain.portfolio, yelt, on);

  // Without occurrence terms the beta draw is unbiased, so the means agree
  // up to sampling error (the sampled run has extra variance).
  EXPECT_NEAR(sampled.portfolio_ylt.mean() / base.portfolio_ylt.mean(), 1.0, 0.05);

  // The default run above takes the vector kernel wherever an ISA
  // dispatches. The scalar kernel on both host backends must reproduce it
  // to the bit, so the statistical property transfers to every kernel by
  // construction — and this asserts it really does at 30k-trial scale.
  for (const core::Backend backend : core::kAllBackends) {
    core::EngineConfig scalar = on;
    scalar.backend = backend;
    scalar.kernel = core::Kernel::Scalar;
    const auto ref = core::run_aggregate_analysis(chain.portfolio, yelt, scalar);
    ASSERT_EQ(ref.portfolio_ylt.trials(), sampled.portfolio_ylt.trials());
    for (TrialId t = 0; t < ref.portfolio_ylt.trials(); ++t) {
      ASSERT_EQ(ref.portfolio_ylt[t], sampled.portfolio_ylt[t])
          << core::to_string(backend) << " trial " << t;
    }
  }
}

TEST_P(ChainValidation, OccurrenceTermsOnlyEverReduce) {
  const auto chain = build_chain(GetParam());
  catmod::CatalogYeltConfig yc;
  yc.trials = 5'000;
  const auto yelt = catmod::simulate_yelt(chain.catalog, yc);

  // Same book with a retention: every trial's loss must weakly decrease.
  finance::Layer with_retention;
  with_retention.id = 0;
  with_retention.terms.occ_retention = 1e5;
  with_retention.terms.occ_limit = 1e18;
  with_retention.terms.agg_limit = 1e18;
  finance::Portfolio retained;
  retained.add(finance::Contract(0, chain.elt, {with_retention}));

  core::EngineConfig config;
  config.secondary_uncertainty = false;
  config.compute_oep = false;
  config.keep_contract_ylts = false;
  const auto gross = core::run_aggregate_analysis(chain.portfolio, yelt, config);
  const auto net = core::run_aggregate_analysis(retained, yelt, config);
  for (TrialId t = 0; t < yelt.trials(); ++t) {
    ASSERT_LE(net.portfolio_ylt[t], gross.portfolio_ylt[t] + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainValidation, ::testing::Values(101u, 202u, 303u));

TEST(ChainValidation, AnnualLossVarianceMatchesCompoundPoisson) {
  // Var of a compound Poisson sum = Lambda * E[X^2] under rate-weighted
  // severity X. Check the simulated variance against it (no terms, no
  // secondary).
  const auto chain = build_chain(404);

  double lambda = 0.0;
  double second_moment_rate = 0.0;  // sum rate_e * mean_e^2
  for (EventId e = 0; e < chain.catalog.size(); ++e) {
    lambda += chain.catalog.event(e).annual_rate;
    const auto row = chain.elt.row(chain.elt.find(e));
    second_moment_rate += chain.catalog.event(e).annual_rate * row.mean_loss * row.mean_loss;
  }

  catmod::CatalogYeltConfig yc;
  yc.trials = 60'000;
  yc.seed = 9;
  const auto yelt = catmod::simulate_yelt(chain.catalog, yc);
  core::EngineConfig config;
  config.secondary_uncertainty = false;
  config.compute_oep = false;
  config.keep_contract_ylts = false;
  const auto result = core::run_aggregate_analysis(chain.portfolio, yelt, config);

  OnlineStats stats;
  for (const double loss : result.portfolio_ylt.losses()) {
    stats.add(loss);
  }
  // Var = Lambda * E[X^2] = sum rate_e * mean_e^2 for the compound sum.
  EXPECT_NEAR(stats.variance() / second_moment_rate, 1.0, 0.20);
}

// ---------------------------------------------------------------------------
// Adaptive statistical acceptance — the CIs must mean what they claim
// ---------------------------------------------------------------------------
//
// The adaptive controller stops when its batch-means intervals close under
// target; these tests hold those intervals to their statistical promise
// against closed forms: the mean against the pure premium, the occurrence
// VaR against the analytic exceedance curve's inverse. Each repetition is
// a fixed seed, so the suite is deterministic — the binomial tolerance
// (coverage misses allowed across repetitions) prices the fact that a c%
// CI is ALLOWED to miss (1-c)% of the time, not flakiness.

core::adaptive::AdaptiveConfig acceptance_config() {
  core::adaptive::AdaptiveConfig ad;
  ad.target_rel_err = 0.15;
  ad.confidence = 0.90;
  ad.tail_level = 0.90;
  ad.block_trials = 500;
  ad.min_trials = 2'000;
  ad.min_batches = 4;
  ad.metrics = core::adaptive::kMean | core::adaptive::kVar | core::adaptive::kTvar |
               core::adaptive::kOccVar;
  return ad;
}

TEST(AdaptiveAcceptance, ReportedCisCoverTheClosedForms) {
  const auto chain = build_chain(515);
  // True occurrence VaR at tail level q = loss with analytic return period
  // 1 / (1 - q): the closed-form inverse of P(max occ loss > x).
  const double tail = acceptance_config().tail_level;
  const Money true_occ_var =
      catmod::analytic_oep_loss_at(chain.catalog, chain.elt, 1.0 / (1.0 - tail));
  ASSERT_GT(true_occ_var, 0.0);

  constexpr int kReps = 20;
  int mean_covered = 0;
  int occ_var_covered = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    catmod::CatalogYeltConfig yc;
    yc.trials = 16'000;
    yc.seed = 7'000 + static_cast<std::uint64_t>(rep) * 31;
    const auto yelt = catmod::simulate_yelt(chain.catalog, yc);

    core::EngineConfig config;
    config.backend = core::Backend::Sequential;
    config.secondary_uncertainty = false;
    config.compute_oep = true;
    config.keep_contract_ylts = false;
    config.adaptive = acceptance_config();
    const auto result = core::run_aggregate_analysis(chain.portfolio, yelt, config);
    ASSERT_TRUE(result.adaptive.enabled);

    const auto& mean = result.adaptive.estimate(core::adaptive::kMean);
    if (std::abs(mean.estimate - chain.pure_premium) <= mean.half_width) {
      ++mean_covered;
    }
    const auto& occ_var = result.adaptive.estimate(core::adaptive::kOccVar);
    if (std::abs(occ_var.estimate - true_occ_var) <= occ_var.half_width) {
      ++occ_var_covered;
    }
  }

  // 90% intervals over 20 repetitions: P(X <= 13 | p = 0.9) ~ 0.002, so
  // demanding 14 covers catches broken CIs without failing honest ones.
  // The occurrence VaR gets one extra miss of slack: the loss distribution
  // is atomic (600 event means, secondary off) while the analytic inverse
  // interpolates between atoms.
  EXPECT_GE(mean_covered, 14) << "mean CI coverage " << mean_covered << "/" << kReps;
  EXPECT_GE(occ_var_covered, 13)
      << "occ VaR CI coverage " << occ_var_covered << "/" << kReps;
}

TEST(AdaptiveAcceptance, StopsEarlyWithTailMetricsNearTheFullRun) {
  // The headline trade: a fraction of the trials, the same tail metrics.
  // Per seed, the adaptive stopping prefix's VaR/TVaR must sit within
  // twice the target relative error of the full fixed-budget run's, while
  // consuming at most 3/4 of the budget.
  const auto chain = build_chain(616);
  const double tail = acceptance_config().tail_level;
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    catmod::CatalogYeltConfig yc;
    yc.trials = 16'000;
    yc.seed = seed;
    const auto yelt = catmod::simulate_yelt(chain.catalog, yc);

    core::EngineConfig fixed;
    fixed.backend = core::Backend::Sequential;
    fixed.secondary_uncertainty = false;
    fixed.compute_oep = false;
    fixed.keep_contract_ylts = false;
    core::EngineConfig adaptive = fixed;
    adaptive.adaptive = acceptance_config();
    adaptive.adaptive.metrics =
        core::adaptive::kMean | core::adaptive::kVar | core::adaptive::kTvar;

    const auto full = core::run_aggregate_analysis(chain.portfolio, yelt, fixed);
    const auto early = core::run_aggregate_analysis(chain.portfolio, yelt, adaptive);

    ASSERT_EQ(early.adaptive.stop_reason, core::adaptive::StopReason::Converged)
        << "seed " << seed;
    EXPECT_LE(early.adaptive.trials_run, 12'000u) << "seed " << seed;

    std::vector<double> full_losses(full.portfolio_ylt.losses().begin(),
                                    full.portfolio_ylt.losses().end());
    std::vector<double> early_losses(early.portfolio_ylt.losses().begin(),
                                     early.portfolio_ylt.losses().end());
    std::sort(full_losses.begin(), full_losses.end());
    std::sort(early_losses.begin(), early_losses.end());

    const double tolerance = 2.0 * adaptive.adaptive.target_rel_err;
    EXPECT_NEAR(quantile_sorted(early_losses, tail) / quantile_sorted(full_losses, tail),
                1.0, tolerance)
        << "VaR drift at seed " << seed;
    EXPECT_NEAR(
        tail_mean_above(early_losses, tail) / tail_mean_above(full_losses, tail), 1.0,
        tolerance)
        << "TVaR drift at seed " << seed;
  }
}

}  // namespace
}  // namespace riskan
