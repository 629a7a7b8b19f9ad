// Extension features: post-event analysis, multi-year DFA projection,
// bootstrap confidence intervals, and incremental warehouse maintenance.
#include <gtest/gtest.h>

#include <cmath>

#include "core/aggregate_engine.hpp"
#include "core/bootstrap.hpp"
#include "core/metrics.hpp"
#include "core/post_event.hpp"
#include "dfa/projection.hpp"
#include "util/prng.hpp"
#include "util/require.hpp"
#include "warehouse/cube.hpp"

namespace riskan {
namespace {

// ---------------------------------------------------------------------------
// Post-event analysis
// ---------------------------------------------------------------------------

finance::Portfolio post_event_portfolio() {
  // Contract 0 is exposed to events 1 and 2; contract 1 only to event 2.
  auto elt0 = data::EventLossTable::from_rows({
      {1, 100.0, 0.0, 100.0},
      {2, 300.0, 0.0, 300.0},
  });
  auto elt1 = data::EventLossTable::from_rows({{2, 500.0, 0.0, 500.0}});

  finance::Layer layer;
  layer.id = 0;
  layer.terms.occ_retention = 50.0;
  layer.terms.occ_limit = 200.0;
  layer.terms.agg_limit = 400.0;
  layer.terms.share = 1.0;

  finance::Portfolio portfolio;
  portfolio.add(finance::Contract(0, std::move(elt0), {layer}));
  portfolio.add(finance::Contract(1, std::move(elt1), {layer}));
  return portfolio;
}

TEST(PostEvent, OracleImpact) {
  const auto portfolio = post_event_portfolio();
  const core::PostEventAnalyzer analyzer(portfolio);

  // Event 2: contract 0 gu=300 -> occ=min(250,200)=200 (exhausts);
  //          contract 1 gu=500 -> occ=200 (exhausts).
  const auto impact = analyzer.analyse(2);
  EXPECT_EQ(impact.event, 2u);
  EXPECT_EQ(impact.contracts_hit, 2u);
  EXPECT_DOUBLE_EQ(impact.portfolio_ground_up, 800.0);
  EXPECT_DOUBLE_EQ(impact.portfolio_net, 400.0);
  EXPECT_EQ(impact.layers_attaching, 2u);
  EXPECT_EQ(impact.layers_exhausted, 2u);
  ASSERT_EQ(impact.layers.size(), 2u);
  EXPECT_DOUBLE_EQ(impact.layers[0].remaining_agg_capacity, 200.0);
}

TEST(PostEvent, EventBelowRetentionDoesNotAttach) {
  const auto portfolio = post_event_portfolio();
  const core::PostEventAnalyzer analyzer(portfolio);
  // Event 1 scaled down so gu = 40 < retention 50.
  const auto impact = analyzer.analyse(1, /*intensity_scale=*/0.4);
  EXPECT_EQ(impact.contracts_hit, 1u);
  EXPECT_DOUBLE_EQ(impact.portfolio_net, 0.0);
  EXPECT_EQ(impact.layers_attaching, 0u);
}

TEST(PostEvent, IntensityScaleIsMonotone) {
  const auto portfolio = post_event_portfolio();
  const core::PostEventAnalyzer analyzer(portfolio);
  double prev = -1.0;
  for (const double scale : {0.3, 0.6, 1.0, 1.5, 3.0}) {
    const auto impact = analyzer.analyse(2, scale);
    EXPECT_GE(impact.portfolio_net, prev);
    prev = impact.portfolio_net;
  }
}

TEST(PostEvent, PriorAnnualLossesConsumeCapacity) {
  const auto portfolio = post_event_portfolio();
  const core::PostEventAnalyzer analyzer(portfolio);
  // Contract 0 has already booked 350 of occurrence losses this year; its
  // 400 aggregate limit leaves only 50 net for event 2's 200 occurrence.
  const std::vector<Money> prior{350.0, 0.0};
  const auto impact = analyzer.analyse(2, 1.0, prior);
  ASSERT_EQ(impact.layers.size(), 2u);
  EXPECT_DOUBLE_EQ(impact.layers[0].net_loss, 50.0);
  EXPECT_DOUBLE_EQ(impact.layers[0].remaining_agg_capacity, 0.0);
  EXPECT_DOUBLE_EQ(impact.layers[1].net_loss, 200.0);  // contract 1 unaffected
}

TEST(PostEvent, WorstEventsRankByNetLoss) {
  const auto portfolio = post_event_portfolio();
  const core::PostEventAnalyzer analyzer(portfolio);
  const std::vector<EventId> candidates{1, 2, 99};
  const auto worst = analyzer.worst_events(candidates, 5);
  ASSERT_EQ(worst.size(), 2u);  // event 99 hits nothing
  EXPECT_EQ(worst[0].event, 2u);
  EXPECT_EQ(worst[1].event, 1u);
  EXPECT_GE(worst[0].portfolio_net, worst[1].portfolio_net);
}

TEST(PostEvent, Contracts) {
  const finance::Portfolio empty;
  EXPECT_THROW(core::PostEventAnalyzer{empty}, ContractViolation);
  const auto portfolio = post_event_portfolio();
  const core::PostEventAnalyzer analyzer(portfolio);
  EXPECT_THROW((void)analyzer.analyse(1, 0.0), ContractViolation);
  const std::vector<Money> wrong_size{1.0};
  EXPECT_THROW((void)analyzer.analyse(1, 1.0, wrong_size), ContractViolation);
}

// ---------------------------------------------------------------------------
// Multi-year projection
// ---------------------------------------------------------------------------

class ProjectionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // A cat YLT with a meaningful tail relative to the default balance
    // sheet: exponential with 120M mean.
    Xoshiro256ss rng(9);
    cat_ylt_ = data::YearLossTable(5'000, "cat");
    for (TrialId t = 0; t < 5'000; ++t) {
      cat_ylt_[t] = -std::log(to_unit_double_open(rng())) * 1.2e8;
    }
  }

  dfa::ProjectionConfig base_config() const {
    dfa::ProjectionConfig config;
    config.paths = 3'000;
    config.horizon_years = 5;
    return config;
  }

  data::YearLossTable cat_ylt_;
};

TEST_F(ProjectionFixture, RuinProbabilityIsCumulative) {
  dfa::MultiYearProjection projection(dfa::standard_risk_sources(1), base_config());
  const auto result = projection.run(cat_ylt_);
  ASSERT_EQ(result.ruin_probability_by_year.size(), 5u);
  for (std::size_t y = 1; y < 5; ++y) {
    EXPECT_GE(result.ruin_probability_by_year[y],
              result.ruin_probability_by_year[y - 1]);
  }
  EXPECT_DOUBLE_EQ(result.ruin_probability, result.ruin_probability_by_year.back());
  EXPECT_GE(result.ruin_probability, 0.0);
  EXPECT_LE(result.ruin_probability, 1.0);
}

TEST_F(ProjectionFixture, MoreCapitalMeansLessRuin) {
  auto thin = base_config();
  thin.initial_capital = 2.0e8;
  auto thick = base_config();
  thick.initial_capital = 4.0e9;
  dfa::MultiYearProjection weak(dfa::standard_risk_sources(1), thin);
  dfa::MultiYearProjection strong(dfa::standard_risk_sources(1), thick);
  const auto weak_result = weak.run(cat_ylt_);
  const auto strong_result = strong.run(cat_ylt_);
  EXPECT_GT(weak_result.ruin_probability, strong_result.ruin_probability);
}

TEST_F(ProjectionFixture, CapitalQuantilesAreOrdered) {
  dfa::MultiYearProjection projection(dfa::standard_risk_sources(2), base_config());
  const auto result = projection.run(cat_ylt_);
  ASSERT_EQ(result.capital_quantiles.size(), 5u);
  for (const auto& qs : result.capital_quantiles) {
    EXPECT_LE(qs[0], qs[1]);
    EXPECT_LE(qs[1], qs[2]);
  }
}

TEST_F(ProjectionFixture, DeterministicInSeed) {
  dfa::MultiYearProjection a(dfa::standard_risk_sources(3), base_config());
  dfa::MultiYearProjection b(dfa::standard_risk_sources(3), base_config());
  const auto ra = a.run(cat_ylt_);
  const auto rb = b.run(cat_ylt_);
  EXPECT_DOUBLE_EQ(ra.ruin_probability, rb.ruin_probability);
  EXPECT_DOUBLE_EQ(ra.mean_terminal_capital, rb.mean_terminal_capital);
}

TEST_F(ProjectionFixture, SurvivorsGrowUnderProfitableTerms) {
  // With a fat capital base and tiny cat book, capital should drift up.
  auto config = base_config();
  config.initial_capital = 5.0e9;
  data::YearLossTable tiny_cat(1'000, "tiny");
  for (TrialId t = 0; t < 1'000; ++t) {
    tiny_cat[t] = 1e6;
  }
  dfa::MultiYearProjection projection(dfa::standard_risk_sources(4), config);
  const auto result = projection.run(tiny_cat);
  EXPECT_LT(result.ruin_probability, 0.05);
  EXPECT_GT(result.mean_terminal_capital, config.initial_capital);
}

TEST(Projection, ContractsEnforced) {
  dfa::ProjectionConfig config;
  config.horizon_years = 0;
  EXPECT_THROW(dfa::MultiYearProjection(dfa::standard_risk_sources(5), config),
               ContractViolation);
  EXPECT_THROW(dfa::MultiYearProjection({}, dfa::ProjectionConfig{}), ContractViolation);
}

// ---------------------------------------------------------------------------
// Bootstrap confidence intervals
// ---------------------------------------------------------------------------

class BootstrapFixture : public ::testing::Test {
 protected:
  data::YearLossTable make_ylt(TrialId n, std::uint64_t seed = 3) {
    Xoshiro256ss rng(seed);
    data::YearLossTable ylt(n);
    for (TrialId t = 0; t < n; ++t) {
      ylt[t] = -std::log(to_unit_double_open(rng())) * 100.0;
    }
    return ylt;
  }
};

TEST_F(BootstrapFixture, IntervalBracketsPointEstimate) {
  const auto ylt = make_ylt(5'000);
  const auto ci = core::bootstrap_var(ylt, 0.99);
  EXPECT_LE(ci.lo, ci.hi);
  EXPECT_TRUE(ci.contains(ci.point));
  EXPECT_DOUBLE_EQ(ci.point, core::value_at_risk(ylt, 0.99));
  EXPECT_DOUBLE_EQ(ci.confidence, 0.90);
}

TEST_F(BootstrapFixture, WidthShrinksWithSampleSize) {
  const auto small = core::bootstrap_var(make_ylt(500), 0.99);
  const auto large = core::bootstrap_var(make_ylt(50'000), 0.99);
  EXPECT_LT(large.width(), small.width());
}

TEST_F(BootstrapFixture, TvarIntervalSitsAboveVarInterval) {
  const auto ylt = make_ylt(5'000);
  const auto var_ci = core::bootstrap_var(ylt, 0.99);
  const auto tvar_ci = core::bootstrap_tvar(ylt, 0.99);
  EXPECT_GE(tvar_ci.point, var_ci.point);
  EXPECT_GE(tvar_ci.hi, var_ci.hi);
}

TEST_F(BootstrapFixture, PmlIsVarAtReturnPeriod) {
  const auto ylt = make_ylt(10'000);
  const auto pml = core::bootstrap_pml(ylt, 250.0);
  const auto var = core::bootstrap_var(ylt, 1.0 - 1.0 / 250.0);
  EXPECT_DOUBLE_EQ(pml.point, var.point);
  EXPECT_DOUBLE_EQ(pml.lo, var.lo);
}

TEST_F(BootstrapFixture, DeterministicInSeed) {
  const auto ylt = make_ylt(2'000);
  const auto a = core::bootstrap_tvar(ylt, 0.95);
  const auto b = core::bootstrap_tvar(ylt, 0.95);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
  core::BootstrapConfig other;
  other.seed = 999;
  const auto c = core::bootstrap_tvar(ylt, 0.95, other);
  EXPECT_NE(a.lo, c.lo);  // different resamples
}

TEST_F(BootstrapFixture, WiderConfidenceWiderInterval) {
  const auto ylt = make_ylt(3'000);
  core::BootstrapConfig c90;
  c90.confidence = 0.90;
  core::BootstrapConfig c99;
  c99.confidence = 0.99;
  const auto narrow = core::bootstrap_var(ylt, 0.95, c90);
  const auto wide = core::bootstrap_var(ylt, 0.95, c99);
  EXPECT_GE(wide.width(), narrow.width());
}

TEST_F(BootstrapFixture, ContractsEnforced) {
  const data::YearLossTable empty;
  EXPECT_THROW((void)core::bootstrap_var(empty, 0.99), ContractViolation);
  const auto ylt = make_ylt(100);
  core::BootstrapConfig bad;
  bad.replicates = 2;
  EXPECT_THROW((void)core::bootstrap_var(ylt, 0.99, bad), ContractViolation);
  EXPECT_THROW((void)core::bootstrap_pml(ylt, 1.0), ContractViolation);
}

// ---------------------------------------------------------------------------
// Warehouse incremental maintenance
// ---------------------------------------------------------------------------

TEST(CubeIncremental, AddContractEqualsRebuild) {
  finance::PortfolioGenConfig pg;
  pg.contracts = 12;
  pg.catalog_events = 200;
  pg.elt_rows = 40;
  const auto all = finance::generate_portfolio(pg);
  data::YeltGenConfig yg;
  yg.trials = 300;
  const auto yelt = data::generate_yelt(200, yg);

  core::EngineConfig config;
  config.backend = core::Backend::Sequential;
  const auto result = core::run_aggregate_analysis(all, yelt, config);

  // Cube over the first 11 contracts, then add the 12th incrementally.
  finance::Portfolio partial;
  for (std::size_t c = 0; c + 1 < all.size(); ++c) {
    partial.add(all.contract(c));
  }
  core::EngineResult partial_result;
  partial_result.portfolio_ylt = data::YearLossTable(yelt.trials());
  for (std::size_t c = 0; c + 1 < all.size(); ++c) {
    partial_result.contract_ylts.push_back(result.contract_ylts[c]);
    partial_result.portfolio_ylt += result.contract_ylts[c];
  }
  warehouse::RiskCube incremental(partial, partial_result);
  incremental.add_contract(all.contract(all.size() - 1),
                           result.contract_ylts[all.size() - 1]);

  const warehouse::RiskCube rebuilt(all, result);
  const auto& a = incremental.total();
  const auto& b = rebuilt.total();
  ASSERT_EQ(a.contracts, b.contracts);
  for (TrialId t = 0; t < yelt.trials(); ++t) {
    ASSERT_NEAR(a.ylt[t], b.ylt[t], 1e-9);
  }
  EXPECT_NEAR(a.summary.tvar_99, b.summary.tvar_99, 1e-6);

  // Trial-count mismatch is rejected.
  EXPECT_THROW(incremental.add_contract(all.contract(0), data::YearLossTable(7)),
               ContractViolation);
}

}  // namespace
}  // namespace riskan
