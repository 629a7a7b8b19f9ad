// Risk metrics: closed-form oracles, coherence properties, EP curves,
// pricer and elasticity model.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/elasticity.hpp"
#include "core/metrics.hpp"
#include "core/pricer.hpp"
#include "util/prng.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"

namespace riskan::core {
namespace {

data::YearLossTable ramp_ylt(TrialId n) {
  data::YearLossTable ylt(n, "ramp");
  for (TrialId t = 0; t < n; ++t) {
    ylt[t] = static_cast<Money>(t);  // 0, 1, ..., n-1
  }
  return ylt;
}

/// The ramp in descending trial order: the metrics select, so trial order
/// must not matter.
data::YearLossTable reversed_ramp_ylt(TrialId n) {
  data::YearLossTable ylt(n, "reversed-ramp");
  for (TrialId t = 0; t < n; ++t) {
    ylt[t] = static_cast<Money>(n - 1 - t);
  }
  return ylt;
}

TEST(Metrics, VarOracleOnRamp) {
  for (const auto& ylt : {ramp_ylt(101), reversed_ramp_ylt(101)}) {  // losses 0..100
    EXPECT_DOUBLE_EQ(value_at_risk(ylt, 0.5), 50.0);
    EXPECT_DOUBLE_EQ(value_at_risk(ylt, 0.95), 95.0);
    EXPECT_DOUBLE_EQ(value_at_risk(ylt, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(value_at_risk(ylt, 1.0), 100.0);
  }
}

TEST(Metrics, TvarOracleOnRamp) {
  for (const auto& ylt : {ramp_ylt(101), reversed_ramp_ylt(101)}) {
    // VaR(0.9) = 90; tail {91..100} mean = 95.5.
    EXPECT_DOUBLE_EQ(tail_value_at_risk(ylt, 0.9), 95.5);
  }
}

TEST(Metrics, PmlIsQuantileAtReturnPeriod) {
  const auto ylt = ramp_ylt(1'001);  // 0..1000
  // PML(250y) = VaR(1 - 1/250) = VaR(0.996) = 996.
  EXPECT_DOUBLE_EQ(probable_maximum_loss(ylt, 250.0), 996.0);
  EXPECT_DOUBLE_EQ(probable_maximum_loss(ylt, 2.0), 500.0);
  EXPECT_THROW((void)probable_maximum_loss(ylt, 1.0), ContractViolation);
}

TEST(Metrics, TvarDominatesVarEverywhere) {
  Xoshiro256ss rng(1);
  data::YearLossTable ylt(5'000);
  for (TrialId t = 0; t < 5'000; ++t) {
    ylt[t] = std::pow(to_unit_double_open(rng()), -0.8);  // heavy tail
  }
  for (const double p : {0.5, 0.8, 0.9, 0.95, 0.99, 0.995}) {
    EXPECT_GE(tail_value_at_risk(ylt, p), value_at_risk(ylt, p)) << "p=" << p;
  }
}

class VarMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(VarMonotonicity, VarIncreasesWithLevel) {
  const auto ylt = ramp_ylt(500);
  const double p = GetParam();
  EXPECT_LE(value_at_risk(ylt, p), value_at_risk(ylt, std::min(1.0, p + 0.05)));
}

INSTANTIATE_TEST_SUITE_P(Levels, VarMonotonicity,
                         ::testing::Values(0.0, 0.3, 0.5, 0.8, 0.9, 0.94));

TEST(Metrics, PositiveHomogeneity) {
  auto ylt = ramp_ylt(300);
  const double var_before = value_at_risk(ylt, 0.9);
  const double tvar_before = tail_value_at_risk(ylt, 0.9);
  ylt *= 3.0;
  EXPECT_DOUBLE_EQ(value_at_risk(ylt, 0.9), 3.0 * var_before);
  EXPECT_DOUBLE_EQ(tail_value_at_risk(ylt, 0.9), 3.0 * tvar_before);
}

TEST(Metrics, TranslationInvarianceOfSpread) {
  // Adding a constant to every trial shifts VaR by that constant.
  auto ylt = ramp_ylt(300);
  const double var_before = value_at_risk(ylt, 0.9);
  data::YearLossTable shift(300);
  for (TrialId t = 0; t < 300; ++t) {
    shift[t] = 7.0;
  }
  ylt += shift;
  EXPECT_NEAR(value_at_risk(ylt, 0.9), var_before + 7.0, 1e-9);
}

TEST(Metrics, ExceedanceCurveShape) {
  const auto ylt = ramp_ylt(10'000);
  const auto rps = standard_return_periods();
  const auto curve = exceedance_curve(ylt, rps);
  ASSERT_EQ(curve.size(), rps.size());
  for (std::size_t i = 0; i < curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(curve[i].return_period_years, rps[i]);
    EXPECT_NEAR(curve[i].exceedance_probability * rps[i], 1.0, 1e-12);
    if (i > 0) {
      EXPECT_GE(curve[i].loss, curve[i - 1].loss);  // longer RP, bigger loss
    }
  }
  // 1-in-2 on the ramp = median.
  EXPECT_NEAR(curve[0].loss, 4999.5, 1.0);
  const auto reversed = exceedance_curve(reversed_ramp_ylt(10'000), rps);
  for (std::size_t i = 0; i < curve.size(); ++i) {
    EXPECT_EQ(reversed[i].loss, curve[i].loss);
  }
}

// Tiny local helper so the fixture below reads clearly.
double sample_exponentialish(Xoshiro256ss& rng) {
  return -std::log(to_unit_double_open(rng())) * 100.0;
}

TEST(Metrics, SummaryIsInternallyConsistent) {
  Xoshiro256ss rng(2);
  data::YearLossTable ylt(20'000);
  for (TrialId t = 0; t < 20'000; ++t) {
    ylt[t] = sample_exponentialish(rng);
  }
  const auto s = summarise(ylt);
  EXPECT_GT(s.mean_annual_loss, 0.0);
  EXPECT_GT(s.stdev_annual_loss, 0.0);
  EXPECT_LE(s.var_95, s.var_99);
  EXPECT_LE(s.var_99, s.var_99_6);
  EXPECT_GE(s.tvar_99, s.var_99);
  EXPECT_DOUBLE_EQ(s.pml_250, s.var_99_6);
  EXPECT_LE(s.pml_100, s.pml_250);
  EXPECT_GE(s.max_loss, s.var_99_6);
}

TEST(Metrics, EmptyAndBadInputsRejected) {
  const data::YearLossTable empty;
  EXPECT_THROW((void)value_at_risk(empty, 0.5), ContractViolation);
  EXPECT_THROW((void)tail_value_at_risk(empty, 0.5), ContractViolation);
  EXPECT_THROW((void)summarise(empty), ContractViolation);
  const auto ylt = ramp_ylt(10);
  const std::vector<double> bad_rp{0.5};
  EXPECT_THROW((void)exceedance_curve(ylt, bad_rp), ContractViolation);
}

TEST(Pricer, QuoteIsInternallyConsistent) {
  finance::PortfolioGenConfig pg;
  pg.contracts = 1;
  pg.catalog_events = 400;
  pg.elt_rows = 150;
  const auto portfolio = finance::generate_portfolio(pg);
  data::YeltGenConfig yg;
  yg.trials = 5'000;
  const auto yelt = data::generate_yelt(400, yg);

  EngineConfig config;
  config.backend = Backend::Sequential;
  const RealTimePricer pricer(yelt, config);
  const auto quote = pricer.price(portfolio.contract(0), portfolio.contract(0).layers()[0]);

  EXPECT_EQ(quote.trials, 5'000u);
  EXPECT_GT(quote.loss_stats.expected_loss, 0.0);
  EXPECT_GE(quote.loss_stats.tvar_99, quote.loss_stats.expected_loss);
  EXPECT_GT(quote.technical_premium, quote.loss_stats.expected_loss);
  EXPECT_GT(quote.rate_on_line, 0.0);
  // Premium per unit of limit stays within an order of magnitude of the
  // limit itself (the generated layer is a deliberately hot working layer,
  // so RoL may exceed the ~0.2 typical of real cat programmes).
  EXPECT_LT(quote.rate_on_line, 10.0);
  EXPECT_DOUBLE_EQ(
      quote.rate_on_line,
      quote.technical_premium / portfolio.contract(0).layers()[0].terms.occ_limit);
  EXPECT_GT(quote.seconds, 0.0);
}

TEST(Pricer, SameYeltSameQuote) {
  finance::PortfolioGenConfig pg;
  pg.contracts = 1;
  pg.catalog_events = 200;
  pg.elt_rows = 50;
  const auto portfolio = finance::generate_portfolio(pg);
  data::YeltGenConfig yg;
  yg.trials = 1'000;
  const auto yelt = data::generate_yelt(200, yg);
  const RealTimePricer pricer(yelt);
  const auto a = pricer.price(portfolio.contract(0), portfolio.contract(0).layers()[0]);
  const auto b = pricer.price(portfolio.contract(0), portfolio.contract(0).layers()[0]);
  EXPECT_DOUBLE_EQ(a.technical_premium, b.technical_premium);
  EXPECT_DOUBLE_EQ(a.pml_250, b.pml_250);
}

TEST(Pricer, QuoteEqualsTheSortBasedQuoteAtFourAttachments) {
  // The quote selects its order statistics; the reference sorts a copy,
  // as quotes were computed before. Higher attachments leave more trials
  // at zero (the zero-heavy samples selection must get right).
  finance::PortfolioGenConfig pg;
  pg.contracts = 1;
  pg.catalog_events = 2'000;
  pg.elt_rows = 400;
  const auto portfolio = finance::generate_portfolio(pg);
  data::YeltGenConfig yg;
  yg.trials = 20'000;
  const auto yelt = data::generate_yelt(2'000, yg);
  const auto& contract = portfolio.contract(0);
  const finance::PricingTerms terms;
  const RealTimePricer pricer(yelt, EngineConfig{}, terms);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

  for (const double factor : {0.5, 1.0, 2.0, 4.0}) {
    finance::Layer layer = contract.layers()[0];
    layer.terms.occ_retention *= factor;
    const auto quote = pricer.price(contract, layer);

    const auto losses = run_layer(contract, layer, yelt, EngineConfig{});
    OnlineStats stats;
    for (const Money loss : losses) {
      stats.add(loss);
    }
    std::vector<double> sorted(losses.begin(), losses.end());
    std::sort(sorted.begin(), sorted.end());
    finance::LossStatistics expect;
    expect.expected_loss = stats.mean();
    expect.loss_stdev = std::sqrt(stats.sample_variance());
    expect.tvar_99 = tail_mean_above(sorted, 0.99);
    const Money premium = finance::technical_premium(expect, terms);

    EXPECT_EQ(bits(quote.loss_stats.expected_loss), bits(expect.expected_loss)) << factor;
    EXPECT_EQ(bits(quote.loss_stats.loss_stdev), bits(expect.loss_stdev)) << factor;
    EXPECT_EQ(bits(quote.loss_stats.tvar_99), bits(expect.tvar_99)) << factor;
    EXPECT_EQ(bits(quote.technical_premium), bits(premium)) << factor;
    EXPECT_EQ(bits(quote.rate_on_line),
              bits(finance::rate_on_line(premium, layer.terms.occ_limit)))
        << factor;
    EXPECT_EQ(bits(quote.pml_250), bits(quantile_sorted(sorted, 1.0 - 1.0 / 250.0)))
        << factor;
    EXPECT_EQ(quote.trials, yelt.trials());
  }
}

TEST(Elasticity, ProcessorsScaleWithWorkAndDeadline) {
  StageDemand demand;
  demand.stage = "test";
  demand.work_units = 1e9;
  demand.units_per_core_second = 1e6;
  demand.deadline_seconds = 100.0;
  demand.parallel_efficiency = 1.0;
  const auto req = processors_required(demand);
  EXPECT_DOUBLE_EQ(req.core_seconds, 1000.0);
  EXPECT_DOUBLE_EQ(req.processors, 10.0);

  demand.deadline_seconds = 10.0;
  EXPECT_DOUBLE_EQ(processors_required(demand).processors, 100.0);
  demand.parallel_efficiency = 0.5;
  EXPECT_DOUBLE_EQ(processors_required(demand).processors, 200.0);
}

TEST(Elasticity, AtLeastOneProcessor) {
  StageDemand demand;
  demand.work_units = 1.0;
  demand.units_per_core_second = 1e9;
  demand.deadline_seconds = 1e6;
  EXPECT_DOUBLE_EQ(processors_required(demand).processors, 1.0);
}

TEST(Elasticity, PaperScenarioShowsBurstShape) {
  // Throughputs of this host's order; the paper's qualitative claim must
  // hold after derating: stage 1 under ten processors on its weekly
  // cadence, interactive stage 2/3 in the thousands.
  MeasuredThroughput measured;
  measured.stage1_pairs_per_sec = 35e6;
  measured.stage2_occurrences_per_sec = 14e6;
  measured.stage3_evals_per_sec = 8e6;
  const auto rows = paper_scenario(measured);
  ASSERT_EQ(rows.size(), 6u);

  EXPECT_LT(rows[0].processors, 10.0);  // "less than ten processors"
  // The interactive stage-2 roll-up (row 2) needs thousands.
  EXPECT_GT(rows[2].processors, 1'000.0);
  // Interactive DFA (last row) needs thousands too.
  EXPECT_GT(rows.back().processors, 1'000.0);
  for (const auto& row : rows) {
    EXPECT_GE(row.processors, 1.0);
  }
}

TEST(Elasticity, DeratingMonotone) {
  MeasuredThroughput measured;
  measured.stage1_pairs_per_sec = 35e6;
  measured.stage2_occurrences_per_sec = 14e6;
  measured.stage3_evals_per_sec = 8e6;
  Derating mild;
  mild.core_2012 = 1.0;
  mild.stage2_complexity = 1.0;
  Derating harsh;
  harsh.core_2012 = 10.0;
  harsh.stage2_complexity = 20.0;
  const auto a = paper_scenario(measured, mild);
  const auto b = paper_scenario(measured, harsh);
  EXPECT_LE(a[2].processors, b[2].processors);
  MeasuredThroughput zero;
  EXPECT_THROW((void)paper_scenario(zero), ContractViolation);
}

TEST(Elasticity, RejectsBadInputs) {
  StageDemand demand;
  demand.units_per_core_second = 0.0;
  demand.deadline_seconds = 1.0;
  EXPECT_THROW((void)processors_required(demand), ContractViolation);
  demand.units_per_core_second = 1.0;
  demand.deadline_seconds = 0.0;
  EXPECT_THROW((void)processors_required(demand), ContractViolation);
}

}  // namespace
}  // namespace riskan::core
