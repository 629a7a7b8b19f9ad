// E14 — convergence-adaptive trials: the same tail metrics at a fraction
// of the fixed budget.
//
// The question a fixed 50k-trial run never answers is whether 50k was
// needed. The adaptive controller (core/adaptive) answers it per run:
// fold decision blocks, stop when the monitored metrics' batch-means CIs
// close under target. This bench prices that answer against closed-form
// ground truth — the chain is a catmod catalogue with a known pure
// premium (sum rate_e * mean_e) and a known analytic occurrence VaR (the
// exceedance curve's inverse, catmod/analytic_ep), so "accuracy" is
// measured against the truth, not against the simulation itself:
//
//   fixed run      — the full budget, its measured mean / tail error vs
//                    the closed forms.
//   adaptive run   — same book, same table, stops itself; its trial count
//                    and the same measured errors on the stopping prefix.
//   stratified run — the variance-reduction companion: stratified mean
//                    estimation over event-frequency strata with Neyman
//                    reallocation, at exactly the adaptive run's budget,
//                    vs the uniform-sampling CI at that budget.
//
// Acceptance bars: adaptive trials <= 0.5x the fixed budget with measured
// occurrence-VaR error equal-or-better than the fixed run's (+1% of truth
// slack: both runs usually land on the same severity atom, and the prefix
// may not); stratified CI width < 1.0x the uniform-sampling width at equal
// budget. Emits BENCH_e14.json (trials_over_fixed_ratio and
// stratified_ci_width_ratio are the trajectory-gated keys).
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "catmod/analytic_ep.hpp"
#include "catmod/event_catalog.hpp"
#include "catmod/yelt_bridge.hpp"
#include "core/adaptive/stratified.hpp"
#include "core/aggregate_engine.hpp"
#include "data/elt.hpp"
#include "finance/contract.hpp"
#include "util/distributions.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"

using namespace riskan;

namespace {

struct Chain {
  catmod::EventCatalog catalog;
  data::EventLossTable elt;
  finance::Portfolio portfolio;
  double pure_premium = 0.0;
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

double sorted_quantile_of(const data::YearLossTable& ylt, double level) {
  std::vector<double> losses(ylt.losses().begin(), ylt.losses().end());
  std::sort(losses.begin(), losses.end());
  return quantile_sorted(losses, level);
}

double rel_err(double measured, double truth) {
  return std::abs(measured - truth) / truth;
}

}  // namespace

int main() {
  print_banner(std::cout, "E14: convergence-adaptive trials vs the fixed budget");

  const TrialId trials = bench::scaled_trials(50'000);
  constexpr double kTail = 0.90;

  const Chain chain = build_chain(1414);
  // Closed-form occurrence VaR at the tail level: the loss whose analytic
  // return period is 1 / (1 - tail).
  const Money true_occ_var =
      catmod::analytic_oep_loss_at(chain.catalog, chain.elt, 1.0 / (1.0 - kTail));

  catmod::CatalogYeltConfig yc;
  yc.trials = trials;
  yc.seed = 99;
  const auto yelt = catmod::simulate_yelt(chain.catalog, yc);

  core::EngineConfig fixed;
  fixed.kernel = core::Kernel::Scalar;  // this bench measures the scalar kernel
  fixed.backend = core::Backend::Sequential;
  fixed.secondary_uncertainty = false;
  fixed.compute_oep = true;
  fixed.keep_contract_ylts = false;
  const auto fixed_run = core::run_aggregate_analysis(chain.portfolio, yelt, fixed);

  core::EngineConfig adaptive = fixed;
  adaptive.adaptive.target_rel_err = 0.15;
  adaptive.adaptive.confidence = 0.90;
  adaptive.adaptive.tail_level = kTail;
  adaptive.adaptive.block_trials = std::max<TrialId>(250, trials / 40);
  adaptive.adaptive.min_trials = std::max<TrialId>(1'000, trials / 25);
  adaptive.adaptive.min_batches = 4;
  adaptive.adaptive.metrics = core::adaptive::kMean | core::adaptive::kVar |
                              core::adaptive::kTvar | core::adaptive::kOccVar;
  const auto adaptive_run = core::run_aggregate_analysis(chain.portfolio, yelt, adaptive);
  const TrialId adaptive_trials = adaptive_run.adaptive.trials_run;
  const double trials_ratio =
      static_cast<double>(adaptive_trials) / static_cast<double>(trials);

  // Measured errors vs the closed forms, for the full run and the prefix
  // the adaptive run actually paid for.
  const double fixed_mean_err = rel_err(fixed_run.portfolio_ylt.mean(), chain.pure_premium);
  const double adaptive_mean_err =
      rel_err(adaptive_run.portfolio_ylt.mean(), chain.pure_premium);
  const double fixed_tail_err =
      rel_err(sorted_quantile_of(fixed_run.portfolio_occurrence_ylt, kTail), true_occ_var);
  const double adaptive_tail_err = rel_err(
      sorted_quantile_of(adaptive_run.portfolio_occurrence_ylt, kTail), true_occ_var);

  // Stratified companion at exactly the adaptive budget: Neyman-allocated
  // event-frequency strata vs the uniform-sampling (SRS) interval a plain
  // subsample of the same size would report.
  core::adaptive::StratifiedConfig strat_config;
  strat_config.max_trials = adaptive_trials;
  strat_config.round_trials = std::max<TrialId>(256, adaptive_trials / 8);
  const auto stratified = core::adaptive::run_stratified_mean(chain.portfolio, yelt,
                                                              fixed, strat_config);
  OnlineStats population;
  for (const double loss : fixed_run.portfolio_ylt.losses()) {
    population.add(loss);
  }
  const double n = static_cast<double>(stratified.trials_sampled);
  const double fpc = 1.0 - n / static_cast<double>(trials);
  const double srs_half_width =
      normal_quantile(0.5 + strat_config.confidence / 2.0) *
      std::sqrt(fpc * population.sample_variance() / n);
  const double ci_width_ratio = stratified.half_width / srs_half_width;

  ReportTable table({"regime", "trials", "wall-clock", "mean err", "occ VaR err"});
  table.add_row({"fixed budget", std::to_string(trials), format_seconds(fixed_run.seconds),
                 format_fixed(100.0 * fixed_mean_err, 2) + "%",
                 format_fixed(100.0 * fixed_tail_err, 2) + "%"});
  table.add_row({"adaptive stop", std::to_string(adaptive_trials),
                 format_seconds(adaptive_run.seconds),
                 format_fixed(100.0 * adaptive_mean_err, 2) + "%",
                 format_fixed(100.0 * adaptive_tail_err, 2) + "%"});
  table.add_row({"stratified mean (same budget)", std::to_string(stratified.trials_sampled),
                 format_seconds(stratified.seconds),
                 format_fixed(100.0 * rel_err(stratified.mean, chain.pure_premium), 2) + "%",
                 "-"});
  bench::emit("e14_adaptive", table);

  std::cout << "\nadaptive: " << to_string(adaptive_run.adaptive.stop_reason) << " after "
            << adaptive_trials << "/" << trials << " trials ("
            << format_fixed(trials_ratio, 2) << "x the fixed budget), "
            << adaptive_run.adaptive.blocks_folded << " decision blocks of "
            << adaptive.adaptive.block_trials << "\nstratified CI half-width "
            << format_fixed(stratified.half_width, 1) << " vs uniform-sampling "
            << format_fixed(srs_half_width, 1) << " at the same budget ("
            << format_fixed(ci_width_ratio, 2) << "x)\n";

  const bool converged =
      adaptive_run.adaptive.stop_reason == core::adaptive::StopReason::Converged;
  const bool trials_ok = trials_ratio <= 0.5;
  // Equal-or-better tail accuracy with 1% of truth slack: both estimates
  // usually land on the same severity atom and the prefix may not.
  const bool accuracy_ok = adaptive_tail_err <= fixed_tail_err + 0.01;
  const bool stratified_ok = ci_width_ratio < 1.0;

  std::cout << "\n[E14 verdict] trials " << format_fixed(trials_ratio, 2) << "x "
            << (trials_ok ? "(meets the <=0.5x bar)" : "(ABOVE the <=0.5x bar)")
            << "; occ VaR error " << format_fixed(100.0 * adaptive_tail_err, 2)
            << "% vs fixed " << format_fixed(100.0 * fixed_tail_err, 2) << "% "
            << (accuracy_ok ? "(equal-or-better)" : "(WORSE than the fixed run)")
            << "; stratified CI " << format_fixed(ci_width_ratio, 2) << "x uniform "
            << (stratified_ok ? "(narrower)" : "(NOT narrower)") << "\n";

  bench::JsonReport json;
  json.set("experiment", std::string("e14_adaptive"));
  json.set("trials", static_cast<std::uint64_t>(trials));
  json.set("block_trials", static_cast<std::uint64_t>(adaptive.adaptive.block_trials));
  json.set("target_rel_err", adaptive.adaptive.target_rel_err);
  json.set("tail_level", kTail);
  json.set("adaptive_trials", static_cast<std::uint64_t>(adaptive_trials));
  json.set("trials_over_fixed_ratio", trials_ratio);
  json.set("stop_reason", std::string(to_string(adaptive_run.adaptive.stop_reason)));
  json.set("fixed_seconds", fixed_run.seconds);
  json.set("adaptive_seconds", adaptive_run.seconds);
  json.set("fixed_mean_rel_err", fixed_mean_err);
  json.set("adaptive_mean_rel_err", adaptive_mean_err);
  json.set("fixed_tail_rel_err", fixed_tail_err);
  json.set("adaptive_tail_rel_err", adaptive_tail_err);
  json.set("stratified_trials", static_cast<std::uint64_t>(stratified.trials_sampled));
  json.set("stratified_half_width", stratified.half_width);
  json.set("srs_half_width", srs_half_width);
  json.set("stratified_ci_width_ratio", ci_width_ratio);
  const std::string json_path = bench::artifact_path("BENCH_e14.json");
  json.write(json_path);
  std::cout << "\nwrote " << json_path << "\n";

  return converged && trials_ok && accuracy_ok && stratified_ok ? 0 : 2;
}
