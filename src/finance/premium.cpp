#include "finance/premium.hpp"

#include <cmath>
#include <vector>

#include "util/require.hpp"
#include "util/stats.hpp"

namespace riskan::finance {

Money technical_premium(const LossStatistics& stats, const PricingTerms& terms) {
  RISKAN_REQUIRE(terms.expense_ratio >= 0.0 && terms.expense_ratio < 1.0,
                 "expense ratio must lie in [0,1)");
  RISKAN_REQUIRE(terms.target_margin >= 0.0 && terms.target_margin < 1.0,
                 "target margin must lie in [0,1)");
  const Money risk_cost = stats.expected_loss + terms.volatility_load * stats.loss_stdev +
                          terms.capital_load * stats.tvar_99;
  return risk_cost / (1.0 - terms.expense_ratio - terms.target_margin);
}

double rate_on_line(Money premium, Money occ_limit) {
  RISKAN_REQUIRE(occ_limit > 0.0, "rate on line needs a positive limit");
  return premium / occ_limit;
}

LossStatistics summarise_losses(std::span<const Money> trial_losses) {
  RISKAN_REQUIRE(!trial_losses.empty(), "cannot summarise an empty loss sample");
  std::vector<double> selected(trial_losses.begin(), trial_losses.end());
  select_quantiles(selected, {}, kTvarLevel);
  return summarise_losses(trial_losses, selected);
}

LossStatistics summarise_losses(std::span<const Money> trial_losses,
                                std::span<const double> selected) {
  RISKAN_REQUIRE(!trial_losses.empty(), "cannot summarise an empty loss sample");
  RISKAN_REQUIRE(selected.size() == trial_losses.size(),
                 "the selected copy must hold the whole loss sample");
  OnlineStats stats;
  for (const Money loss : trial_losses) {
    stats.add(loss);
  }

  LossStatistics out;
  out.expected_loss = stats.mean();
  out.loss_stdev = std::sqrt(stats.sample_variance());
  out.tvar_99 = tail_mean_above(selected, kTvarLevel);
  return out;
}

}  // namespace riskan::finance
