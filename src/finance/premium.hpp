// Premium calculators — turning a layer's YLT into a price.
//
// This is the business case behind the paper's real-time claim: "A 1
// million trial aggregate simulation on a typical contract only takes 25
// seconds and can therefore support real-time pricing." Pricing a layer
// means simulating its YLT and loading the expected loss for volatility
// and capital; the RealTimePricer (src/core/pricer.hpp) wires the engine to
// these formulas.
#pragma once

#include <span>

#include "util/types.hpp"

namespace riskan::finance {

/// Inputs distilled from a simulated layer YLT.
struct LossStatistics {
  Money expected_loss = 0.0;
  Money loss_stdev = 0.0;
  Money tvar_99 = 0.0;  ///< tail value at risk at the 99th percentile
};

/// Pricing loadings.
struct PricingTerms {
  double expense_ratio = 0.10;      ///< brokerage + expenses, fraction of premium
  double volatility_load = 0.30;    ///< fraction of loss stdev charged
  double capital_load = 0.05;       ///< cost of capital on TVaR99
  double target_margin = 0.05;      ///< underwriting profit margin
};

/// Technical premium: (EL + vol·σ + cap·TVaR99) grossed up for expenses and
/// margin. The standard-deviation principle with a tail-capital add-on.
Money technical_premium(const LossStatistics& stats, const PricingTerms& terms);

/// Rate on line: premium / occurrence limit — the market's unit price of
/// catastrophe capacity.
double rate_on_line(Money premium, Money occ_limit);

/// The level LossStatistics::tvar_99 is read at.
inline constexpr double kTvarLevel = 0.99;

/// Computes LossStatistics from a simulated per-trial loss sample.
LossStatistics summarise_losses(std::span<const Money> trial_losses);

/// The same, for a caller that already holds `selected`: a copy of the
/// sample on which select_quantiles (util/stats) placed tail level
/// kTvarLevel, and from which the caller reads its own quantiles. The mean
/// and standard deviation still accumulate over `trial_losses` in trial
/// order.
LossStatistics summarise_losses(std::span<const Money> trial_losses,
                                std::span<const double> selected);

}  // namespace riskan::finance
