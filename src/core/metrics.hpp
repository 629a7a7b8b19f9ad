// Portfolio risk metrics — what stage 2/3 report to "actuaries and decision
// makers ... internal risk management and reporting to regulators and
// rating agencies".
//
// From a YLT the paper derives "important portfolio risk metrics such as
// the Probable Maximum Loss (PML) [8] and the Tail Value at Risk (TVAR)
// [9]". We implement:
//   * VaR(p)            — the p-quantile of annual loss;
//   * TVaR(p)           — mean loss beyond VaR(p);
//   * PML(return period)— quantile at p = 1 - 1/rp, the industry's
//                         "1-in-250-year loss";
//   * exceedance-probability curves (AEP from the aggregate YLT, OEP from
//                         the occurrence YLT).
// Each metric reads a few order statistics, so it selects them on a copy
// of the losses (select_quantiles in util/stats) instead of sorting one.
// Coherence properties (TVaR >= VaR, monotonicity in p, positive
// homogeneity) are covered by property tests.
#pragma once

#include <span>
#include <vector>

#include "data/ylt.hpp"
#include "util/types.hpp"

namespace riskan::core {

/// Value at Risk: the p-quantile of the trial-loss sample (type-7
/// interpolation).
Money value_at_risk(const data::YearLossTable& ylt, double p);

/// Tail Value at Risk: mean of losses strictly beyond VaR(p); equals VaR(p)
/// when the tail is empty.
Money tail_value_at_risk(const data::YearLossTable& ylt, double p);

/// Probable Maximum Loss at a return period in years: PML(rp) =
/// VaR(1 - 1/rp). PML(250) is the regulatory staple.
Money probable_maximum_loss(const data::YearLossTable& ylt, double return_period_years);

/// One point of an exceedance-probability curve.
struct EpPoint {
  double return_period_years;
  double exceedance_probability;
  Money loss;
};

/// Exceedance-probability curve at the given return periods (sorted
/// ascending). Pass the aggregate YLT for AEP, the occurrence YLT for OEP.
std::vector<EpPoint> exceedance_curve(const data::YearLossTable& ylt,
                                      std::span<const double> return_periods);

/// The standard reporting grid: 2, 5, 10, 25, 50, 100, 250, 500, 1000 years.
std::vector<double> standard_return_periods();

/// Full metric bundle computed in one sort of the YLT: the mean and
/// standard deviation accumulate in sorted order, so the bundle keeps the
/// sort that the single metrics above replace by selection.
struct RiskSummary {
  Money mean_annual_loss = 0.0;
  Money stdev_annual_loss = 0.0;
  Money var_95 = 0.0;
  Money var_99 = 0.0;
  Money var_99_6 = 0.0;  ///< 1-in-250
  Money tvar_99 = 0.0;
  Money pml_100 = 0.0;
  Money pml_250 = 0.0;
  Money max_loss = 0.0;
};

RiskSummary summarise(const data::YearLossTable& ylt);

}  // namespace riskan::core
