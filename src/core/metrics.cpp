#include "core/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"
#include "util/stats.hpp"

namespace riskan::core {

namespace {

/// A scratch copy of the losses for select_quantiles.
std::vector<double> loss_copy(const data::YearLossTable& ylt) {
  const auto losses = ylt.losses();
  return {losses.begin(), losses.end()};
}

}  // namespace

Money value_at_risk(const data::YearLossTable& ylt, double p) {
  RISKAN_REQUIRE(!ylt.empty(), "VaR of an empty YLT");
  return quantile(ylt.losses(), p);
}

Money tail_value_at_risk(const data::YearLossTable& ylt, double p) {
  RISKAN_REQUIRE(!ylt.empty(), "TVaR of an empty YLT");
  auto selected = loss_copy(ylt);
  select_quantiles(selected, {}, p);
  return tail_mean_above(selected, p);
}

Money probable_maximum_loss(const data::YearLossTable& ylt, double return_period_years) {
  RISKAN_REQUIRE(return_period_years > 1.0, "PML needs a return period above 1 year");
  return value_at_risk(ylt, 1.0 - 1.0 / return_period_years);
}

std::vector<EpPoint> exceedance_curve(const data::YearLossTable& ylt,
                                      std::span<const double> return_periods) {
  RISKAN_REQUIRE(!ylt.empty(), "EP curve of an empty YLT");
  std::vector<double> levels;
  levels.reserve(return_periods.size());
  for (const double rp : return_periods) {
    RISKAN_REQUIRE(rp > 1.0, "return periods must exceed 1 year");
    levels.push_back(1.0 - 1.0 / rp);
  }
  auto selected = loss_copy(ylt);
  select_quantiles(selected, levels);

  std::vector<EpPoint> curve;
  curve.reserve(return_periods.size());
  for (std::size_t i = 0; i < return_periods.size(); ++i) {
    EpPoint point;
    point.return_period_years = return_periods[i];
    point.exceedance_probability = 1.0 / return_periods[i];
    point.loss = quantile_sorted(selected, levels[i]);
    curve.push_back(point);
  }
  return curve;
}

std::vector<double> standard_return_periods() {
  return {2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0};
}

RiskSummary summarise(const data::YearLossTable& ylt) {
  RISKAN_REQUIRE(!ylt.empty(), "summary of an empty YLT");
  auto sorted = loss_copy(ylt);
  std::sort(sorted.begin(), sorted.end());
  OnlineStats stats;
  for (const double loss : sorted) {
    stats.add(loss);
  }

  RiskSummary out;
  out.mean_annual_loss = stats.mean();
  out.stdev_annual_loss = std::sqrt(stats.sample_variance());
  out.var_95 = quantile_sorted(sorted, 0.95);
  out.var_99 = quantile_sorted(sorted, 0.99);
  out.var_99_6 = quantile_sorted(sorted, 1.0 - 1.0 / 250.0);
  out.tvar_99 = tail_mean_above(sorted, 0.99);
  out.pml_100 = quantile_sorted(sorted, 1.0 - 1.0 / 100.0);
  out.pml_250 = out.var_99_6;
  out.max_loss = sorted.back();
  return out;
}

}  // namespace riskan::core
