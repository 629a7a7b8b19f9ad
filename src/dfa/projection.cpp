#include "dfa/projection.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"

namespace riskan::dfa {

MultiYearProjection::MultiYearProjection(std::vector<std::unique_ptr<RiskSource>> sources,
                                         ProjectionConfig config)
    : sources_(std::move(sources)), config_(config) {
  RISKAN_REQUIRE(!sources_.empty(), "projection needs risk sources");
  RISKAN_REQUIRE(config_.horizon_years > 0, "horizon must be positive");
  RISKAN_REQUIRE(config_.paths > 0, "need simulation paths");
  RISKAN_REQUIRE(config_.initial_capital > 0.0, "initial capital must be positive");
  RISKAN_REQUIRE(config_.expense_ratio >= 0.0 && config_.expense_ratio < 1.0,
                 "expense ratio must lie in [0,1)");
}

ProjectionResult MultiYearProjection::run(const data::YearLossTable& cat_ylt) const {
  RISKAN_REQUIRE(!cat_ylt.empty(), "catastrophe YLT is empty");
  obs::Timer watch("dfa.projection");

  const int horizon = config_.horizon_years;
  const std::uint32_t paths = config_.paths;
  const std::size_t dims = sources_.size() + 1;

  // Sorted cat losses -> quantile function, as in DfaEngine.
  std::vector<Money> cat_sorted(cat_ylt.losses().begin(), cat_ylt.losses().end());
  std::sort(cat_sorted.begin(), cat_sorted.end());
  const auto cat_quantile = [&cat_sorted](double u) {
    const double h = u * static_cast<double>(cat_sorted.size() - 1);
    const auto idx = static_cast<std::size_t>(h);
    if (idx + 1 >= cat_sorted.size()) {
      return cat_sorted.back();
    }
    const double frac = h - static_cast<double>(idx);
    return cat_sorted[idx] + frac * (cat_sorted[idx + 1] - cat_sorted[idx]);
  };

  const GaussianCopula copula(CorrelationMatrix::exchangeable(dims, config_.correlation),
                              config_.seed);

  ProjectionResult result;
  result.ruin_probability_by_year.assign(static_cast<std::size_t>(horizon), 0.0);
  std::vector<std::vector<Money>> capital_by_year(
      static_cast<std::size_t>(horizon));  // surviving paths' capital
  for (auto& v : capital_by_year) {
    v.reserve(paths);
  }

  std::uint32_t ruined_total = 0;
  OnlineStats terminal;
  std::vector<double> uniforms(dims);

  for (std::uint32_t p = 0; p < paths; ++p) {
    Money capital = config_.initial_capital;
    Money premium = config_.annual_premium;
    bool ruined = false;

    for (int y = 0; y < horizon; ++y) {
      // One copula draw per (path, year); the "trial" key spreads paths
      // and years across the counter space.
      const TrialId key = static_cast<TrialId>(
          p * static_cast<std::uint32_t>(horizon) + static_cast<std::uint32_t>(y));
      copula.sample(key, uniforms);

      const Money cat_loss = cat_quantile(uniforms[0]);
      Money other_losses = 0.0;
      for (std::size_t s = 0; s < sources_.size(); ++s) {
        other_losses += sources_[s]->loss(uniforms[s + 1], key);
      }

      const Money underwriting =
          premium * (1.0 - config_.expense_ratio) - cat_loss;
      capital += underwriting - other_losses + capital * config_.investment_return;
      premium *= 1.0 + config_.premium_growth;

      if (capital < 0.0) {
        ruined = true;
        for (int later = y; later < horizon; ++later) {
          result.ruin_probability_by_year[static_cast<std::size_t>(later)] += 1.0;
        }
        break;
      }
      capital_by_year[static_cast<std::size_t>(y)].push_back(capital);
    }
    if (ruined) {
      ++ruined_total;
    } else {
      terminal.add(capital);
    }
  }

  for (auto& cumulative : result.ruin_probability_by_year) {
    cumulative /= static_cast<double>(paths);
  }
  result.ruin_probability = static_cast<double>(ruined_total) / paths;
  result.mean_terminal_capital = terminal.count() > 0 ? terminal.mean() : 0.0;

  result.capital_quantiles.reserve(static_cast<std::size_t>(horizon));
  for (auto& year : capital_by_year) {
    std::array<Money, 3> qs{0.0, 0.0, 0.0};
    if (!year.empty()) {
      constexpr double kLevels[] = {0.05, 0.50, 0.95};
      select_quantiles(year, kLevels);
      for (std::size_t i = 0; i < qs.size(); ++i) {
        qs[i] = quantile_sorted(year, kLevels[i]);
      }
    }
    result.capital_quantiles.push_back(qs);
  }

  result.seconds = watch.stop();
  return result;
}

}  // namespace riskan::dfa
