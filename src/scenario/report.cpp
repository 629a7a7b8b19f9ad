#include "scenario/report.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <ostream>

#include "parallel/parallel_for.hpp"
#include "util/format.hpp"
#include "util/report.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"

namespace riskan::scenario {

namespace {

constexpr double kVarLevel = 0.99;
constexpr double kPmlLevel = 1.0 - 1.0 / 250.0;

/// Fills a row's metrics from its result: one selection on `scratch` serves
/// VaR99, PML250, TVaR99 and the AEP points, a second one the OEP points.
/// `metric_levels` holds `ep_levels` and the VaR and PML levels.
void fill_metrics(ScenarioRow& row, const core::EngineResult& result,
                  std::span<const double> ep_levels, std::span<const double> metric_levels,
                  std::span<double> scratch) {
  const auto select = [scratch](const data::YearLossTable& ylt,
                                std::span<const double> levels,
                                std::optional<double> tail_level) {
    const auto losses = ylt.losses();
    const std::span<double> sample = scratch.first(losses.size());
    std::copy(losses.begin(), losses.end(), sample.begin());
    select_quantiles(sample, levels, tail_level);
    return sample;
  };
  row.aal = result.portfolio_ylt.mean();
  const auto aep = select(result.portfolio_ylt, metric_levels, kVarLevel);
  row.var_99 = quantile_sorted(aep, kVarLevel);
  row.tvar_99 = tail_mean_above(aep, kVarLevel);
  row.pml_250 = quantile_sorted(aep, kPmlLevel);
  for (std::size_t i = 0; i < ep_levels.size(); ++i) {
    row.aep[i] = quantile_sorted(aep, ep_levels[i]);
  }
  if (!row.oep.empty()) {
    const auto oep = select(result.portfolio_occurrence_ylt, ep_levels, std::nullopt);
    for (std::size_t i = 0; i < ep_levels.size(); ++i) {
      row.oep[i] = quantile_sorted(oep, ep_levels[i]);
    }
  }
}

void fill_deltas(ScenarioRow& row, const ScenarioRow& base) {
  row.delta_aal = row.aal - base.aal;
  row.delta_var_99 = row.var_99 - base.var_99;
  row.delta_tvar_99 = row.tvar_99 - base.tvar_99;
  row.delta_pml_250 = row.pml_250 - base.pml_250;
  row.delta_aep.resize(row.aep.size());
  for (std::size_t i = 0; i < row.aep.size(); ++i) {
    row.delta_aep[i] = row.aep[i] - base.aep[i];
  }
  row.delta_oep.resize(row.oep.size());
  for (std::size_t i = 0; i < row.oep.size() && i < base.oep.size(); ++i) {
    row.delta_oep[i] = row.oep[i] - base.oep[i];
  }
}

std::string signed_count(Money delta) {
  if (delta < 0.0) {
    return "-" + format_count(-delta);
  }
  return "+" + format_count(delta);
}

}  // namespace

ScenarioReport build_report(const core::EngineResult& base,
                            std::span<const core::EngineResult> results,
                            std::span<const ScenarioSpec> specs, ThreadPool* pool) {
  RISKAN_REQUIRE(results.size() == specs.size(),
                 "scenario results and specs must be parallel");
  ScenarioReport report;
  report.return_periods = core::standard_return_periods();
  std::vector<double> ep_levels;
  for (const double rp : report.return_periods) {
    ep_levels.push_back(1.0 - 1.0 / rp);
  }
  std::vector<double> metric_levels = ep_levels;
  metric_levels.push_back(kVarLevel);
  metric_levels.push_back(kPmlLevel);

  // Row 0 is the base. Names and curve sizes are set here, so that pool
  // threads only write values into memory this thread allocated.
  const std::size_t rows = results.size() + 1;
  const auto result_of = [&](std::size_t r) -> const core::EngineResult& {
    return r == 0 ? base : results[r - 1];
  };
  std::vector<ScenarioRow> built(rows);
  std::size_t longest = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const core::EngineResult& result = result_of(r);
    RISKAN_REQUIRE(!result.portfolio_ylt.empty(), "scenario report needs every YLT");
    built[r].name = r == 0 ? "base" : specs[r - 1].name;
    built[r].aep.resize(ep_levels.size());
    if (!result.portfolio_occurrence_ylt.empty()) {
      built[r].oep.resize(ep_levels.size());
    }
    longest = std::max({longest, static_cast<std::size_t>(result.portfolio_ylt.trials()),
                        static_cast<std::size_t>(result.portfolio_occurrence_ylt.trials())});
  }

  // One scratch slice per task; task k computes rows k, k + tasks, ...
  const std::size_t tasks = pool == nullptr ? 1 : std::min(rows, pool->thread_count());
  const auto scratch = std::make_unique_for_overwrite<double[]>(tasks * longest);
  parallel_for(
      0, tasks,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t task = lo; task < hi; ++task) {
          const std::span<double> slice(scratch.get() + task * longest, longest);
          for (std::size_t r = task; r < rows; r += tasks) {
            fill_metrics(built[r], result_of(r), ep_levels, metric_levels, slice);
          }
        }
      },
      ParallelConfig{pool, 1});

  report.base = std::move(built[0]);
  report.rows.assign(std::make_move_iterator(built.begin() + 1),
                     std::make_move_iterator(built.end()));
  for (ScenarioRow& row : report.rows) {
    fill_deltas(row, report.base);
  }
  return report;
}

void ScenarioReport::print(std::ostream& os) const {
  ReportTable table({"scenario", "AAL", "dAAL", "VaR99", "dVaR99", "TVaR99", "dTVaR99",
                     "PML250", "dPML250"});
  table.add_row({base.name, format_count(base.aal), "-", format_count(base.var_99), "-",
                 format_count(base.tvar_99), "-", format_count(base.pml_250), "-"});
  for (const ScenarioRow& row : rows) {
    table.add_row({row.name, format_count(row.aal), signed_count(row.delta_aal),
                   format_count(row.var_99), signed_count(row.delta_var_99),
                   format_count(row.tvar_99), signed_count(row.delta_tvar_99),
                   format_count(row.pml_250), signed_count(row.delta_pml_250)});
  }
  table.print(os);
}

}  // namespace riskan::scenario
