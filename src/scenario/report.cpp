#include "scenario/report.hpp"

#include <algorithm>
#include <ostream>

#include "util/format.hpp"
#include "util/report.hpp"
#include "util/require.hpp"

namespace riskan::scenario {

namespace {

ScenarioRow make_row(const std::string& name, const core::EngineResult& result,
                     std::span<const double> return_periods) {
  ScenarioRow row;
  row.name = name;
  row.aal = result.portfolio_ylt.mean();
  // One sort serves the tail metrics and the AEP curve (a sweep builds a
  // row per scenario).
  const auto losses = result.portfolio_ylt.losses();
  std::vector<double> sorted(losses.begin(), losses.end());
  std::sort(sorted.begin(), sorted.end());
  const core::RiskSummary summary = core::summarise_sorted(sorted);
  row.var_99 = summary.var_99;
  row.tvar_99 = summary.tvar_99;
  row.pml_250 = summary.pml_250;
  for (const auto& point : core::exceedance_curve_sorted(sorted, return_periods)) {
    row.aep.push_back(point.loss);
  }
  if (!result.portfolio_occurrence_ylt.empty()) {
    for (const auto& point :
         core::exceedance_curve(result.portfolio_occurrence_ylt, return_periods)) {
      row.oep.push_back(point.loss);
    }
  }
  return row;
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
                            std::span<const ScenarioSpec> specs) {
  RISKAN_REQUIRE(results.size() == specs.size(),
                 "scenario results and specs must be parallel");
  ScenarioReport report;
  report.return_periods = core::standard_return_periods();
  report.base = make_row("base", base, report.return_periods);
  report.rows.reserve(results.size());
  for (std::size_t s = 0; s < results.size(); ++s) {
    report.rows.push_back(make_row(specs[s].name, results[s], report.return_periods));
    fill_deltas(report.rows.back(), report.base);
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
