// Scenario deltas — what a sweep reports to the decision maker.
//
// A what-if answer is a *difference*: what does excluding these events,
// re-striking this layer, or conditioning on that event do to the book's
// AAL, tail metrics and EP curves, relative to the base run that rode the
// same streamed pass? ScenarioReport carries, per scenario, the absolute
// metrics (core/metrics: AAL, VaR/TVaR 99, PML 250, AEP/OEP at the
// standard return periods) and their deltas vs base.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "core/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "scenario/scenario.hpp"
#include "util/types.hpp"

namespace riskan::scenario {

/// Metrics of one scenario (or the base book) and its deltas vs base.
struct ScenarioRow {
  std::string name;
  Money aal = 0.0;
  Money var_99 = 0.0;
  Money tvar_99 = 0.0;
  Money pml_250 = 0.0;
  Money delta_aal = 0.0;
  Money delta_var_99 = 0.0;
  Money delta_tvar_99 = 0.0;
  Money delta_pml_250 = 0.0;
  /// AEP losses at ScenarioReport::return_periods, and their deltas.
  std::vector<Money> aep;
  std::vector<Money> delta_aep;
  /// OEP losses / deltas; empty when the sweep ran with compute_oep off.
  std::vector<Money> oep;
  std::vector<Money> delta_oep;
};

struct ScenarioReport {
  std::vector<double> return_periods;  ///< core::standard_return_periods()
  ScenarioRow base;                    ///< deltas are all zero
  std::vector<ScenarioRow> rows;       ///< parallel to the sweep's specs

  /// Prints the delta table (AAL / VaR / TVaR / PML columns).
  void print(std::ostream& os) const;
};

/// Builds the report from finished engine results. `specs` provides names
/// and must be parallel to `results`. Each row selects its order
/// statistics (util/stats select_quantiles) on scratch allocated here, one
/// slice per task. Rows run on `pool`, one task per pool thread; without a
/// pool they run inline on the calling thread.
ScenarioReport build_report(const core::EngineResult& base,
                            std::span<const core::EngineResult> results,
                            std::span<const ScenarioSpec> specs,
                            ThreadPool* pool = nullptr);

}  // namespace riskan::scenario
