// Scenario sweep executor — S what-if variants on one streamed YELT pass.
//
// run_scenario_sweep plans the base book and every scenario variant as
// runs of the engine's one block runner (core::run_books), so they all ride
// the *same* trial-block pass: slots are ordered contract-major, then by
// layer, with scenarios innermost, so each occurrence's ground-up loss —
// the beta sample that dominates stage-2 FLOPs — is resolved once per
// contract and served to every layer of all S scenarios, each slot
// applying its own transform parameters (loss scale, exclusion mask, term
// overrides, conditioning) on the way to its own EngineResult.
//
// Two hard contracts, enforced by tests/test_scenario.cpp across backends ×
// secondary-uncertainty × grain sizes:
//   * the identity scenario is bit-identical to run_portfolio_batch on the
//     base book (the sweep is a pure extension of the batched pass);
//   * an exclusion-mask scenario is bit-identical to run_portfolio_batch on
//     the physically filtered YELT (filter_yelt) — masks are dropped
//     in-kernel with filtered-table sequence keys, not by rebuilding
//     tables.
//
// Backend behaviour is the runner's: Sequential runs the whole sweep
// inline off the pool; Threaded parallelises over trial chunks with the
// same trial_grain knob; with EngineConfig::device_info set, the device
// model prices each block's sweep plan like any other plan. Outputs are
// backend-invariant (the engine's determinism contract), so the backend
// changes wall-clock and telemetry only.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "data/yelt.hpp"
#include "obs/obs.hpp"
#include "finance/contract.hpp"
#include "scenario/plan.hpp"
#include "scenario/report.hpp"
#include "scenario/scenario.hpp"

namespace riskan::scenario {

struct ScenarioSweepResult {
  /// The unperturbed book, always computed — it rides the same pass and is
  /// the reference of every delta. Bit-identical to run_portfolio_batch.
  core::EngineResult base;
  /// One result per spec, indexed as passed.
  std::vector<core::EngineResult> scenarios;
  /// Deltas vs base (AAL, VaR/TVaR, PML, EP curves).
  ScenarioReport report;
  /// Work-dedupe telemetry from the planner.
  PlanStats plan;
  /// Whole-sweep wall-clock (plan + pass + report).
  double seconds = 0.0;
  /// End-of-run observability report when EngineConfig::obs requested one.
  std::shared_ptr<const obs::ObsReport> obs_report;
};

/// Runs every scenario in `specs` (plus the implicit base) over the book
/// with one streamed YELT pass. Specs are validated internally; referents
/// of added contracts must outlive the call. EngineConfig is honoured as in
/// run_portfolio_batch (backend, kernel, seed, secondary_uncertainty,
/// compute_oep, keep_contract_ylts, trial_grain, pool, trial_base,
/// resolver_cache, device_info, adaptive): a resident YELT gathers through
/// compact resolutions cached in the resolver cache.
ScenarioSweepResult run_scenario_sweep(const finance::Portfolio& portfolio,
                                       const data::YearEventLossTable& yelt,
                                       std::span<const ScenarioSpec> specs,
                                       const core::EngineConfig& config = {});

/// The same sweep over any data::TrialSource — out-of-core what-if sweeps.
/// The in-memory overload wraps its table in a one-block InMemorySource and
/// calls this; a ChunkedFileSource streams the sweep over a book bigger
/// than RAM. Streamed blocks gather by in-kernel lookup and build no
/// resolution (EngineResult::resolve_seconds reads 0); per block the
/// runner rebuilds only each distinct mask column and lowers one execution
/// plan, so streamed sweeps are bit-identical to in-memory ones on every
/// backend and kernel.
ScenarioSweepResult run_scenario_sweep(const finance::Portfolio& portfolio,
                                       data::TrialSource& source,
                                       std::span<const ScenarioSpec> specs,
                                       const core::EngineConfig& config = {});

}  // namespace riskan::scenario
