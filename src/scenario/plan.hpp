// Scenario planner — turns a sweep into runs of the engine's one runner,
// deduping the work the runs share.
//
// ScenarioPlan::build describes an S-scenario sweep as core::BookRuns: the
// base book is run 0 and every scenario one more run over the same trial
// source. It reads no YELT; core::run_books then gathers, resolves and
// masks per trial block. Three dedupe levels, in decreasing order of cost
// avoided:
//
//   1. Gathers. Every ScenarioSpec transform preserves the YELT's event-id
//      structure (scaling, masks, term overrides and conditioning never
//      change *which* event an occurrence is), so one gather per distinct
//      contract serves every run: an in-kernel lookup, or, over a resident
//      YELT, a compact resolution from data::ResolverCache that the base
//      book's batched runs share. A naive per-scenario plan gathers
//      Σ_s |book_s| contracts; this planner gathers |distinct contracts|
//      (PlanStats records the difference).
//   2. Exclusion masks. Scenarios with identical excluded-event sets share
//      one exclusion set, so the runner builds one core::batch::MaskColumn
//      per set and trial block, whatever the gather, for every slot of
//      every scenario using it.
//   3. Ground-up losses. The planner orders slots contract-major, then by
//      layer, with scenarios innermost, so the executor's gather groups
//      (core::batch::group_slots) resolve each occurrence's sampled/mean
//      ground-up loss once per contract and feed every layer of all S
//      scenarios — sampling streams are keyed by (contract, trial,
//      occurrence), not by layer or scenario. Under secondary uncertainty
//      (beta sampling, the dominant FLOP cost of stage 2) this is where
//      most of the sweep's compute dedupe is.
#pragma once

#include <cstddef>
#include <span>

#include "core/aggregate_engine.hpp"
#include "core/portfolio_batch.hpp"
#include "finance/contract.hpp"
#include "scenario/scenario.hpp"

namespace riskan::scenario {

/// The scenario engine's name for the kernel's exclusion column.
using core::batch::MaskColumn;

/// Work-dedupe telemetry the planner reports (asserted by tests, printed by
/// the bench and the examples).
struct PlanStats {
  std::size_t scenarios = 0;         ///< scenarios in the sweep (incl. base)
  std::size_t slots = 0;             ///< (scenario, contract, layer) slots
  std::size_t gather_groups = 0;     ///< shared-gather groups (one per contract)
  std::size_t contracts_resolved = 0;   ///< distinct ELT gathers needed
  std::size_t resolutions_avoided = 0;  ///< Σ|book_s| minus the distinct set
  std::size_t distinct_masks = 0;    ///< mask columns per block after dedupe
  std::size_t mask_references = 0;   ///< scenarios that reference a mask
};

/// A sweep as the runner's runs, plus what the dedupe saved.
struct ScenarioPlan {
  /// Run s is specs[s]: the universe of contracts (base book order, then
  /// added contracts in first-reference order), each run's book, the
  /// distinct exclusion sets and one blueprint per (scenario, contract,
  /// layer) in pass order, with overrides applied and transforms set.
  core::BookRuns runs;
  PlanStats stats;

  /// Plans `specs` (already validated) over the base book. Throws
  /// ContractViolation when an override targets a contract or layer
  /// outside its scenario's book, a scenario adds a contract its book
  /// already holds or leaves its book empty, or a conditioning event is in
  /// no ELT of its scenario's book.
  static ScenarioPlan build(const finance::Portfolio& base,
                            std::span<const ScenarioSpec> specs);
};

}  // namespace riskan::scenario
