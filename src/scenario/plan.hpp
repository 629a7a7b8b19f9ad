// Scenario planner — dedupes the work an S-scenario sweep shares.
//
// Three dedupe levels, in decreasing order of cost avoided:
//
//   1. Event→row resolutions. Every ScenarioSpec transform preserves the
//      YELT's event-id structure (scaling, masks, term overrides and
//      conditioning never change *which* event an occurrence is), so the
//      base book's `data::ResolverCache` resolutions serve every scenario;
//      only contracts *added* by a scenario introduce new ELTs to resolve,
//      and those go through the same cache. A naive per-scenario plan
//      resolves Σ_s |book_s| ELTs; this planner resolves |distinct
//      contracts| (PlanStats records the difference).
//   2. Exclusion masks. Scenarios with identical excluded-event sets share
//      one MaskColumn — the YELT-entry-aligned adjusted-sequence column the
//      kernel consumes — and the column itself is contract-independent, so
//      one build serves every slot of every scenario using that mask.
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
#include <vector>

#include "core/portfolio_batch.hpp"
#include "data/resolved_yelt.hpp"
#include "data/yelt.hpp"
#include "finance/contract.hpp"
#include "parallel/parallel_for.hpp"
#include "scenario/scenario.hpp"
#include "util/aligned.hpp"

namespace riskan::scenario {

/// Adjusted-sequence column of one distinct exclusion mask: slot i (aligned
/// with yelt.events()) holds the sequence number occurrence i would have in
/// the physically filtered YELT, or core::batch::kMaskedOut when the
/// occurrence's event is excluded. Using the filtered-table sequence as the
/// secondary-uncertainty stream key is what makes a mask scenario
/// bit-identical to running on filter_yelt() output.
struct MaskColumn {
  util::AlignedVector<std::uint32_t> adjusted_seq;  // gather column — 64-byte aligned
  std::uint64_t excluded_occurrences = 0;

  /// One streamed pass over the YELT, parallel over trial slabs (each
  /// trial's slots are written independently of scheduling).
  static MaskColumn build(const data::YearEventLossTable& yelt,
                          std::span<const EventId> excluded_events,
                          ParallelConfig cfg = {});
};

/// Work-dedupe telemetry the planner reports (asserted by tests, printed by
/// the bench and the examples).
struct PlanStats {
  std::size_t scenarios = 0;         ///< scenarios in the sweep (incl. base)
  std::size_t slots = 0;             ///< (scenario, contract, layer) slots
  std::size_t gather_groups = 0;     ///< shared-gather groups (one per contract)
  std::size_t contracts_resolved = 0;   ///< distinct ELT resolutions needed
  std::size_t resolutions_avoided = 0;  ///< Σ|book_s| minus the distinct set
  std::size_t distinct_masks = 0;    ///< mask columns built after dedupe
  std::size_t mask_references = 0;   ///< scenarios that reference a mask
};

/// One planned (scenario, contract, layer) slot, before output buffers
/// exist. Blueprints are emitted in pass order: contract-major, then
/// layer, scenarios innermost.
struct SlotBlueprint {
  std::size_t scenario = 0;             ///< index into the sweep's scenarios
  std::size_t contract = 0;             ///< index into ScenarioPlan::contracts()
  std::size_t contract_in_scenario = 0; ///< position in the scenario's own book
  finance::LayerTerms terms;            ///< overrides already applied
  finance::Reinstatements reinstatements;
  Money upfront_premium = 0.0;
  double loss_scale = 1.0;
  int mask = -1;                        ///< index into masks(), -1 = none
  Money conditioned_ground_up = -1.0;   ///< pre-scaled; < 0 = no conditioning
};

class ScenarioPlan {
 public:
  /// Plans `specs` (already validated) over the base book. Resolutions go
  /// through `cache` (nullptr = ResolverCache::shared()).
  static ScenarioPlan build(const finance::Portfolio& base,
                            const data::YearEventLossTable& yelt,
                            std::span<const ScenarioSpec> specs,
                            data::ResolverCache* cache, ParallelConfig cfg = {});

  /// Re-binds the plan's per-block half — resolutions and mask columns,
  /// both trial-local — to a new YELT block, keeping the structural half
  /// (contract universe, books, blueprints, stats), which depends only on
  /// (book, specs). The out-of-core sweep builds once against the first
  /// block and re-binds per block, mirroring ExecutionPlan::rebind.
  void rebind(const data::YearEventLossTable& yelt, data::ResolverCache* cache,
              ParallelConfig cfg = {});

  /// Distinct contracts across all scenarios: base book order, then added
  /// contracts in first-reference order.
  std::span<const finance::Contract* const> contracts() const noexcept {
    return contracts_;
  }
  const data::MultiResolution& resolution() const noexcept { return resolution_; }
  std::span<const MaskColumn> masks() const noexcept { return masks_; }
  std::span<const SlotBlueprint> blueprints() const noexcept { return blueprints_; }
  /// Per scenario, the plan-contract indices of its book, in book order.
  std::span<const std::vector<std::size_t>> scenario_books() const noexcept {
    return scenario_books_;
  }
  const PlanStats& stats() const noexcept { return stats_; }
  double resolve_seconds() const noexcept { return resolve_seconds_; }

 private:
  std::vector<const finance::Contract*> contracts_;
  data::MultiResolution resolution_;
  std::vector<MaskColumn> masks_;
  /// Deduped excluded-event sets, parallel to masks_ — what rebind()
  /// rebuilds each mask column from.
  std::vector<std::vector<EventId>> mask_excluded_;
  std::vector<SlotBlueprint> blueprints_;
  std::vector<std::vector<std::size_t>> scenario_books_;
  PlanStats stats_;
  double resolve_seconds_ = 0.0;
};

}  // namespace riskan::scenario
