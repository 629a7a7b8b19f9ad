// Scenario specifications — declarative what-if perturbations of one book.
//
// The workloads the target paper motivates around stage 2 — pricing sweeps,
// post-event revisions ("Rapid Post-Event Catastrophe Modelling", DEXA'12,
// reference [2]), and the 100-scenario DFA sweeps sized in
// src/core/elasticity.hpp — all evaluate *many perturbed variants of one
// portfolio against one shared YELT*. A ScenarioSpec declares one variant
// as data, so the planner (plan.hpp) can dedupe the work the variants share
// and the executor (sweep.hpp) can ride every variant on a single streamed
// YELT pass:
//
//   * loss_scale        — demand-surge inflation: every ground-up loss
//                         (sampled or mean) is multiplied before terms;
//   * excluded_events   — per-event exclusion mask: the scenario behaves
//                         exactly as if those events were absent from the
//                         YELT (bit-identical to filter_yelt, tests enforce);
//   * overrides         — layer term overrides (attachment / limit / share /
//                         reinstatements) addressed by (contract, layer);
//   * dropped_contracts / added_contracts — book composition changes;
//   * conditioning      — intensity-scaled post-event conditioning: the
//                         given event is injected into every trial year at
//                         intensity_scale × its modelled mean loss. This
//                         subsumes core::PostEventAnalyzer's single-event
//                         what-if with the full conditional annual
//                         distribution (ΔAAL, ΔPML, ΔTVaR vs the base book).
//
// Every transform preserves the YELT's event-id structure, which is what
// lets the planner reuse one set of event→row resolutions for all
// scenarios; only *added contracts* introduce new ELTs to resolve.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "data/yelt.hpp"
#include "finance/contract.hpp"
#include "finance/terms.hpp"
#include "util/types.hpp"

namespace riskan::scenario {

/// Term override addressed to one layer of a contract, or to every layer of
/// the contract via kAllLayers. Matching overrides apply in spec order.
struct TargetedOverride {
  static constexpr LayerId kAllLayers = ~LayerId{0};

  ContractId contract = 0;
  LayerId layer = kAllLayers;
  finance::LayerOverride override;
};

/// Post-event conditioning: every trial year additionally experiences
/// `event` at intensity_scale × its modelled mean loss to each contract,
/// before the year's own occurrences. The injected occurrence is
/// deterministic (mean-based, like PostEventAnalyzer — early post-event
/// intensity estimates are revisions of the mean, not fresh samples) and is
/// subject to the scenario's loss_scale.
struct PostEventConditioning {
  EventId event = kInvalidEvent;
  double intensity_scale = 1.0;  ///< positive and finite
};

struct ScenarioSpec {
  std::string name;

  double loss_scale = 1.0;  ///< positive and finite
  /// Normalised (sorted, deduped) by validate().
  std::vector<EventId> excluded_events;
  std::vector<TargetedOverride> overrides;
  std::vector<ContractId> dropped_contracts;
  /// Contracts added to the book for this scenario. Referents must outlive
  /// the sweep.
  std::vector<const finance::Contract*> added_contracts;
  std::optional<PostEventConditioning> conditioning;

  /// True when every transform is inert — the scenario is the base book.
  bool is_identity() const noexcept;

  /// Normalises the exclusion mask (sort, dedupe) and checks invariants.
  void validate();

  static ScenarioSpec identity(std::string name = "base");
};

/// Physically applies the YELT side of a spec: a copy of `yelt` without the
/// excluded events' occurrences. This is the reference semantics of the
/// exclusion mask — the sweep's in-kernel mask is bit-identical to running
/// on this table (tests/test_scenario.cpp enforces it).
data::YearEventLossTable filter_yelt(const data::YearEventLossTable& yelt,
                                     std::span<const EventId> excluded_events);

/// Physically applies the book side of a spec: drops, adds, and term
/// overrides, preserving base contract order (survivors first, additions
/// after). Loss scaling, masks and conditioning are kernel-side transforms
/// and are not materialised here. Reference semantics for tests.
finance::Portfolio materialize_portfolio(const ScenarioSpec& spec,
                                         const finance::Portfolio& base);

}  // namespace riskan::scenario
