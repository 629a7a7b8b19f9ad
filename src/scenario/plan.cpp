#include "scenario/plan.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/require.hpp"

namespace riskan::scenario {

namespace {

/// Publishes the planner's dedupe savings to the global registry: how many
/// gathers and masks the sharing avoided, per plan build.
void publish_plan_stats(const PlanStats& stats) {
  static const obs::Counter plans =
      obs::MetricsRegistry::global().counter("scenario.plans_built");
  static const obs::Counter scenarios =
      obs::MetricsRegistry::global().counter("scenario.scenarios_planned");
  static const obs::Counter resolutions_avoided =
      obs::MetricsRegistry::global().counter("scenario.resolutions_avoided");
  static const obs::Counter masks_deduped =
      obs::MetricsRegistry::global().counter("scenario.masks_deduped");
  plans.add();
  scenarios.add(static_cast<double>(stats.scenarios));
  resolutions_avoided.add(static_cast<double>(stats.resolutions_avoided));
  masks_deduped.add(
      static_cast<double>(stats.mask_references - stats.distinct_masks));
}

}  // namespace

ScenarioPlan ScenarioPlan::build(const finance::Portfolio& base,
                                 std::span<const ScenarioSpec> specs) {
  RISKAN_REQUIRE(!base.empty(), "scenario plan needs a non-empty base book");

  ScenarioPlan plan;
  core::BookRuns& runs = plan.runs;
  plan.stats.scenarios = specs.size();

  // 1. Contract universe: base book order, then added contracts in
  //    first-reference order (pointer identity — referents are pinned by
  //    the spec's lifetime contract). One gather per distinct contract.
  for (const finance::Contract& contract : base.contracts()) {
    runs.contracts.push_back(&contract);
  }
  const std::size_t base_count = runs.contracts.size();
  for (const ScenarioSpec& spec : specs) {
    for (const finance::Contract* added : spec.added_contracts) {
      if (std::find(runs.contracts.begin(), runs.contracts.end(), added) ==
          runs.contracts.end()) {
        runs.contracts.push_back(added);
      }
    }
  }
  plan.stats.contracts_resolved = runs.contracts.size();

  // 2. Mask dedupe by excluded-set content (specs are normalised, so
  //    equality is a plain vector compare).
  std::vector<int> mask_of_scenario(specs.size(), -1);
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const auto& excluded = specs[s].excluded_events;
    if (excluded.empty()) {
      continue;
    }
    ++plan.stats.mask_references;
    const auto m = std::find(runs.exclusions.begin(), runs.exclusions.end(), excluded);
    mask_of_scenario[s] = static_cast<int>(m - runs.exclusions.begin());
    if (m == runs.exclusions.end()) {
      runs.exclusions.push_back(excluded);
    }
  }
  plan.stats.distinct_masks = runs.exclusions.size();

  // 3. Per-scenario books as universe indices, plus the inverse map
  //    used during slot emission. Overrides are checked against the book
  //    here so a sweep cannot silently target a contract or layer that is
  //    not in the scenario.
  runs.runs.resize(specs.size());
  std::vector<std::vector<int>> book_position(
      specs.size(), std::vector<int>(runs.contracts.size(), -1));
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const ScenarioSpec& spec = specs[s];
    auto& book = runs.runs[s].book;
    auto dropped = [&](ContractId id) {
      return std::find(spec.dropped_contracts.begin(), spec.dropped_contracts.end(),
                       id) != spec.dropped_contracts.end();
    };
    for (std::size_t c = 0; c < base_count; ++c) {
      if (!dropped(runs.contracts[c]->id())) {
        book_position[s][c] = static_cast<int>(book.size());
        book.push_back(c);
      }
    }
    for (const finance::Contract* added : spec.added_contracts) {
      const std::size_t c =
          std::find(runs.contracts.begin(), runs.contracts.end(), added) -
          runs.contracts.begin();
      RISKAN_REQUIRE(book_position[s][c] < 0,
                     "scenario adds a contract already in its book");
      book_position[s][c] = static_cast<int>(book.size());
      book.push_back(c);
    }
    RISKAN_REQUIRE(!book.empty(), "scenario leaves no contracts in the book");
    plan.stats.resolutions_avoided += book.size();

    for (const TargetedOverride& o : spec.overrides) {
      bool contract_found = false;
      for (const std::size_t c : book) {
        if (runs.contracts[c]->id() != o.contract) {
          continue;
        }
        contract_found = true;
        if (o.layer != TargetedOverride::kAllLayers) {
          const auto& layers = runs.contracts[c]->layers();
          const bool layer_found =
              std::any_of(layers.begin(), layers.end(),
                          [&](const finance::Layer& l) { return l.id == o.layer; });
          RISKAN_REQUIRE(layer_found, "override targets a layer the contract lacks");
        }
      }
      RISKAN_REQUIRE(contract_found,
                     "override targets a contract outside the scenario's book");
    }
  }
  plan.stats.resolutions_avoided -= plan.stats.contracts_resolved;

  // 4. Blueprint emission in pass order: contract-major, then layer, with
  //    scenarios innermost. A contract's slots are contiguous, so the
  //    executor's gather group resolves each occurrence's ground-up loss
  //    once and serves every layer of every scenario.
  std::vector<bool> conditioning_hits(specs.size(), false);
  for (std::size_t c = 0; c < runs.contracts.size(); ++c) {
    const finance::Contract& contract = *runs.contracts[c];

    // Conditioned ground-up per scenario (contract-level, shared by all of
    // its layers, pre-scaled by intensity and the scenario's loss scale).
    std::vector<Money> conditioned(specs.size(), -1.0);
    for (std::size_t s = 0; s < specs.size(); ++s) {
      if (book_position[s][c] < 0 || !specs[s].conditioning) {
        continue;
      }
      const auto row = contract.elt().find(specs[s].conditioning->event);
      if (row == data::EventLossTable::npos) {
        continue;
      }
      conditioned[s] = contract.elt().mean_loss()[row] *
                       specs[s].conditioning->intensity_scale * specs[s].loss_scale;
      conditioning_hits[s] = true;
    }

    bool group_emitted = false;
    for (const finance::Layer& layer : contract.layers()) {
      for (std::size_t s = 0; s < specs.size(); ++s) {
        if (book_position[s][c] < 0) {
          continue;
        }
        const ScenarioSpec& spec = specs[s];
        core::SlotBlueprint bp;
        bp.run = s;
        bp.contract = c;
        bp.contract_in_run = static_cast<std::size_t>(book_position[s][c]);
        bp.terms = layer.terms;
        bp.reinstatements = layer.reinstatements;
        bp.upfront_premium = layer.upfront_premium;
        for (const TargetedOverride& o : spec.overrides) {
          if (o.contract == contract.id() &&
              (o.layer == TargetedOverride::kAllLayers || o.layer == layer.id)) {
            o.override.apply(bp.terms, bp.reinstatements, bp.upfront_premium);
          }
        }
        bp.loss_scale = spec.loss_scale;
        bp.mask = mask_of_scenario[s];
        bp.conditioned_ground_up = conditioned[s];
        runs.blueprints.push_back(bp);
        group_emitted = true;
      }
    }
    if (group_emitted) {
      ++plan.stats.gather_groups;
    }
  }
  plan.stats.slots = runs.blueprints.size();

  // A conditioned event that no contract of the scenario's book models
  // would silently degenerate the scenario into the identity — zero deltas
  // read as "no impact" when the real answer is "wrong event id".
  for (std::size_t s = 0; s < specs.size(); ++s) {
    RISKAN_REQUIRE(!specs[s].conditioning || conditioning_hits[s],
                   "conditioning event is in no contract ELT of the scenario's book");
  }
  publish_plan_stats(plan.stats);
  return plan;
}

}  // namespace riskan::scenario
