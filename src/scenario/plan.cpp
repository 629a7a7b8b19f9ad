#include "scenario/plan.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/require.hpp"

namespace riskan::scenario {

namespace {

/// Publishes the planner's dedupe savings to the global registry: how many
/// resolutions and masks the sharing avoided, per plan build.
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

MaskColumn MaskColumn::build(const data::YearEventLossTable& yelt,
                             std::span<const EventId> excluded_events,
                             ParallelConfig cfg) {
  MaskColumn mask;
  mask.adjusted_seq.resize(yelt.entries());
  const auto offsets = yelt.offsets();
  const auto events = yelt.events();
  const auto excluded_begin = excluded_events.begin();
  const auto excluded_end = excluded_events.end();

  std::uint32_t* out = mask.adjusted_seq.data();
  RISKAN_DEBUG_ASSERT_ALIGNED(out);
  const std::uint64_t excluded_total = parallel_reduce<std::uint64_t>(
      0, yelt.trials(), 0,
      [&](std::size_t lo, std::size_t hi) {
        std::uint64_t excluded = 0;
        for (std::size_t t = lo; t < hi; ++t) {
          std::uint32_t excluded_before = 0;
          for (std::uint64_t i = offsets[t]; i < offsets[t + 1]; ++i) {
            if (std::binary_search(excluded_begin, excluded_end, events[i])) {
              out[i] = core::batch::kMaskedOut;
              ++excluded_before;
            } else {
              out[i] = static_cast<std::uint32_t>(i - offsets[t]) - excluded_before;
            }
          }
          excluded += excluded_before;
        }
        return excluded;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; }, cfg);
  mask.excluded_occurrences = excluded_total;
  return mask;
}

ScenarioPlan ScenarioPlan::build(const finance::Portfolio& base,
                                 const data::YearEventLossTable& yelt,
                                 std::span<const ScenarioSpec> specs,
                                 data::ResolverCache* cache, ParallelConfig cfg) {
  RISKAN_REQUIRE(!base.empty(), "scenario plan needs a non-empty base book");
  RISKAN_REQUIRE(yelt.trials() > 0, "scenario plan needs a YELT with trials");

  ScenarioPlan plan;
  plan.stats_.scenarios = specs.size();

  // 1. Contract universe: base book order, then added contracts in
  //    first-reference order (pointer identity — referents are pinned by
  //    the spec's lifetime contract).
  for (const finance::Contract& contract : base.contracts()) {
    plan.contracts_.push_back(&contract);
  }
  const std::size_t base_count = plan.contracts_.size();
  for (const ScenarioSpec& spec : specs) {
    for (const finance::Contract* added : spec.added_contracts) {
      if (std::find(plan.contracts_.begin(), plan.contracts_.end(), added) ==
          plan.contracts_.end()) {
        plan.contracts_.push_back(added);
      }
    }
  }

  // 2. One resolution per distinct contract, shared through the cache.
  obs::Timer resolve_timer("scenario.plan_resolve");
  std::vector<const data::EventLossTable*> elts;
  elts.reserve(plan.contracts_.size());
  for (const finance::Contract* contract : plan.contracts_) {
    elts.push_back(&contract->elt());
  }
  plan.resolution_ = data::MultiResolution::build(elts, yelt, cache, cfg);
  plan.resolve_seconds_ = resolve_timer.stop();
  plan.stats_.contracts_resolved = plan.contracts_.size();

  // 3. Mask dedupe by excluded-set content (specs are normalised, so
  //    equality is a plain vector compare).
  std::vector<const std::vector<EventId>*> mask_keys;
  std::vector<int> mask_of_scenario(specs.size(), -1);
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const auto& excluded = specs[s].excluded_events;
    if (excluded.empty()) {
      continue;
    }
    ++plan.stats_.mask_references;
    std::size_t m = 0;
    while (m < mask_keys.size() && *mask_keys[m] != excluded) {
      ++m;
    }
    if (m == mask_keys.size()) {
      mask_keys.push_back(&excluded);
      plan.masks_.push_back(MaskColumn::build(yelt, excluded, cfg));
      plan.mask_excluded_.push_back(excluded);
    }
    mask_of_scenario[s] = static_cast<int>(m);
  }
  plan.stats_.distinct_masks = plan.masks_.size();

  // 4. Per-scenario books as plan-contract indices, plus the inverse map
  //    used during slot emission. Overrides are checked against the book
  //    here so a sweep cannot silently target a contract or layer that is
  //    not in the scenario.
  plan.scenario_books_.resize(specs.size());
  std::vector<std::vector<int>> book_position(
      specs.size(), std::vector<int>(plan.contracts_.size(), -1));
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const ScenarioSpec& spec = specs[s];
    auto& book = plan.scenario_books_[s];
    auto dropped = [&](ContractId id) {
      return std::find(spec.dropped_contracts.begin(), spec.dropped_contracts.end(),
                       id) != spec.dropped_contracts.end();
    };
    for (std::size_t c = 0; c < base_count; ++c) {
      if (!dropped(plan.contracts_[c]->id())) {
        book_position[s][c] = static_cast<int>(book.size());
        book.push_back(c);
      }
    }
    for (const finance::Contract* added : spec.added_contracts) {
      const std::size_t c =
          std::find(plan.contracts_.begin(), plan.contracts_.end(), added) -
          plan.contracts_.begin();
      RISKAN_REQUIRE(book_position[s][c] < 0,
                     "scenario adds a contract already in its book");
      book_position[s][c] = static_cast<int>(book.size());
      book.push_back(c);
    }
    RISKAN_REQUIRE(!book.empty(), "scenario leaves no contracts in the book");
    plan.stats_.resolutions_avoided += book.size();

    for (const TargetedOverride& o : spec.overrides) {
      bool contract_found = false;
      for (const std::size_t c : book) {
        if (plan.contracts_[c]->id() != o.contract) {
          continue;
        }
        contract_found = true;
        if (o.layer != TargetedOverride::kAllLayers) {
          const auto& layers = plan.contracts_[c]->layers();
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
  plan.stats_.resolutions_avoided -= plan.stats_.contracts_resolved;

  // 5. Blueprint emission in pass order: contract-major, then layer, with
  //    scenarios innermost. A contract's slots are contiguous, so the
  //    executor's gather group resolves each occurrence's ground-up loss
  //    once and serves every layer of every scenario.
  std::vector<bool> conditioning_hits(specs.size(), false);
  for (std::size_t c = 0; c < plan.contracts_.size(); ++c) {
    const finance::Contract& contract = *plan.contracts_[c];

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
        SlotBlueprint bp;
        bp.scenario = s;
        bp.contract = c;
        bp.contract_in_scenario = static_cast<std::size_t>(book_position[s][c]);
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
        plan.blueprints_.push_back(bp);
        group_emitted = true;
      }
    }
    if (group_emitted) {
      ++plan.stats_.gather_groups;
    }
  }
  plan.stats_.slots = plan.blueprints_.size();

  // A conditioned event that no contract of the scenario's book models
  // would silently degenerate the scenario into the identity — zero deltas
  // read as "no impact" when the real answer is "wrong event id".
  for (std::size_t s = 0; s < specs.size(); ++s) {
    RISKAN_REQUIRE(!specs[s].conditioning || conditioning_hits[s],
                   "conditioning event is in no contract ELT of the scenario's book");
  }
  publish_plan_stats(plan.stats_);
  return plan;
}

void ScenarioPlan::rebind(const data::YearEventLossTable& yelt, data::ResolverCache* cache,
                          ParallelConfig cfg) {
  RISKAN_REQUIRE(!contracts_.empty(), "rebind before build");
  RISKAN_REQUIRE(yelt.trials() > 0, "scenario plan needs a YELT with trials");

  obs::Timer resolve_timer("scenario.plan_resolve");
  std::vector<const data::EventLossTable*> elts;
  elts.reserve(contracts_.size());
  for (const finance::Contract* contract : contracts_) {
    elts.push_back(&contract->elt());
  }
  resolution_ = data::MultiResolution::build(elts, yelt, cache, cfg);
  resolve_seconds_ = resolve_timer.stop();

  for (std::size_t m = 0; m < masks_.size(); ++m) {
    masks_[m] = MaskColumn::build(yelt, mask_excluded_[m], cfg);
  }
}

}  // namespace riskan::scenario
