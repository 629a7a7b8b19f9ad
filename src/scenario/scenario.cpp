#include "scenario/scenario.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace riskan::scenario {

bool ScenarioSpec::is_identity() const noexcept {
  if (loss_scale != 1.0 || !excluded_events.empty() || !dropped_contracts.empty() ||
      !added_contracts.empty() || conditioning.has_value()) {
    return false;
  }
  for (const TargetedOverride& o : overrides) {
    if (!o.override.empty()) {
      return false;
    }
  }
  return true;
}

void ScenarioSpec::validate() {
  // A non-finite scale has no meaning, and the kernels disagree on it:
  // 0 × inf is NaN, which the scalar and vector occurrence terms treat
  // differently.
  RISKAN_REQUIRE(std::isfinite(loss_scale) && loss_scale > 0.0,
                 "scenario loss scale must be positive and finite");
  std::sort(excluded_events.begin(), excluded_events.end());
  excluded_events.erase(std::unique(excluded_events.begin(), excluded_events.end()),
                        excluded_events.end());
  for (const finance::Contract* added : added_contracts) {
    RISKAN_REQUIRE(added != nullptr, "added contract must not be null");
  }
  if (conditioning) {
    RISKAN_REQUIRE(conditioning->event != kInvalidEvent,
                   "conditioning needs a valid event id");
    RISKAN_REQUIRE(std::isfinite(conditioning->intensity_scale) &&
                       conditioning->intensity_scale > 0.0,
                   "conditioning intensity scale must be positive and finite");
  }
}

ScenarioSpec ScenarioSpec::identity(std::string name) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  return spec;
}

data::YearEventLossTable filter_yelt(const data::YearEventLossTable& yelt,
                                     std::span<const EventId> excluded_events) {
  std::vector<EventId> excluded(excluded_events.begin(), excluded_events.end());
  std::sort(excluded.begin(), excluded.end());

  data::YearEventLossTable::Builder builder(yelt.trials());
  for (TrialId t = 0; t < yelt.trials(); ++t) {
    builder.begin_trial();
    const auto events = yelt.trial_events(t);
    const auto days = yelt.trial_days(t);
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (!std::binary_search(excluded.begin(), excluded.end(), events[i])) {
        builder.add(events[i], days[i]);
      }
    }
  }
  return builder.finish();
}

finance::Portfolio materialize_portfolio(const ScenarioSpec& spec,
                                         const finance::Portfolio& base) {
  finance::Portfolio out;
  auto dropped = [&](ContractId id) {
    return std::find(spec.dropped_contracts.begin(), spec.dropped_contracts.end(), id) !=
           spec.dropped_contracts.end();
  };
  auto overridden = [&](const finance::Contract& contract) {
    std::vector<finance::Layer> layers = contract.layers();
    for (finance::Layer& layer : layers) {
      for (const TargetedOverride& o : spec.overrides) {
        if (o.contract == contract.id() &&
            (o.layer == TargetedOverride::kAllLayers || o.layer == layer.id)) {
          o.override.apply(layer.terms, layer.reinstatements, layer.upfront_premium);
        }
      }
    }
    return finance::Contract(contract.id(), contract.elt(), std::move(layers),
                             contract.region(), contract.lob(), contract.peril());
  };

  for (const finance::Contract& contract : base.contracts()) {
    if (!dropped(contract.id())) {
      out.add(overridden(contract));
    }
  }
  for (const finance::Contract* added : spec.added_contracts) {
    out.add(overridden(*added));
  }
  RISKAN_REQUIRE(!out.empty(), "scenario leaves no contracts in the book");
  return out;
}

}  // namespace riskan::scenario
