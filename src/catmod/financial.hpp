// Financial-loss module — module (iii) of the paper's catastrophe model:
// "the resultant financial loss".
//
// Turns a damage estimate at a site into an insured (ground-up) loss by
// applying the site's value and insurance terms, and aggregates event
// losses across all sites into one ELT row. Site losses are treated as
// independent given the event, so variances add — the standard stage-1
// aggregation assumption.
#pragma once

#include "catmod/exposure.hpp"
#include "catmod/vulnerability.hpp"
#include "data/elt.hpp"

namespace riskan::catmod {

/// Mean/σ/max insured loss for one event-site pair.
struct SiteLoss {
  Money mean = 0.0;
  Money sigma = 0.0;
  Money max = 0.0;  ///< post-terms maximum (site limit caps it)
};

/// Applies value and site terms to a damage estimate.
/// mean = clamp(value * mdr - deductible, 0, limit), sigma scaled by value
/// and capped by the feasible range.
SiteLoss site_loss(const Site& site, const DamageEstimate& damage) noexcept;

/// The mean damage ratio a loss must exceed at this site: site_loss nets
/// value * mdr - deductible, so a loss needs mdr > deductible / value.
/// 1 when the deductible covers the whole value (the site never loses); 0,
/// which bounds nothing, when the value or the deductible is not positive
/// and finite. Exact arithmetic: the caller allows for rounding.
double zero_loss_damage_ratio(const Site& site) noexcept;

/// Accumulates site losses for one event into an ELT row.
class EventLossAccumulator {
 public:
  explicit EventLossAccumulator(EventId event) : event_(event) {}

  void add(const SiteLoss& loss) noexcept;

  bool has_loss() const noexcept { return mean_ > 0.0; }

  /// Finalised ELT row (variance-additive sigma).
  data::EltRow row() const noexcept;

  LocationId sites_hit() const noexcept { return sites_hit_; }

 private:
  EventId event_;
  Money mean_ = 0.0;
  Money variance_ = 0.0;
  Money max_ = 0.0;
  LocationId sites_hit_ = 0;
};

}  // namespace riskan::catmod
