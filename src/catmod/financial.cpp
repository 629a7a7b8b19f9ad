#include "catmod/financial.hpp"

#include <algorithm>
#include <cmath>

namespace riskan::catmod {

SiteLoss site_loss(const Site& site, const DamageEstimate& damage) noexcept {
  if (damage.mean_damage_ratio <= 0.0 || site.value <= 0.0) {
    return {};
  }
  const Money limit = site.site_limit > 0.0 ? site.site_limit : site.value;
  const Money gross = site.value * damage.mean_damage_ratio;
  const Money net = std::clamp(gross - site.site_deductible, Money{0.0}, limit);
  if (net <= 0.0) {
    return {};
  }
  SiteLoss loss;
  loss.mean = net;
  loss.max = limit;
  // Damage sigma scales with value; the deductible/limit clip can only
  // narrow the spread, so cap sigma by the distance to the feasible ends.
  const Money raw_sigma = site.value * damage.sigma_damage_ratio;
  loss.sigma = std::min(raw_sigma, std::sqrt(net * (limit - net) + 1e-9));
  return loss;
}

double zero_loss_damage_ratio(const Site& site) noexcept {
  const Money value = site.value;
  const Money deductible = site.site_deductible;
  if (!(value > 0.0 && deductible > 0.0 && std::isfinite(value) && std::isfinite(deductible))) {
    return 0.0;
  }
  // value * mdr <= value for every mdr in [0, 1], so a deductible at or
  // above the value absorbs every loss.
  return std::min(1.0, deductible / value);
}

void EventLossAccumulator::add(const SiteLoss& loss) noexcept {
  if (loss.mean <= 0.0) {
    return;
  }
  mean_ += loss.mean;
  variance_ += loss.sigma * loss.sigma;
  max_ += loss.max;
  ++sites_hit_;
}

data::EltRow EventLossAccumulator::row() const noexcept {
  data::EltRow row;
  row.event_id = event_;
  row.mean_loss = mean_;
  row.sigma_loss = std::sqrt(variance_);
  row.exposure = std::max(max_, mean_);
  return row;
}

}  // namespace riskan::catmod
