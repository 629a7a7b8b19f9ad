#include "catmod/hazard.hpp"

#include <algorithm>
#include <cmath>

namespace riskan::catmod {

double grid_distance(double x1, double y1, double x2, double y2) noexcept {
  return std::sqrt(grid_distance_squared(x1, y1, x2, y2));
}

void intensities_in_place(const CatalogEvent& event, std::span<double> squared_distances,
                          const HazardConfig& config) noexcept {
  const double scaled = config.eq_c1 * event.magnitude;
  const auto sweep = [&](auto attenuation) {
    for (double& value : squared_distances) {
      const double d = std::sqrt(value);
      value = d > config.cutoff_distance ? 0.0 : std::max(0.0, attenuation(d));
    }
  };
  switch (event.peril) {
    case Peril::Earthquake:
      sweep([&](double d) { return scaled - config.eq_c2 * std::log(d + config.eq_c3); });
      break;
    case Peril::Hurricane:
    case Peril::Tornado:
      sweep([&](double d) { return scaled * std::exp(-d / config.wind_decay); });
      break;
    case Peril::Flood:
    case Peril::Wildfire:
      // Footprint perils: intensity plateaus near the centre, then decays.
      sweep([&](double d) { return scaled / (1.0 + d * d); });
      break;
    default:
      std::fill(squared_distances.begin(), squared_distances.end(), 0.0);
      break;
  }
}

double local_intensity(const CatalogEvent& event, const Site& site,
                       const HazardConfig& config) noexcept {
  double value = grid_distance_squared(event.x, event.y, site.x, site.y);
  intensities_in_place(event, {&value, 1}, config);
  return value;
}

}  // namespace riskan::catmod
