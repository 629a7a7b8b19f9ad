// Hazard module — module (i) of the paper's catastrophe model: "the hazard
// intensity at exposure sites".
//
// Converts an event's magnitude and distance-to-site into a local intensity
// on a peril-appropriate scale via standard attenuation forms:
//   EQ-like : I = c1*M - c2*ln(d + c3)        (Cornell-style attenuation)
//   wind-like: I = c1*M * exp(-d / decay)     (radial wind-field decay)
// Intensities are clipped at zero; events farther than a cutoff contribute
// nothing, which is what makes stage 1 sparse (each event touches only
// nearby exposure). `local_intensity` is the per-pair definition;
// `intensities_in_place` is the same operations over a batch of one
// event's candidate sites, with the peril's law chosen once per batch.
#pragma once

#include <span>

#include "catmod/event_catalog.hpp"
#include "catmod/exposure.hpp"

namespace riskan::catmod {

struct HazardConfig {
  double eq_c1 = 1.0;
  double eq_c2 = 1.8;
  double eq_c3 = 0.3;
  double wind_decay = 1.5;
  /// Sites beyond this grid distance see zero intensity.
  double cutoff_distance = 4.0;
};

/// Squared Euclidean distance on the abstract grid. `grid_distance` is its
/// square root, so a pre-test on it sees the bits the distance is made of.
inline double grid_distance_squared(double x1, double y1, double x2, double y2) noexcept {
  const double dx = x1 - x2;
  const double dy = y1 - y2;
  return dx * dx + dy * dy;
}

/// Euclidean distance on the abstract grid.
double grid_distance(double x1, double y1, double x2, double y2) noexcept;

/// Replaces each squared distance from `event` (as `grid_distance_squared`
/// gives it) by the local intensity there: >= 0, and 0 beyond the cutoff.
void intensities_in_place(const CatalogEvent& event, std::span<double> squared_distances,
                          const HazardConfig& config) noexcept;

/// Local intensity of `event` at `site`; >= 0, 0 beyond the cutoff.
double local_intensity(const CatalogEvent& event, const Site& site,
                       const HazardConfig& config = {}) noexcept;

}  // namespace riskan::catmod
