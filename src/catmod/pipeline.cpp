#include "catmod/pipeline.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <span>

#include "catmod/financial.hpp"
#include "catmod/vulnerability.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"

namespace riskan::catmod {

namespace {

/// Sites per tile: bounds the scratch each task keeps on its stack.
constexpr std::size_t kTileSites = 1024;

}  // namespace

double zero_loss_floor(const Site& site) noexcept {
  const double bound =
      intensity_for_damage_ratio(zero_loss_damage_ratio(site), site.construction);
  if (!std::isfinite(bound)) {
    return bound;
  }
  return bound - 1e-6 * (1.0 + std::abs(bound));
}

data::EventLossTable run_cat_model(const EventCatalog& catalog,
                                   const ExposureDatabase& exposure,
                                   const PipelineConfig& config, PipelineStats* stats) {
  obs::Timer watch("catmod.pipeline");
  const auto& events = catalog.events();
  const auto& sites = exposure.sites();

  std::vector<double> site_x(sites.size());
  std::vector<double> site_y(sites.size());
  std::vector<double> site_floor(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    site_x[i] = sites[i].x;
    site_y[i] = sites[i].y;
    site_floor[i] = zero_loss_floor(sites[i]);
  }
  // The squared-distance pre-test only admits a superset of the sites
  // within the cutoff (and admits all of them when the cutoff is NaN);
  // `intensities_in_place` still tests the distance itself.
  const double cutoff = config.hazard.cutoff_distance;
  const double admit_squared = cutoff * cutoff * (1.0 + 1e-12);

  std::vector<data::EltRow> rows(events.size());
  std::vector<std::uint8_t> has_loss(events.size(), 0);
  std::atomic<std::uint64_t> pairs_with_loss{0};

  auto process_events = [&](std::size_t lo, std::size_t hi) {
    std::array<std::uint32_t, kTileSites> candidate{};
    std::array<double, kTileSites> value{};  // squared distance, then intensity
    std::uint64_t local_hits = 0;
    for (std::size_t e = lo; e < hi; ++e) {
      const auto& event = events[e];
      EventLossAccumulator accumulator(event.id);
      for (std::size_t begin = 0; begin < sites.size(); begin += kTileSites) {
        const std::size_t end = std::min(sites.size(), begin + kTileSites);
        std::size_t count = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const double d2 = grid_distance_squared(event.x, event.y, site_x[i], site_y[i]);
          candidate[count] = static_cast<std::uint32_t>(i - begin);
          value[count] = d2;
          count += !(d2 > admit_squared);
        }
        intensities_in_place(event, std::span(value.data(), count), config.hazard);
        for (std::size_t k = 0; k < count; ++k) {
          const double intensity = value[k];
          const std::size_t i = begin + candidate[k];
          if (intensity <= 0.0 || intensity < site_floor[i]) {
            continue;
          }
          const auto& site = sites[i];
          const auto loss = site_loss(site, damage_from_intensity(intensity, site.construction));
          if (loss.mean > 0.0) {
            ++local_hits;
            accumulator.add(loss);
          }
        }
      }
      if (accumulator.has_loss()) {
        const auto row = accumulator.row();
        if (row.mean_loss >= config.min_mean_loss) {
          rows[e] = row;
          has_loss[e] = 1;
        }
      }
    }
    pairs_with_loss += local_hits;
  };

  if (config.parallel) {
    parallel_for(0, events.size(), process_events,
                 ParallelConfig{config.pool, config.event_grain});
  } else {
    process_events(0, events.size());
  }

  std::vector<data::EltRow> kept;
  kept.reserve(events.size());
  for (std::size_t e = 0; e < events.size(); ++e) {
    if (has_loss[e] != 0) {
      kept.push_back(rows[e]);
    }
  }

  if (stats != nullptr) {
    stats->event_exposure_pairs =
        static_cast<std::uint64_t>(events.size()) * static_cast<std::uint64_t>(sites.size());
    stats->pairs_with_loss = pairs_with_loss.load();
    stats->elt_rows = kept.size();
    stats->seconds = watch.stop();
  }
  return data::EventLossTable::from_rows(std::move(kept));
}

}  // namespace riskan::catmod
