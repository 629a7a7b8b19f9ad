// Stage 1 written from its per-pair definition: every event-site pair, in
// site order, through local_intensity -> damage_from_intensity -> site_loss
// -> EventLossAccumulator, then the min_mean_loss filter. No tiles, no
// compaction, no zero-loss floor. `catmod::run_cat_model` must equal it bit
// for bit (Pipeline.EqualsThePerPairDefinition, and A1's stage-1 record
// checks it before timing).
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "catmod/event_catalog.hpp"
#include "catmod/exposure.hpp"
#include "catmod/financial.hpp"
#include "catmod/hazard.hpp"
#include "catmod/pipeline.hpp"
#include "catmod/vulnerability.hpp"
#include "data/elt.hpp"

namespace riskan::stage1_reference {

struct Result {
  data::EventLossTable elt;
  std::uint64_t event_exposure_pairs = 0;
  std::uint64_t pairs_with_loss = 0;
};

inline Result run(const catmod::EventCatalog& catalog, const catmod::ExposureDatabase& exposure,
                  const catmod::PipelineConfig& config = {}) {
  Result result;
  std::vector<data::EltRow> kept;
  for (const auto& event : catalog.events()) {
    catmod::EventLossAccumulator accumulator(event.id);
    for (const auto& site : exposure.sites()) {
      ++result.event_exposure_pairs;
      const double intensity = catmod::local_intensity(event, site, config.hazard);
      if (intensity <= 0.0) {
        continue;
      }
      const auto damage = catmod::damage_from_intensity(intensity, site.construction);
      const auto loss = catmod::site_loss(site, damage);
      if (loss.mean > 0.0) {
        ++result.pairs_with_loss;
        accumulator.add(loss);
      }
    }
    if (accumulator.has_loss()) {
      const auto row = accumulator.row();
      if (row.mean_loss >= config.min_mean_loss) {
        kept.push_back(row);
      }
    }
  }
  result.elt = data::EventLossTable::from_rows(std::move(kept));
  return result;
}

/// True when two ELTs hold the same event ids and the same bytes in every
/// loss column.
inline bool same_bits(const data::EventLossTable& a, const data::EventLossTable& b) {
  const auto same = [](auto x, auto y) {
    return x.size() == y.size() && std::memcmp(x.data(), y.data(), x.size_bytes()) == 0;
  };
  return same(a.event_ids(), b.event_ids()) && same(a.mean_loss(), b.mean_loss()) &&
         same(a.sigma_loss(), b.sigma_loss()) && same(a.exposure(), b.exposure());
}

}  // namespace riskan::stage1_reference
