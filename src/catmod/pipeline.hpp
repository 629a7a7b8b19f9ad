// Stage-1 pipeline: (catalogue x exposure) -> ELT.
//
// "An event-exposure pair is analysed using three modules that quantify
// (i) the hazard intensity at exposure sites, (ii) the vulnerability of the
// buildings and the resulting damage level, and (iii) the resultant
// financial loss. The output at this stage is an Event-Loss Table."
//
// The paper notes stage 1 is "highly compute and data intensive" with data
// "organised in a small number of very large tables and streamed by
// independent processes, further to which the results need to be
// aggregated" — here: events are partitioned across the thread pool, each
// worker streams the exposure table per event, and per-event rows are
// aggregated into the ELT.
//
// Most pairs cannot lose: they lie beyond the hazard cutoff, or their
// intensity is under what the site's deductible absorbs. So each event
// sweeps the sites in fixed-size tiles, in site order, in three passes: a
// branch-free pass compacts the sites the cutoff may admit, a per-peril
// pass computes their intensities, and a last pass runs vulnerability and
// the financial module only where the intensity reaches the site's
// zero-loss floor. The pairs skipped are exactly pairs whose loss is zero,
// so the ELT equals the every-pair sweep bit for bit (docs/architecture.md,
// "Stage 1").
#pragma once

#include <cstdint>

#include "catmod/event_catalog.hpp"
#include "catmod/exposure.hpp"
#include "catmod/hazard.hpp"
#include "data/elt.hpp"
#include "parallel/thread_pool.hpp"

namespace riskan::catmod {

struct PipelineConfig {
  HazardConfig hazard;
  /// Drop ELT rows with mean loss below this floor (noise suppression).
  Money min_mean_loss = 1.0;
  /// Parallelise over events on this pool (nullptr = shared pool);
  /// single-threaded when `parallel` is false.
  ThreadPool* pool = nullptr;
  bool parallel = true;
  /// Events per pool task.
  std::size_t event_grain = 64;
};

struct PipelineStats {
  /// Pairs the model covers: events x sites, including the pairs the
  /// passes skip because their loss is certainly zero.
  std::uint64_t event_exposure_pairs = 0;
  std::uint64_t pairs_with_loss = 0;
  std::uint64_t elt_rows = 0;
  double seconds = 0.0;
};

/// The intensity below which `site_loss` is certainly zero at `site`: the
/// fragility curve's inverse at `zero_loss_damage_ratio(site)`, less a
/// margin of 1e-6 (1 + |bound|) for the rounding of the damage chain.
/// +infinity for a site that never loses, -infinity where nothing bounds.
double zero_loss_floor(const Site& site) noexcept;

/// Runs the three stage-1 modules over every event-exposure pair that can
/// lose and aggregates per-event rows into an ELT, equal bit for bit to
/// evaluating every pair in site order. Deterministic (no sampling at this
/// stage; uncertainty is carried as the rows' sigma).
data::EventLossTable run_cat_model(const EventCatalog& catalog, const ExposureDatabase& exposure,
                                   const PipelineConfig& config = {},
                                   PipelineStats* stats = nullptr);

}  // namespace riskan::catmod
