#include "core/adaptive/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "obs/obs.hpp"
#include "util/require.hpp"

namespace riskan::core::adaptive {

namespace {

constexpr TrialId kMaxBlockTrials = TrialId{1} << 30;
constexpr std::uint64_t kMaxMinBatches = std::uint64_t{1} << 30;

}  // namespace

const char* metric_name(Metric metric) noexcept {
  switch (metric) {
    case kMean: return "mean";
    case kVar: return "var";
    case kTvar: return "tvar";
    case kOccVar: return "occ_var";
    case kOccTvar: return "occ_tvar";
  }
  return "unknown";
}

const char* to_string(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::None: return "none";
    case StopReason::Converged: return "converged";
    case StopReason::Exhausted: return "exhausted";
  }
  return "unknown";
}

void validate_adaptive_config(const AdaptiveConfig& config) {
  RISKAN_REQUIRE(config.target_rel_err >= 0.0 && config.target_rel_err < 1.0,
                 "adaptive target_rel_err must lie in [0,1)");
  RISKAN_REQUIRE(config.confidence > 0.5 && config.confidence < 1.0,
                 "adaptive confidence must lie in (0.5,1)");
  RISKAN_REQUIRE(config.tail_level > 0.0 && config.tail_level < 1.0,
                 "adaptive tail_level must lie in (0,1)");
  RISKAN_REQUIRE((config.metrics & ~kAllMetrics) == 0,
                 "adaptive metric set contains unknown metric bits");
  RISKAN_REQUIRE(config.block_trials > 0, "adaptive block_trials must be positive");
  RISKAN_REQUIRE(config.block_trials <= kMaxBlockTrials,
                 "adaptive block_trials is absurdly large (max 2^30)");
  RISKAN_REQUIRE(config.min_batches >= 2,
                 "adaptive min_batches must be at least 2 (a CI needs variance)");
  RISKAN_REQUIRE(config.min_batches <= kMaxMinBatches,
                 "adaptive min_batches is absurdly large (max 2^30)");
  if (config.enabled()) {
    RISKAN_REQUIRE(config.metrics != 0, "adaptive run monitors no metrics");
    RISKAN_REQUIRE(config.min_trials > 0, "adaptive min_trials must be positive");
    RISKAN_REQUIRE(config.max_trials == 0 || config.max_trials >= config.min_trials,
                   "adaptive max_trials must be 0 (uncapped) or >= min_trials");
  }
}

const MetricEstimate& AdaptiveReport::estimate(Metric metric) const {
  for (const MetricEstimate& e : estimates) {
    if (e.metric == metric) {
      return e;
    }
  }
  RISKAN_REQUIRE(false, "metric was not monitored by this adaptive run");
  // Unreachable; REQUIRE throws.
  return estimates.front();
}

ConvergenceController::ConvergenceController(const AdaptiveConfig& config,
                                             TrialId trials_available)
    : config_(config),
      available_(trials_available),
      p2_var_(config.tail_level),
      p2_occ_var_(config.tail_level) {
  validate_adaptive_config(config);
  RISKAN_REQUIRE(config.enabled(), "ConvergenceController needs adaptivity enabled");
  RISKAN_REQUIRE(trials_available > 0, "adaptive run needs trials to fold");
  cap_ = config.max_trials > 0 ? std::min(available_, config.max_trials) : available_;
  min_trials_ = std::min(config.min_trials, cap_);
  for (const Metric m : {kMean, kVar, kTvar, kOccVar, kOccTvar}) {
    if ((config.metrics & m) != 0) {
      tracks_.push_back({m, {}});
    }
  }
}

void ConvergenceController::fold(std::span<const Money> aggregate,
                                 std::span<const Money> occurrence) {
  RISKAN_REQUIRE(folded_ < cap_, "fold past the adaptive trial cap");
  // Clip to the cap: on grids coarser than the cap (dist blocks)
  // the final fold takes exactly the cap prefix, matching the grid the
  // single-process runner cuts.
  const TrialId take =
      std::min<TrialId>(static_cast<TrialId>(aggregate.size()), cap_ - folded_);
  RISKAN_REQUIRE(take > 0, "fold of an empty trial block");
  aggregate = aggregate.first(take);
  const bool want_occ = (config_.metrics & kOccurrenceMetrics) != 0;
  if (want_occ) {
    RISKAN_REQUIRE(occurrence.size() >= take,
                   "occurrence metrics monitored but no OEP partials folded");
  }
  occurrence = occurrence.size() >= take ? occurrence.first(take)
                                         : std::span<const Money>{};

  for (const Money x : aggregate) {
    stream_stats_.add(x);
    p2_var_.add(x);
  }
  for (const Money x : occurrence) {
    p2_occ_var_.add(x);
  }

  // Per-block exact sample metrics — one batch value per metric per block.
  std::vector<double> sorted(aggregate.begin(), aggregate.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> occ_sorted(occurrence.begin(), occurrence.end());
  std::sort(occ_sorted.begin(), occ_sorted.end());

  double block_sum = 0.0;
  for (const double x : sorted) {
    block_sum += x;
  }
  for (MetricTrack& track : tracks_) {
    switch (track.metric) {
      case kMean:
        track.batches.add(block_sum / static_cast<double>(take));
        break;
      case kVar:
        track.batches.add(quantile_sorted(sorted, config_.tail_level));
        break;
      case kTvar:
        track.batches.add(tail_mean_above(sorted, config_.tail_level));
        break;
      case kOccVar:
        track.batches.add(quantile_sorted(occ_sorted, config_.tail_level));
        break;
      case kOccTvar:
        track.batches.add(tail_mean_above(occ_sorted, config_.tail_level));
        break;
    }
  }
  folded_ += take;
  ++blocks_;

  // Controller telemetry: each fold counts, and the first fold that tips
  // the run into converged marks the stop decision on the timeline.
  static const obs::Counter folds =
      obs::MetricsRegistry::global().counter("adaptive.blocks_folded");
  static const obs::Counter trials =
      obs::MetricsRegistry::global().counter("adaptive.trials_folded");
  folds.add();
  trials.add(static_cast<double>(take));
  if (!stop_marked_ && should_stop()) {
    stop_marked_ = true;
    static const obs::Counter stops =
        obs::MetricsRegistry::global().counter("adaptive.stop_decisions");
    stops.add();
    static const std::uint32_t stop_event = obs::span_id("adaptive.stop");
    obs::trace_instant(stop_event);
  }
}

MetricEstimate ConvergenceController::estimate_of(const MetricTrack& track) const {
  MetricEstimate out;
  out.metric = track.metric;
  out.estimate = track.batches.mean();
  out.half_width = track.batches.half_width(config_.confidence);
  switch (track.metric) {
    case kMean: out.streaming = stream_stats_.mean(); break;
    case kVar: out.streaming = p2_var_.value(); break;
    case kOccVar: out.streaming = p2_occ_var_.value(); break;
    default: out.streaming = out.estimate; break;
  }
  const double scale = std::abs(out.estimate);
  if (out.half_width == 0.0) {
    // Degenerate-but-settled stream (e.g. constant losses): converged.
    out.rel_half_width = 0.0;
  } else if (scale == 0.0 || !std::isfinite(out.half_width)) {
    out.rel_half_width = std::numeric_limits<double>::infinity();
  } else {
    out.rel_half_width = out.half_width / scale;
  }
  out.converged = track.batches.batches() >= config_.min_batches &&
                  out.rel_half_width <= config_.target_rel_err;
  return out;
}

bool ConvergenceController::converged() const {
  if (folded_ < min_trials_) {
    return false;
  }
  for (const MetricTrack& track : tracks_) {
    if (!estimate_of(track).converged) {
      return false;
    }
  }
  return true;
}

bool ConvergenceController::should_stop() const {
  return folded_ >= cap_ || converged();
}

AdaptiveReport ConvergenceController::report() const {
  AdaptiveReport out;
  out.enabled = true;
  out.stop_reason = converged() ? StopReason::Converged : StopReason::Exhausted;
  out.trials_run = folded_;
  out.trials_available = available_;
  out.blocks_folded = blocks_;
  out.estimates.reserve(tracks_.size());
  for (const MetricTrack& track : tracks_) {
    out.estimates.push_back(estimate_of(track));
  }
  return out;
}

}  // namespace riskan::core::adaptive
