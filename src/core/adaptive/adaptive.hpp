// Convergence-adaptive trial control — stop when the estimate is good
// enough, not when a fixed budget runs out.
//
// Every fixed-trial run answers "what do 50k trials say?"; risk questions
// are really "how many trials until VaR/TVaR are within x% at y%
// confidence?". This layer supplies the oracle: per decision block of
// trials, the per-trial YLT partials are folded into streaming estimators
// — running mean/variance (Welford), P² streaming quantiles for the
// full-stream VaR point estimate, and *batch means* for the confidence
// intervals: each block's exact sample metric (mean, type-7 VaR, TVaR) is
// one i.i.d. batch value, so a Student-t interval over batch values is
// valid even for the nonlinear tail metrics where per-sample CLT
// machinery is not. Once every monitored metric's relative half-width
// closes under target_rel_err (and min_trials is met), the run stops.
//
// Determinism is contractual, not statistical luck: the decision grid is a
// pure function of (block_trials, trials) — data::ReblockedSource re-cuts
// any inner source onto it — blocks are folded in trial order, and the
// per-trial losses are the engine's (keyed by global trial_base). So a
// given (seed, config) reaches a bit-identical stopping trial count and
// YLT prefix across Sequential/Threaded, in-memory or streamed,
// single-process or any dist worker count. With adaptivity off
// (target_rel_err = 0) nothing here runs at all and every entry point is
// bit-identical to pre-adaptive behaviour.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/stats.hpp"
#include "util/types.hpp"

namespace riskan::core::adaptive {

/// Metrics the stopping rule can monitor, as a bitmask
/// (AdaptiveConfig::metrics). Occurrence metrics read the OEP YLT and so
/// require compute_oep wherever they are monitored.
enum Metric : unsigned {
  kMean = 1u << 0,     ///< mean annual aggregate loss (AAL)
  kVar = 1u << 1,      ///< aggregate VaR at tail_level
  kTvar = 1u << 2,     ///< aggregate TVaR at tail_level
  kOccVar = 1u << 3,   ///< occurrence VaR at tail_level (needs OEP)
  kOccTvar = 1u << 4,  ///< occurrence TVaR at tail_level (needs OEP)
};

inline constexpr unsigned kOccurrenceMetrics = kOccVar | kOccTvar;
inline constexpr unsigned kAllMetrics = kMean | kVar | kTvar | kOccurrenceMetrics;

const char* metric_name(Metric metric) noexcept;

struct AdaptiveConfig {
  /// Relative CI half-width to stop at; 0 disables adaptivity entirely
  /// (the default — every entry point then behaves exactly as before).
  double target_rel_err = 0.0;
  /// Confidence level of the batch-means intervals (two-sided).
  double confidence = 0.95;
  /// Floor/ceiling on trials consumed. min guards against lucky early
  /// stops on a handful of blocks; max (0 = source size) bounds the spend
  /// when the target never closes.
  TrialId min_trials = 2'000;
  TrialId max_trials = 0;
  /// Which metrics must all converge before stopping.
  unsigned metrics = kMean | kVar | kTvar;
  /// Tail level of the VaR/TVaR metrics (type-7 quantile level).
  double tail_level = 0.99;
  /// Trials per decision block — the convergence-check granularity and
  /// the batch size of the batch-means CIs. The stopping decision depends
  /// on this grid, never on how the data source chunks its trials.
  TrialId block_trials = 1'000;
  /// Batches required before a CI is trusted at all (t intervals on 2-3
  /// batches are wild).
  std::uint64_t min_batches = 8;

  bool enabled() const noexcept { return target_rel_err > 0.0; }
};

/// Cross-field sanity with ContractViolation, mirroring
/// validate_engine_config (which calls this): bounded levels, non-zero
/// known metric set, min <= max. Called even when adaptivity is off so a
/// nonsensical config never rides along silently.
void validate_adaptive_config(const AdaptiveConfig& config);

enum class StopReason : std::uint8_t {
  None,       ///< adaptivity off (or controller never ran)
  Converged,  ///< every monitored metric closed under target
  Exhausted,  ///< hit max_trials / the source's end without converging
};

const char* to_string(StopReason reason) noexcept;

/// One monitored metric's state at the stopping point.
struct MetricEstimate {
  Metric metric = kMean;
  /// Batch-means point estimate (centre of the CI below).
  double estimate = 0.0;
  /// Full-stream streaming estimate: Welford mean for kMean, the P²
  /// quantile for kVar/kOccVar; equal to `estimate` for the TVaRs (which
  /// have no constant-memory single-stream form here).
  double streaming = 0.0;
  double half_width = 0.0;
  double rel_half_width = 0.0;
  bool converged = false;
};

struct AdaptiveReport {
  bool enabled = false;
  StopReason stop_reason = StopReason::None;
  /// The stopping trial count — deterministic in (seed, config).
  TrialId trials_run = 0;
  /// Trials the source offered (what a non-adaptive run would consume).
  TrialId trials_available = 0;
  std::uint64_t blocks_folded = 0;
  /// One entry per monitored metric, in Metric bit order.
  std::vector<MetricEstimate> estimates;

  bool converged() const noexcept { return stop_reason == StopReason::Converged; }
  /// Estimate for `metric`; REQUIREs that it was monitored.
  const MetricEstimate& estimate(Metric metric) const;
};

/// Folds per-block YLT partials in trial order and answers "stop now?".
/// Pure accumulator — it never runs trials itself, so the engine's block
/// runner (core::run_books, which runs plain runs and scenario sweeps) and
/// the dist coordinator's completion frontier share one stopping rule and
/// therefore one stopping trial count.
class ConvergenceController {
 public:
  /// `trials_available` is what the source can offer; the effective cap is
  /// min(available, config.max_trials when set).
  ConvergenceController(const AdaptiveConfig& config, TrialId trials_available);

  /// Folds the next block's per-trial partials, in trial order.
  /// `aggregate` is the block's AEP slice; `occurrence` its OEP slice
  /// (pass empty when OEP is off — required to be non-empty only when an
  /// occurrence metric is monitored). Trials past the cap are clipped, so
  /// a cap landing mid-block folds exactly the grid prefix every caller
  /// agrees on.
  void fold(std::span<const Money> aggregate, std::span<const Money> occurrence);

  /// True once converged or at the trial cap. Checked between blocks.
  bool should_stop() const;
  bool converged() const;

  TrialId trials_folded() const noexcept { return folded_; }

  AdaptiveReport report() const;

 private:
  struct MetricTrack {
    Metric metric = kMean;
    BatchMeans batches;
  };

  MetricEstimate estimate_of(const MetricTrack& track) const;

  AdaptiveConfig config_;
  TrialId available_ = 0;
  TrialId cap_ = 0;
  TrialId min_trials_ = 0;
  TrialId folded_ = 0;
  std::uint64_t blocks_ = 0;
  bool stop_marked_ = false;  ///< obs: the stop decision is traced once

  std::vector<MetricTrack> tracks_;  ///< monitored metrics, Metric bit order
  OnlineStats stream_stats_;         ///< full-stream aggregate moments
  P2Quantile p2_var_;                ///< full-stream aggregate quantile
  P2Quantile p2_occ_var_;            ///< full-stream occurrence quantile
};

}  // namespace riskan::core::adaptive
