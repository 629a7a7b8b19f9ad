// Stratified trial sampling over event-frequency strata — the variance-
// reduction companion of the convergence controller (core/adaptive).
//
// A YELT's trials differ enormously in how much they can move the mean:
// a 0-occurrence trial contributes exactly zero, a 12-occurrence trial is
// where the tail lives. Stratifying the trial population by occurrence
// count and spending the sampling budget where the per-stratum variance
// actually is (Neyman allocation, re-estimated between rounds from the
// samples drawn so far) estimates the portfolio mean loss to a target CI
// with a fraction of the uniform-sampling budget.
//
// The mechanics reuse the repo's one trial kernel: a drawn trial t is
// computed by core::batch::process_trials(lo = t, hi = t + 1) against the
// full table's offsets with the engine's global trial_base — which, because
// every sampling stream is keyed by (contract, trial_base + t, seq),
// reproduces trial t's losses bit-identically to a full fixed-budget run.
// The strata only decide WHICH trials are computed, never what any trial
// is worth — the "unstratified path is today's sampler" invariant the
// tests pin.
//
// Determinism: strata are a pure function of the table; per-stratum draw
// order is a seeded Fisher-Yates shuffle; round allocations are
// largest-remainder rounded (ties by stratum index); the cross-stratum
// draw interleave samples a util::AliasTable built over the round's
// allocations with a seeded generator. Same (table, book, seed, config) ⇒
// same drawn trials, same estimate, bit for bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "data/yelt.hpp"
#include "finance/contract.hpp"

namespace riskan::core::adaptive {

struct StratifiedConfig {
  /// Event-frequency strata to partition the trial population into (an
  /// upper bound: trials with equal occurrence counts never split, so
  /// degenerate tables yield fewer).
  std::size_t strata = 8;
  /// Draws per stratum in the pilot round (clipped to the stratum's
  /// population) — seeds the per-stratum variance estimates Neyman
  /// reallocation needs. At least 2, so every stratum gets a variance.
  TrialId pilot_per_stratum = 64;
  /// Budget per Neyman-reallocated round after the pilot.
  TrialId round_trials = 1024;
  /// Total draw budget (pilot included); clipped to the trial population.
  TrialId max_trials = 10'000;
  /// Stop early once half_width / |mean| closes under this; 0 = spend the
  /// whole budget.
  double target_rel_err = 0.0;
  /// Confidence level of the reported half-width.
  double confidence = 0.95;
};

/// ContractViolation on nonsense: strata in [1, 4096], pilot_per_stratum
/// in [2, 2^20], round_trials >= 1, max_trials >= 1, target_rel_err in
/// [0, 1), confidence in (0.5, 1).
void validate_stratified_config(const StratifiedConfig& config);

/// Partition of a table's trials by occurrence count: contiguous count
/// ranges, populations as equal as splitting only between distinct counts
/// allows. Every trial lands in exactly one stratum (tests enforce the
/// exact-partition invariant).
class StrataPartition {
 public:
  static StrataPartition build(const data::YearEventLossTable& yelt,
                               std::size_t strata);

  std::size_t size() const noexcept { return members_.size(); }
  /// Stratum index owning trials with this occurrence count.
  std::size_t stratum_of(std::uint64_t occurrences) const;
  /// Trial ids of stratum `h`, ascending.
  const std::vector<TrialId>& members(std::size_t h) const;
  /// Inclusive occurrence-count range of stratum `h`.
  std::uint64_t min_occurrences(std::size_t h) const;
  std::uint64_t max_occurrences(std::size_t h) const;

 private:
  std::vector<std::uint64_t> lo_;  ///< per-stratum inclusive count lower bound
  std::vector<std::uint64_t> hi_;  ///< per-stratum inclusive count upper bound
  std::vector<std::vector<TrialId>> members_;
};

/// Neyman allocation of `budget` draws across strata: targets proportional
/// to population[h] * stddev[h] (proportional to population alone when
/// every stddev is zero, e.g. the pilot round), rounded by largest
/// remainder (ties broken by lowest stratum index), each stratum capped at
/// its unsampled remainder population[h] - sampled[h] (draws are without
/// replacement). The returned allocations sum to min(budget, total
/// unsampled capacity) — the budget-conservation invariant the tests pin.
std::vector<TrialId> neyman_allocation(std::span<const TrialId> population,
                                       std::span<const TrialId> sampled,
                                       std::span<const double> stddev,
                                       TrialId budget);

struct StratumSummary {
  std::uint64_t min_occurrences = 0;  ///< inclusive count range of the stratum
  std::uint64_t max_occurrences = 0;
  TrialId population = 0;  ///< trials in the stratum
  TrialId sampled = 0;     ///< trials actually drawn
  double mean = 0.0;       ///< sample mean of the drawn losses
  double variance = 0.0;   ///< sample (n-1) variance of the drawn losses
};

/// One drawn trial, in draw order — lets tests assert each computed loss
/// against the corresponding trial of a full fixed-budget run.
struct StratifiedSample {
  TrialId trial = 0;
  Money loss = 0.0;
};

struct StratifiedResult {
  /// Stratified estimate of the portfolio mean annual loss:
  /// sum_h (N_h / N) * mean_h.
  double mean = 0.0;
  /// Half-width of the confidence interval at config.confidence, with
  /// finite-population correction per stratum.
  double half_width = 0.0;
  /// target_rel_err reached before the budget ran out.
  bool converged = false;
  TrialId trials_sampled = 0;
  TrialId trials_available = 0;
  std::vector<StratumSummary> strata;
  std::vector<StratifiedSample> samples;  ///< draw order
  double seconds = 0.0;
};

/// Estimates the portfolio mean annual loss by stratified sampling without
/// replacement over event-frequency strata, with Neyman reallocation
/// between rounds. Honours engine seed / secondary_uncertainty /
/// trial_base; each drawn trial's loss is bit-identical to the same trial
/// of run_aggregate_analysis with the same engine config.
StratifiedResult run_stratified_mean(const finance::Portfolio& portfolio,
                                     const data::YearEventLossTable& yelt,
                                     const EngineConfig& engine,
                                     const StratifiedConfig& config = {});

}  // namespace riskan::core::adaptive
