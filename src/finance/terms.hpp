// Reinsurance financial terms applied during aggregate analysis.
//
// A catastrophe excess-of-loss layer transforms losses in two passes:
//   per occurrence : l' = min(max(l - occ_retention, 0), occ_limit)
//   per year       : y' = min(max(sum l' - agg_retention, 0), agg_limit)
//   net to layer   : share * y'
// plus optional reinstatements, which cap the aggregate limit at
// (1 + reinstatements) * occ_limit and charge pro-rata reinstatement
// premium as the limit is consumed.
//
// These four numbers are the "financial terms" stage 2 applies to every
// event of every trial; their algebra (monotonicity, translation bounds)
// is covered by property tests.
#pragma once

#include <algorithm>
#include <limits>
#include <optional>
#include <span>

#include "util/types.hpp"

namespace riskan::finance {

/// How the per-occurrence retention operates.
enum class RetentionKind : std::uint8_t {
  /// Standard excess: pay the loss above the retention, capped.
  Deductible = 0,
  /// Franchise: once the loss clears the retention, pay from the ground up
  /// (common in industry-loss-warranty-style covers).
  Franchise = 1,
};

/// Excess-of-loss layer terms.
struct LayerTerms {
  Money occ_retention = 0.0;  ///< per-occurrence deductible (attachment)
  Money occ_limit = std::numeric_limits<Money>::max();  ///< per-occurrence limit
  Money agg_retention = 0.0;  ///< annual aggregate deductible
  Money agg_limit = std::numeric_limits<Money>::max();  ///< annual aggregate limit
  double share = 1.0;         ///< ceded share in (0, 1]
  RetentionKind retention_kind = RetentionKind::Deductible;

  /// Validates invariants (non-negative monies, share in (0,1]).
  void validate() const;

  /// A working catastrophe layer: retention 40M xs attach, 60M limit,
  /// 1 aggregate reinstatement, 100% share. Used by examples and benches as
  /// the paper's "typical contract".
  static LayerTerms typical();
};

/// Applies per-occurrence terms to one ground-up loss.
Money apply_occurrence(const LayerTerms& terms, Money ground_up) noexcept;

/// Applies annual aggregate terms to a year's summed occurrence losses.
Money apply_aggregate(const LayerTerms& terms, Money annual_sum) noexcept;

/// Inline bodies of apply_occurrence / apply_aggregate (which call these),
/// for the stage-2 kernel's hot loops in portable translation units. The
/// per-ISA SIMD units keep calling the out-of-line functions, so no copy
/// of these is ever compiled with wider-ISA flags.
inline Money occurrence_loss(const LayerTerms& terms, Money ground_up) noexcept {
  if (terms.retention_kind == RetentionKind::Franchise) {
    // Franchise: nothing until the trigger, then the full loss (capped).
    if (ground_up <= terms.occ_retention) {
      return 0.0;
    }
    return std::min(ground_up, terms.occ_limit);
  }
  const Money excess = ground_up - terms.occ_retention;
  if (excess <= 0.0) {
    return 0.0;
  }
  return std::min(excess, terms.occ_limit);
}

inline Money aggregate_loss(const LayerTerms& terms, Money annual_sum) noexcept {
  const Money excess = annual_sum - terms.agg_retention;
  if (excess <= 0.0) {
    return 0.0;
  }
  return std::min(excess, terms.agg_limit);
}

/// Full-year net: aggregate over occurrence-transformed losses, then share.
/// Convenience for tests; the engines inline the same algebra.
Money apply_year(const LayerTerms& terms, std::span<const Money> ground_up_losses) noexcept;

/// Reinstatement schedule for a layer (optional).
struct Reinstatements {
  int count = 0;                 ///< number of reinstatements purchased
  double premium_rate = 0.0;     ///< fraction of upfront premium per full reinstatement

  /// Aggregate limit implied by occurrence limit + reinstatements.
  Money implied_agg_limit(Money occ_limit) const noexcept;

  /// Reinstatement premium owed for `limit_consumed` of aggregate limit use,
  /// given the layer's occurrence limit and upfront premium. Pro-rata to
  /// amount, capped at `count` full reinstatements.
  Money premium_due(Money limit_consumed, Money occ_limit, Money upfront_premium) const noexcept {
    if (count <= 0 || occ_limit <= 0.0 || limit_consumed <= 0.0) {
      return 0.0;
    }
    // Only consumption beyond the original limit triggers reinstatement, up
    // to `count` full limits.
    const Money reinstated =
        std::clamp(limit_consumed, Money{0.0}, occ_limit * static_cast<double>(count));
    return upfront_premium * premium_rate * (reinstated / occ_limit);
  }
};

/// Partial re-statement of a layer's terms — the what-if currency of the
/// scenario engine (src/scenario). Each engaged field replaces the base
/// value; absent fields pass the base through untouched, so an empty
/// override is the identity. apply() validates the resulting terms, so a
/// sweep cannot silently construct an illegal layer.
struct LayerOverride {
  std::optional<Money> occ_retention;
  std::optional<Money> occ_limit;
  std::optional<Money> agg_retention;
  std::optional<Money> agg_limit;
  std::optional<double> share;
  std::optional<RetentionKind> retention_kind;
  std::optional<int> reinstatement_count;
  std::optional<double> reinstatement_rate;
  std::optional<Money> upfront_premium;

  bool empty() const noexcept {
    return !occ_retention && !occ_limit && !agg_retention && !agg_limit && !share &&
           !retention_kind && !reinstatement_count && !reinstatement_rate &&
           !upfront_premium;
  }

  /// Applies the engaged fields onto (terms, reinstatements, upfront);
  /// validates the overridden terms.
  void apply(LayerTerms& terms, Reinstatements& reinstatements, Money& upfront) const;
};

}  // namespace riskan::finance
