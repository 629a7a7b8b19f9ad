#include "finance/terms.hpp"

#include <algorithm>
#include <span>

#include "util/require.hpp"

namespace riskan::finance {

void LayerTerms::validate() const {
  RISKAN_REQUIRE(occ_retention >= 0.0, "occurrence retention must be non-negative");
  RISKAN_REQUIRE(occ_limit > 0.0, "occurrence limit must be positive");
  RISKAN_REQUIRE(agg_retention >= 0.0, "aggregate retention must be non-negative");
  RISKAN_REQUIRE(agg_limit > 0.0, "aggregate limit must be positive");
  RISKAN_REQUIRE(share > 0.0 && share <= 1.0, "share must lie in (0,1]");
}

LayerTerms LayerTerms::typical() {
  LayerTerms terms;
  terms.occ_retention = 40e6;
  terms.occ_limit = 60e6;
  terms.agg_retention = 0.0;
  terms.agg_limit = 120e6;  // one reinstatement of a 60M limit
  terms.share = 1.0;
  return terms;
}

Money apply_occurrence(const LayerTerms& terms, Money ground_up) noexcept {
  return occurrence_loss(terms, ground_up);
}

Money apply_aggregate(const LayerTerms& terms, Money annual_sum) noexcept {
  return aggregate_loss(terms, annual_sum);
}

Money apply_year(const LayerTerms& terms, std::span<const Money> ground_up_losses) noexcept {
  Money annual = 0.0;
  for (const Money gu : ground_up_losses) {
    annual += apply_occurrence(terms, gu);
  }
  return apply_aggregate(terms, annual) * terms.share;
}

void LayerOverride::apply(LayerTerms& terms, Reinstatements& reinstatements,
                          Money& upfront) const {
  if (occ_retention) terms.occ_retention = *occ_retention;
  if (occ_limit) terms.occ_limit = *occ_limit;
  if (agg_retention) terms.agg_retention = *agg_retention;
  if (agg_limit) terms.agg_limit = *agg_limit;
  if (share) terms.share = *share;
  if (retention_kind) terms.retention_kind = *retention_kind;
  if (reinstatement_count) {
    RISKAN_REQUIRE(*reinstatement_count >= 0, "reinstatement count must be non-negative");
    reinstatements.count = *reinstatement_count;
  }
  if (reinstatement_rate) {
    RISKAN_REQUIRE(*reinstatement_rate >= 0.0, "reinstatement rate must be non-negative");
    reinstatements.premium_rate = *reinstatement_rate;
  }
  if (upfront_premium) {
    RISKAN_REQUIRE(*upfront_premium >= 0.0, "upfront premium must be non-negative");
    upfront = *upfront_premium;
  }
  terms.validate();
}

Money Reinstatements::implied_agg_limit(Money occ_limit) const noexcept {
  return occ_limit * static_cast<double>(count + 1);
}

}  // namespace riskan::finance
