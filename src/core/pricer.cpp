#include "core/pricer.hpp"

#include <vector>

#include "obs/obs.hpp"
#include "util/stats.hpp"

namespace riskan::core {

RealTimePricer::RealTimePricer(const data::YearEventLossTable& yelt, EngineConfig config,
                               finance::PricingTerms pricing)
    : yelt_(yelt), config_(config), pricing_(pricing) {}

PricingQuote RealTimePricer::price(const finance::Contract& contract,
                                   const finance::Layer& layer) const {
  obs::Timer watch("pricer.quote");
  const auto losses = run_layer(contract, layer, yelt_, config_);
  PricingQuote quote;
  quote.seconds = watch.stop();
  quote.trials = yelt_.trials();
  // One copy and one selection serve TVaR99 and PML250.
  const double pml_level = 1.0 - 1.0 / 250.0;
  std::vector<double> selected(losses.begin(), losses.end());
  select_quantiles(selected, {&pml_level, 1}, finance::kTvarLevel);
  quote.loss_stats = finance::summarise_losses(losses, selected);
  quote.technical_premium = finance::technical_premium(quote.loss_stats, pricing_);
  quote.rate_on_line = finance::rate_on_line(quote.technical_premium, layer.terms.occ_limit);
  quote.pml_250 = quantile_sorted(selected, pml_level);
  return quote;
}

}  // namespace riskan::core
