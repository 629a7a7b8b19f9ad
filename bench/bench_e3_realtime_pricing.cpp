// E3 — real-time pricing.
//
// Paper claim: "A 1 million trial aggregate simulation on a typical
// contract only takes 25 seconds and can therefore support real-time
// pricing."
//
// We price one typical contract (single XL layer, 10k-row ELT, ~10
// occurrences per trial year) against a 1M-trial YELT and report the
// wall-clock, with and without secondary-uncertainty sampling, plus the
// trial-count scaling series that shows time is linear in trials (the
// property that makes the 25 s budget predictable). Each row also times the
// whole price() call: the quote's `seconds` covers the simulation only, and
// the rest (mean, deviation, TVaR99, PML250 and the premium) is the share
// spent after it.
#include <iostream>

#include "bench/common.hpp"
#include "core/pricer.hpp"
#include "obs/obs.hpp"

using namespace riskan;

int main() {
  print_banner(std::cout, "E3: real-time pricing (paper's '25 seconds for 1M trials')");

  const TrialId full_trials = bench::scaled_trials(1'000'000);

  finance::PortfolioGenConfig pg;
  pg.contracts = 1;
  pg.catalog_events = 100'000;
  pg.elt_rows = 10'000;
  pg.seed = 1212;
  const auto portfolio = finance::generate_portfolio(pg);
  const auto& contract = portfolio.contract(0);
  const auto& layer = contract.layers()[0];

  ReportTable table({"trials", "secondary", "simulation", "price() call",
                     "after simulation", "trials/s", "premium", "PML(250y)"});

  for (const TrialId trials :
       {full_trials / 10, full_trials / 4, full_trials}) {
    data::YeltGenConfig yg;
    yg.trials = trials;
    yg.mean_events_per_year = 10.0;
    yg.seed = 555;
    const auto yelt = data::generate_yelt(pg.catalog_events, yg);

    for (const bool secondary : {false, true}) {
      core::EngineConfig config;
      config.kernel = core::Kernel::Scalar;  // this bench measures the scalar kernel
      config.backend = core::Backend::Threaded;
      config.secondary_uncertainty = secondary;
      const core::RealTimePricer pricer(yelt, config);
      obs::Timer call("bench.e3.price");
      const auto quote = pricer.price(contract, layer);
      const double call_seconds = call.stop();
      const double after_share = (call_seconds - quote.seconds) / call_seconds;
      table.add_row({format_count(static_cast<double>(trials)),
                     secondary ? "on" : "off", format_seconds(quote.seconds),
                     format_seconds(call_seconds), format_fixed(after_share * 100.0, 1) + "%",
                     format_rate(static_cast<double>(trials) / quote.seconds),
                     format_count(quote.technical_premium),
                     format_count(quote.pml_250)});
    }
  }
  bench::emit("e3_pricing", table);

  std::cout << "\n[E3 verdict] paper: 25 s for 1M trials on a 2012 GPU. The rows "
               "above show this host's 1M-trial wall-clock; time scales "
               "linearly in trials, so the real-time budget translates "
               "directly to a trials-per-second requirement ("
            << format_rate(1e6 / 25.0) << " to meet the paper's 25 s).\n";
  return 0;
}
