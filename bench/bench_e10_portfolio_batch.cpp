// E10 — portfolio-batched execution ablation.
//
// After the E2b resolver hoisted per-occurrence lookups, the per-contract
// engine's remaining O(contracts) redundancy is the YELT walk itself: a
// C-contract book re-streams the trial structure C times (once per
// contract; its layers share the walk) and pays as many fork/join
// barriers. The batched path (core::PortfolioBatchRunner)
// makes one streamed pass per trial chunk serving every contract's layer
// stack from hit-compacted resolutions.
//
// This bench sweeps book size on the full portfolio-roll-up workload
// (per-contract YLTs and OEP kept, the examples/portfolio_analysis
// configuration; secondary uncertainty off isolates the streaming path —
// with it on, beta sampling dominates both paths equally) and reports
// batched vs per-contract wall-clock. Results are verified bit-identical
// before timing is reported. The two arms run in alternating order within
// each of 9 rounds (5 in quick mode), so host drift between them cancels
// instead of landing on one arm; the gate reads the median per-round
// ratio. Acceptance bar: batched <= 0.7x the per-contract loop on the
// >=16-contract shared-YELT book.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/common.hpp"
#include "core/aggregate_engine.hpp"
#include "core/portfolio_batch.hpp"
#include "data/resolved_yelt.hpp"

using namespace riskan;

int main() {
  print_banner(std::cout, "E10: portfolio-batched vs per-contract stage 2");

  const TrialId trials = bench::scaled_trials(50'000);
  const int rounds = bench::quick_mode() ? 5 : 9;
  const std::size_t book_sizes[] = {1, 4, 16, 64};

  core::EngineConfig config;
  config.kernel = core::Kernel::Scalar;  // this bench measures the scalar kernel
  config.backend = core::Backend::Threaded;
  config.secondary_uncertainty = false;
  config.compute_oep = true;       // the full roll-up outputs
  config.keep_contract_ylts = true;

  ReportTable table({"contracts", "layers", "per-contract", "batched",
                     "batched/per-contract", "per-round range", "occurrences/s batched"});
  bench::JsonReport json;
  json.set("experiment", std::string("e10_portfolio_batch"));
  json.set("trials", static_cast<std::uint64_t>(trials));
  json.set("secondary_uncertainty", std::string("off"));
  json.set("compute_oep", std::string("on"));
  json.set("rounds", static_cast<std::uint64_t>(rounds));

  double headline_ratio = 0.0;
  double device_modeled_ratio = 0.0;
  for (const std::size_t contracts : book_sizes) {
    auto w = bench::make_workload(contracts, /*elt_rows=*/1'000, trials,
                                  /*events_per_year=*/10.0, /*catalog_events=*/10'000,
                                  /*layers_per_contract=*/4);

    data::ResolverCache cache;
    config.resolver_cache = &cache;

    // Correctness gate first (also warms the resolver cache for both paths).
    config.batch_contracts = false;
    const auto reference = core::run_aggregate_analysis(w.portfolio, w.yelt, config);
    config.batch_contracts = true;
    const auto batched_result = core::run_aggregate_analysis(w.portfolio, w.yelt, config);
    for (TrialId t = 0; t < trials; ++t) {
      if (reference.portfolio_ylt[t] != batched_result.portfolio_ylt[t] ||
          reference.portfolio_occurrence_ylt[t] !=
              batched_result.portfolio_occurrence_ylt[t] ||
          reference.reinstatement_premium[t] != batched_result.reinstatement_premium[t]) {
        std::cerr << "BATCH MISMATCH at trial " << t
                  << " — outputs are not bit-identical\n";
        return 1;
      }
    }
    for (std::size_t c = 0; c < w.portfolio.size(); ++c) {
      for (TrialId t = 0; t < trials; ++t) {
        if (reference.contract_ylts[c][t] != batched_result.contract_ylts[c][t]) {
          std::cerr << "BATCH MISMATCH contract " << c << " trial " << t << "\n";
          return 1;
        }
      }
    }

    const auto timed = bench::alternating_rounds(
        rounds,
        [&] {
          config.batch_contracts = false;
          core::run_aggregate_analysis(w.portfolio, w.yelt, config);
        },
        [&] {
          config.batch_contracts = true;
          core::run_aggregate_analysis(w.portfolio, w.yelt, config);
        });
    std::vector<double> ratios;  // batched / per-contract, per round
    for (int r = 0; r < rounds; ++r) {
      ratios.push_back(timed.b[r] / timed.a[r]);
    }
    const double per_contract_s = bench::median(timed.a);
    const double batched_s = bench::median(timed.b);
    const double ratio = bench::median(ratios);
    const auto [ratio_min, ratio_max] = std::minmax_element(ratios.begin(), ratios.end());
    const double occ_per_s =
        static_cast<double>(batched_result.occurrences_processed) / batched_s;
    table.add_row({std::to_string(contracts),
                   std::to_string(w.portfolio.layer_count()),
                   format_seconds(per_contract_s), format_seconds(batched_s),
                   format_fixed(ratio, 2) + "x",
                   format_fixed(*ratio_min, 2) + "-" + format_fixed(*ratio_max, 2) + "x",
                   format_rate(occ_per_s)});

    const std::string prefix = "contracts_" + std::to_string(contracts) + "_";
    json.set(prefix + "per_contract_seconds", per_contract_s);
    json.set(prefix + "batched_seconds", batched_s);
    json.set(prefix + "ratio", ratio);
    json.set(prefix + "ratio_min", *ratio_min);
    json.set(prefix + "ratio_max", *ratio_max);
    if (contracts == 16) {
      headline_ratio = ratio;

      // Device-model row on the headline book: the batched plan models as
      // one launch sequence for the whole book, the per-contract lowering
      // as one per contract. Both sides are modeled device times, so their
      // ratio compares model with model; the gate is batched-modeled <=
      // loop-modeled.
      core::EngineConfig dev = config;
      core::DeviceRunInfo loop_info;
      dev.batch_contracts = false;
      dev.device_info = &loop_info;
      (void)core::run_aggregate_analysis(w.portfolio, w.yelt, dev);
      core::DeviceRunInfo batched_info;
      dev.batch_contracts = true;
      dev.device_info = &batched_info;
      (void)core::run_aggregate_analysis(w.portfolio, w.yelt, dev);
      device_modeled_ratio = batched_info.modeled_seconds / loop_info.modeled_seconds;
      std::cout << "\ndevice model (16 contracts): per-contract "
                << loop_info.launches << " launches / "
                << format_seconds(loop_info.modeled_seconds) << " modeled, batched "
                << batched_info.launches << " launches / "
                << format_seconds(batched_info.modeled_seconds) << " modeled ("
                << format_fixed(device_modeled_ratio, 2) << "x)\n\n";
      json.set("device_loop_modeled_seconds", loop_info.modeled_seconds);
      json.set("device_batched_modeled_seconds", batched_info.modeled_seconds);
      json.set("device_loop_launches", static_cast<std::uint64_t>(loop_info.launches));
      json.set("device_batched_launches",
               static_cast<std::uint64_t>(batched_info.launches));
      json.set("device_batched_vs_loop_modeled_ratio", device_modeled_ratio);
    }
  }
  bench::emit("e10_portfolio_batch", table);

  std::cout << "\n[E10 verdict] batched/per-contract on the 16-contract book: "
            << format_fixed(headline_ratio, 2) << "x "
            << (headline_ratio <= 0.7 ? "(meets the <=0.7x bar)"
                                      : "(ABOVE the <=0.7x bar)")
            << "; device-model batched/loop modeled "
            << format_fixed(device_modeled_ratio, 2) << "x "
            << (device_modeled_ratio <= 1.0 ? "(meets the <=1.0x bar)"
                                            : "(ABOVE the <=1.0x bar)")
            << "; all outputs bit-identical across paths\n";

  json.set("headline_ratio_16_contracts", headline_ratio);
  const std::string json_path = bench::artifact_path("BENCH_e10.json");
  json.write(json_path);
  std::cout << "\nwrote " << json_path << "\n";
  return headline_ratio <= 0.7 && device_modeled_ratio <= 1.0 ? 0 : 2;
}
