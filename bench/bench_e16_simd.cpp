// E16 — vectorized trial kernel vs the scalar kernel.
//
// The batched engine's hot loop is per-occurrence arithmetic over gathered
// ELT means: resolve ground-up, apply loss_scale, run the LayerTerms
// occurrence algebra, fold the annual sum. All of it is data-parallel
// across a trial's hit list, so Kernel::Auto lifts it onto 4-wide (AVX2)
// or 2-wide (NEON) Money vectors with runtime CPU dispatch, keeping the
// lane fold in occurrence order so results stay bit-identical to
// Kernel::Scalar. Both sides run on the Sequential backend.
//
// The workload is chosen to put weight where the vector kernel works: a
// batched 16-contract book with dense hit lists (ELT covering ~40% of the
// catalogue, ~30 qualifying events per trial-year). The headline row is
// the kernel claim, so it runs secondary off and OEP off: it times the
// occurrence algebra alone. The full-roll-up row adds OEP, which each
// kernel accumulates and finishes per trial block in block-local scratch
// (256 trials per scalar block, 1024 per vector block, one lane max scan
// on both sides), and the secondary-on row adds sampling; both are
// reported right below it, ungated by the bar.
//
// Every pair runs in alternating rounds (bench::alternating_rounds: 9
// rounds, 5 in quick mode), so host drift lands on both arms: a row's
// times are each arm's median round, its ratio the median per-round
// ratio, with the least and largest per-round ratio beside it.
//
// Bit-identity of Auto with Scalar on Sequential and Threaded is verified
// before any timing, across secondary {off, on} × OEP {off, on}.
//
// Acceptance bar: Auto <= 0.7x Scalar wall-clock on a host that
// dispatches a wide ISA. Hosts without one skip with a notice (exit 0)
// and write the JSON without ratio keys, so the CI gate is
// hardware-aware.
#include <iostream>

#include "bench/common.hpp"
#include "core/aggregate_engine.hpp"
#include "core/portfolio_batch.hpp"
#include "core/simd.hpp"
#include "data/resolved_yelt.hpp"

using namespace riskan;

namespace {

/// Times `config` under Kernel::Scalar (arm a) against Kernel::Auto (arm
/// b) in alternating rounds.
bench::PairedSummary scalar_vs_auto(int rounds, const finance::Portfolio& portfolio,
                                    const data::YearEventLossTable& yelt,
                                    const core::EngineConfig& config) {
  core::EngineConfig scalar = config;
  scalar.kernel = core::Kernel::Scalar;
  core::EngineConfig vector = config;
  vector.kernel = core::Kernel::Auto;
  return bench::summarize(bench::alternating_rounds(
      rounds, [&] { core::run_aggregate_analysis(portfolio, yelt, scalar); },
      [&] { core::run_aggregate_analysis(portfolio, yelt, vector); }));
}

bool identical(const core::EngineResult& a, const core::EngineResult& b) {
  if (a.portfolio_occurrence_ylt.trials() != b.portfolio_occurrence_ylt.trials()) {
    return false;
  }
  for (TrialId t = 0; t < a.portfolio_ylt.trials(); ++t) {
    if (a.portfolio_ylt[t] != b.portfolio_ylt[t] ||
        a.reinstatement_premium[t] != b.reinstatement_premium[t]) {
      return false;
    }
  }
  for (TrialId t = 0; t < a.portfolio_occurrence_ylt.trials(); ++t) {
    if (a.portfolio_occurrence_ylt[t] != b.portfolio_occurrence_ylt[t]) {
      return false;
    }
  }
  for (std::size_t c = 0; c < a.contract_ylts.size(); ++c) {
    for (TrialId t = 0; t < a.contract_ylts[c].trials(); ++t) {
      if (a.contract_ylts[c][t] != b.contract_ylts[c][t]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  print_banner(std::cout, "E16: vectorized (SIMD) vs scalar trial kernel");

  bench::JsonReport json;
  json.set("experiment", std::string("e16_simd"));

  const core::exec::SimdDispatch dispatch = core::exec::simd_dispatch();
  json.set("simd_compiled", std::string(dispatch.compiled ? "yes" : "no"));
  json.set("simd_isa", std::string(dispatch.name));
  json.set("simd_width", static_cast<std::uint64_t>(dispatch.width));
  if (dispatch.width == 0) {
    // Hardware-aware skip: the gate only binds where a wide ISA runs.
    std::cout << "SKIP: no wide ISA dispatched on this build/host ("
              << dispatch.reason << ")\n";
    json.set("skipped", std::string(dispatch.reason));
    const std::string json_path = bench::artifact_path("BENCH_e16.json");
    json.write(json_path);
    std::cout << "wrote " << json_path << "\n";
    return 0;
  }
  std::cout << "dispatched ISA: " << dispatch.name << " (" << dispatch.width
            << " Money lanes)\n\n";

  const TrialId trials = bench::scaled_trials(20'000);
  const int rounds = bench::quick_mode() ? 5 : 9;
  auto w = bench::make_workload(/*contracts=*/16, /*elt_rows=*/4'000, trials,
                                /*events_per_year=*/30.0, /*catalog_events=*/10'000,
                                /*layers_per_contract=*/2);

  data::ResolverCache cache;
  core::EngineConfig config;
  config.resolver_cache = &cache;
  config.batch_contracts = true;
  config.keep_contract_ylts = true;

  // Correctness gate before any timing (and resolver-cache warm-up): the
  // vector kernel must reproduce the scalar kernel to the bit, secondary
  // off and on, OEP off and on, single-threaded and chunk-partitioned.
  for (const bool secondary : {false, true}) {
    for (const bool oep : {false, true}) {
      config.secondary_uncertainty = secondary;
      config.compute_oep = oep;
      config.backend = core::Backend::Sequential;
      config.kernel = core::Kernel::Scalar;
      const auto reference = core::run_aggregate_analysis(w.portfolio, w.yelt, config);
      config.kernel = core::Kernel::Auto;
      const auto simd = core::run_aggregate_analysis(w.portfolio, w.yelt, config);
      config.backend = core::Backend::Threaded;
      const auto threaded = core::run_aggregate_analysis(w.portfolio, w.yelt, config);
      if (!identical(reference, simd) || !identical(reference, threaded)) {
        std::cerr << "SIMD MISMATCH (secondary " << (secondary ? "on" : "off")
                  << ", oep " << (oep ? "on" : "off")
                  << ") — Auto outputs are not bit-identical to Scalar\n";
        return 1;
      }
    }
  }
  std::cout << "bit-identity verified: Scalar == Auto on Sequential and Threaded "
               "(secondary off/on x OEP off/on)\n\n";

  ReportTable table({"configuration", "scalar", "auto", "auto/scalar", "per-round range"});

  struct Row {
    const char* label;
    const char* key_prefix;  // "" = the headline pair
    bool secondary;
    bool oep;
  };
  constexpr Row kRows[] = {
      {"means (headline)", "", false, false},
      {"full roll-up (OEP on)", "oep_", false, true},
      {"secondary on", "secondary_", true, true},
  };

  double headline_ratio = 0.0;
  for (const Row& row : kRows) {
    config.secondary_uncertainty = row.secondary;
    config.compute_oep = row.oep;
    config.backend = core::Backend::Sequential;
    const bench::PairedSummary timed = scalar_vs_auto(rounds, w.portfolio, w.yelt, config);
    table.add_row({row.label, format_seconds(timed.a), format_seconds(timed.b),
                   format_fixed(timed.ratio, 2) + "x",
                   format_fixed(timed.ratio_min, 2) + "-" + format_fixed(timed.ratio_max, 2) +
                       "x"});
    const std::string prefix = row.key_prefix;
    const std::string ratio_key = prefix + "simd_vs_sequential_ratio";
    json.set(prefix + "sequential_seconds", timed.a);
    json.set(prefix + "simd_seconds", timed.b);
    json.set(ratio_key, timed.ratio);
    json.set(ratio_key + "_min", timed.ratio_min);
    json.set(ratio_key + "_max", timed.ratio_max);
    if (prefix.empty()) {
      headline_ratio = timed.ratio;
    }
  }

  // Informational: the vector kernel on the threaded trial partition vs
  // the scalar one, same chunk grain and regime as the headline.
  config.secondary_uncertainty = false;
  config.compute_oep = false;
  config.backend = core::Backend::Threaded;
  const bench::PairedSummary threaded = scalar_vs_auto(rounds, w.portfolio, w.yelt, config);
  table.add_row({"threaded: auto vs scalar", format_seconds(threaded.a),
                 format_seconds(threaded.b), format_fixed(threaded.ratio, 2) + "x",
                 format_fixed(threaded.ratio_min, 2) + "-" +
                     format_fixed(threaded.ratio_max, 2) + "x"});
  json.set("threaded_seconds", threaded.a);
  json.set("threaded_simd_seconds", threaded.b);
  json.set("threaded_simd_vs_threaded_ratio", threaded.ratio);
  json.set("threaded_simd_vs_threaded_ratio_min", threaded.ratio_min);
  json.set("threaded_simd_vs_threaded_ratio_max", threaded.ratio_max);

  bench::emit("e16_simd", table);

  std::cout << "\n[E16 verdict] simd/sequential on the means workload: "
            << format_fixed(headline_ratio, 2) << "x "
            << (headline_ratio <= 0.7 ? "(meets the <=0.7x bar)"
                                      : "(ABOVE the <=0.7x bar)")
            << "; all outputs bit-identical across kernels\n";

  json.set("trials", static_cast<std::uint64_t>(trials));
  json.set("rounds", static_cast<std::uint64_t>(rounds));
  const std::string json_path = bench::artifact_path("BENCH_e16.json");
  json.write(json_path);
  std::cout << "\nwrote " << json_path << "\n";
  return headline_ratio <= 0.7 ? 0 : 2;
}
