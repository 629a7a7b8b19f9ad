// E11 — scenario sweep vs independent batched runs.
//
// The scenario engine's claim (src/scenario, ISSUE 3): S what-if variants
// of one book share one streamed YELT pass, one set of event→row
// resolutions, and — under secondary uncertainty, stage 2's dominant FLOP
// cost — one beta sample per (contract, trial, occurrence) served to
// all S slots. Evaluating the same S variants naively costs S independent
// run_portfolio_batch runs.
//
// This bench runs a 16-scenario mixed sweep (term re-strikes, demand-surge
// scales, exclusion masks, post-event conditioning, a contract drop) on the
// E10 16-contract × 4-layer book, verifies the identity contract
// (sweep base bit-identical to run_portfolio_batch) before timing, and
// reports sweep wall-clock against 16 independent warm batched runs, the
// two arms timed in alternating rounds (bench::alternating_rounds: 9
// rounds, 5 in quick mode), so host drift lands on both; each arm's row is
// its median round and the gated ratio is the median per-round ratio.
// Acceptance bar: sweep <= 0.5x the independent runs. Secondary
// uncertainty is ON (the engine default and the realistic pricing regime);
// the secondary-off ratio is reported alongside since it isolates the
// streaming/terms dedupe from the sampling dedupe.
//
// With secondary uncertainty on it also times the same sweep streamed from
// the YELT saved as a chunked file of 16 blocks (data::ChunkedFileSource),
// after checking every run against the resident sweep bit for bit. A
// streamed sweep gathers by lookup and builds no resolution, so its
// streamed_resolve_seconds must read 0. That row, the median of as many
// lone runs as there are rounds, is reported, not gated.
#include <algorithm>
#include <iostream>

#include "bench/common.hpp"
#include "core/aggregate_engine.hpp"
#include "core/portfolio_batch.hpp"
#include "core/streaming.hpp"
#include "data/resolved_yelt.hpp"
#include "data/trial_source.hpp"
#include "scenario/sweep.hpp"
#include "obs/obs.hpp"
#include "util/bytes.hpp"

using namespace riskan;

namespace {

constexpr std::size_t kScenarios = 16;

std::vector<scenario::ScenarioSpec> make_specs(const finance::Portfolio& portfolio) {
  std::vector<scenario::ScenarioSpec> specs;
  specs.reserve(kScenarios);

  // 5-point attachment sweep on every layer of the first contract.
  for (int i = 0; i < 5; ++i) {
    scenario::ScenarioSpec spec;
    spec.name = "attach+" + std::to_string(10 * (i + 1)) + "%";
    scenario::TargetedOverride o;
    o.contract = portfolio.contract(0).id();
    for (const auto& layer : portfolio.contract(0).layers()) {
      o.layer = layer.id;
      o.override.occ_retention = layer.terms.occ_retention * (1.0 + 0.1 * (i + 1));
      spec.overrides.push_back(o);
    }
    specs.push_back(std::move(spec));
  }
  // 4-point demand-surge ladder.
  for (int i = 0; i < 4; ++i) {
    scenario::ScenarioSpec spec;
    spec.name = "surge-" + std::to_string(i);
    spec.loss_scale = 1.1 + 0.1 * i;
    specs.push_back(std::move(spec));
  }
  // 3 exclusion masks, two sharing content (planner dedupes to 2 columns).
  for (int i = 0; i < 3; ++i) {
    scenario::ScenarioSpec spec;
    spec.name = "mask-" + std::to_string(i);
    const EventId base_event = (i == 2) ? 500 : 100;
    for (EventId e = base_event; e < base_event + 50; ++e) {
      spec.excluded_events.push_back(e);
    }
    specs.push_back(std::move(spec));
  }
  // 3 post-event conditioning revisions of an event in the book's footprint.
  const EventId occurred = portfolio.contract(0).elt().event_ids()[0];
  for (int i = 0; i < 3; ++i) {
    scenario::ScenarioSpec spec;
    spec.name = "post-event-" + std::to_string(i);
    spec.conditioning = scenario::PostEventConditioning{occurred, 0.8 + 0.2 * i};
    specs.push_back(std::move(spec));
  }
  // One composition change: drop the last contract.
  scenario::ScenarioSpec drop;
  drop.name = "drop-tail";
  drop.dropped_contracts = {portfolio.contract(portfolio.size() - 1).id()};
  specs.push_back(std::move(drop));

  return specs;
}

struct Regime {
  const char* label;
  bool secondary;
};

/// Whether two runs' per-trial outputs are bit-identical.
bool same_outputs(const core::EngineResult& a, const core::EngineResult& b) {
  if (a.portfolio_ylt.trials() != b.portfolio_ylt.trials() ||
      a.contract_ylts.size() != b.contract_ylts.size()) {
    return false;
  }
  for (TrialId t = 0; t < a.portfolio_ylt.trials(); ++t) {
    if (a.portfolio_ylt[t] != b.portfolio_ylt[t] ||
        a.portfolio_occurrence_ylt[t] != b.portfolio_occurrence_ylt[t] ||
        a.reinstatement_premium[t] != b.reinstatement_premium[t]) {
      return false;
    }
  }
  for (std::size_t c = 0; c < a.contract_ylts.size(); ++c) {
    for (TrialId t = 0; t < a.portfolio_ylt.trials(); ++t) {
      if (a.contract_ylts[c][t] != b.contract_ylts[c][t]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  print_banner(std::cout, "E11: 16-scenario sweep vs 16 independent batched runs");

  const TrialId trials = bench::scaled_trials(50'000);
  const int rounds = bench::quick_mode() ? 5 : 9;
  auto w = bench::make_workload(/*contracts=*/16, /*elt_rows=*/1'000, trials,
                                /*events_per_year=*/10.0, /*catalog_events=*/10'000,
                                /*layers_per_contract=*/4);
  const auto specs = make_specs(w.portfolio);
  const std::string path = "/tmp/riskan_bench_e11.yeltc";
  const auto blocks =
      core::save_yelt_chunked(w.yelt, path, std::max<TrialId>(1, trials / 16));

  bench::JsonReport json;
  json.set("experiment", std::string("e11_scenarios"));
  json.set("trials", static_cast<std::uint64_t>(trials));
  json.set("scenarios", static_cast<std::uint64_t>(specs.size()));
  json.set("contracts", static_cast<std::uint64_t>(w.portfolio.size()));
  json.set("layers", static_cast<std::uint64_t>(w.portfolio.layer_count()));
  json.set("rounds", static_cast<std::uint64_t>(rounds));

  ReportTable table({"secondary", "16 independent", "sweep", "sweep/independent",
                     "per-round range", "occurrences/s sweep"});

  double headline_ratio = 0.0;
  for (const Regime regime : {Regime{"on", true}, Regime{"off", false}}) {
    data::ResolverCache cache;
    core::EngineConfig config;
    config.kernel = core::Kernel::Scalar;  // this bench measures the scalar kernel
    config.backend = core::Backend::Threaded;
    config.secondary_uncertainty = regime.secondary;
    config.compute_oep = true;
    config.keep_contract_ylts = false;
    config.resolver_cache = &cache;

    // Correctness gate: the identity contract, checked before timing.
    const auto reference = core::run_portfolio_batch(w.portfolio, w.yelt, config);
    const auto sweep = scenario::run_scenario_sweep(w.portfolio, w.yelt, specs, config);
    for (TrialId t = 0; t < trials; ++t) {
      if (reference.portfolio_ylt[t] != sweep.base.portfolio_ylt[t] ||
          reference.portfolio_occurrence_ylt[t] !=
              sweep.base.portfolio_occurrence_ylt[t] ||
          reference.reinstatement_premium[t] != sweep.base.reinstatement_premium[t]) {
        std::cerr << "SWEEP MISMATCH at trial " << t
                  << " — identity is not bit-identical to run_portfolio_batch\n";
        return 1;
      }
    }

    const bench::PairedSummary timed = bench::summarize(bench::alternating_rounds(
        rounds,
        [&] {
          for (std::size_t s = 0; s < specs.size(); ++s) {
            core::run_portfolio_batch(w.portfolio, w.yelt, config);
          }
        },
        [&] { scenario::run_scenario_sweep(w.portfolio, w.yelt, specs, config); }));
    const double independent_s = timed.a;
    const double sweep_s = timed.b;
    const double ratio = timed.ratio;
    // Occurrence walks the sweep serves per second (base + 16 scenarios).
    double swept_occurrences = static_cast<double>(sweep.base.occurrences_processed);
    for (const auto& result : sweep.scenarios) {
      swept_occurrences += static_cast<double>(result.occurrences_processed);
    }
    table.add_row({regime.label, format_seconds(independent_s), format_seconds(sweep_s),
                   format_fixed(ratio, 2) + "x",
                   format_fixed(timed.ratio_min, 2) + "-" + format_fixed(timed.ratio_max, 2) +
                       "x",
                   format_rate(swept_occurrences / sweep_s)});

    const std::string prefix = std::string("secondary_") + regime.label + "_";
    json.set(prefix + "independent_seconds", independent_s);
    json.set(prefix + "sweep_seconds", sweep_s);
    json.set(prefix + "ratio", ratio);
    json.set(prefix + "ratio_min", timed.ratio_min);
    json.set(prefix + "ratio_max", timed.ratio_max);
    if (regime.secondary) {
      headline_ratio = ratio;
      json.set("plan_contracts_resolved",
               static_cast<std::uint64_t>(sweep.plan.contracts_resolved));
      json.set("plan_resolutions_avoided",
               static_cast<std::uint64_t>(sweep.plan.resolutions_avoided));
      json.set("plan_distinct_masks",
               static_cast<std::uint64_t>(sweep.plan.distinct_masks));
      json.set("plan_slots", static_cast<std::uint64_t>(sweep.plan.slots));

      // The same sweep streamed from the chunked file, checked run by run
      // against the resident sweep before it is timed.
      const auto streamed_sweep = [&] {
        data::ChunkedFileSource source(path);
        return scenario::run_scenario_sweep(w.portfolio, source, specs, config);
      };
      const auto streamed = streamed_sweep();
      bool same = same_outputs(sweep.base, streamed.base) &&
                  streamed.scenarios.size() == sweep.scenarios.size();
      for (std::size_t s = 0; same && s < sweep.scenarios.size(); ++s) {
        same = same_outputs(sweep.scenarios[s], streamed.scenarios[s]);
      }
      if (!same) {
        std::cerr << "STREAMED SWEEP MISMATCH — a run is not bit-identical to the resident "
                     "sweep\n";
        return 1;
      }
      std::vector<double> streamed_times;
      for (int r = 0; r < rounds; ++r) {
        obs::Timer watch("bench.round");
        (void)streamed_sweep();
        streamed_times.push_back(watch.stop());
      }
      const double streamed_s = bench::median(streamed_times);
      std::cout << "streamed sweep (" << blocks << " chunked blocks): "
                << format_seconds(streamed_s) << ", resolution builds "
                << format_seconds(streamed.base.resolve_seconds) << "\n";
      json.set("streamed_blocks", static_cast<std::uint64_t>(blocks));
      json.set("streamed_sweep_seconds", streamed_s);
      json.set("streamed_resolve_seconds", streamed.base.resolve_seconds);
    }
  }
  remove_file(path);
  bench::emit("e11_scenarios", table);

  std::cout << "\n[E11 verdict] sweep/independent with secondary uncertainty: "
            << format_fixed(headline_ratio, 2) << "x "
            << (headline_ratio <= 0.5 ? "(meets the <=0.5x bar)"
                                      : "(ABOVE the <=0.5x bar)")
            << "; identity bit-identical to run_portfolio_batch\n";

  json.set("headline_ratio_secondary_on", headline_ratio);
  const std::string json_path = bench::artifact_path("BENCH_e11.json");
  json.write(json_path);
  std::cout << "\nwrote " << json_path << "\n";
  return headline_ratio <= 0.5 ? 0 : 2;
}
