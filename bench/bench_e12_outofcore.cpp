// E12 — out-of-core streaming vs in-memory stage 2.
//
// An out-of-core run rides the exact execution machinery of the in-memory
// engine: the runner lowers one plan per trial block, and a background
// prefetch pipeline (data::ChunkedFileSource) reads+decodes block c+1 while
// block c computes. This bench measures what that unification costs and
// what the overlap buys, on the E10 headline workload (16 contracts x 4
// layers, full roll-up outputs, secondary off to stress the data plane
// rather than the sampler):
//
//   in-memory     — run_aggregate_analysis over the resident YELT
//                   (Threaded), gathering by in-kernel lookup: the
//                   streamed/in-memory ratio's denominator.
//   streamed      — the same run over a ChunkedFileSource, prefetch on,
//                   Threaded: the production out-of-core configuration,
//                   and the ratio's numerator.
//   overlap pair  — sync-decode vs prefetch under the *Sequential*
//                   backend: with one compute thread, any second hardware
//                   thread is free to run the producer, so the pair
//                   isolates exactly what the pipeline hides (under
//                   Threaded the pool already saturates every core and
//                   the comparison degenerates into scheduler noise).
//
// Both sides of the ratio gather by lookup and build no resolution (a
// streamed block dies with its pass, so lookup is the only gather it
// has), so the ratio isolates the data plane: read, decode and the
// prefetch pipeline. The resident compact gather (batch_contracts), cold
// (a fresh resolver cache per round, 16 compact builds) and warm, is
// reported in two rows for scale.
//
// Each pair is timed in alternating rounds (bench::alternating_rounds), so
// host drift lands on both arms; a row is its arm's median round, and each
// gated ratio is the median of the per-round ratios. A streamed round opens
// its source inside the clock, as a caller of run_aggregate_streaming does.
//
// Outputs are verified bit-identical across the regimes before timing.
// Acceptance bars: streamed/in-memory <= 1.5x, and prefetch beats the
// synchronous-decode baseline (prefetch/sync < 1.0 when a second hardware
// thread exists). Emits BENCH_e12.json.
#include <algorithm>
#include <iostream>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/aggregate_engine.hpp"
#include "core/streaming.hpp"
#include "data/trial_source.hpp"
#include "obs/obs.hpp"

using namespace riskan;

namespace {

bool same_results(const core::EngineResult& a, const core::EngineResult& b) {
  if (a.portfolio_ylt.trials() != b.portfolio_ylt.trials()) {
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
  print_banner(std::cout, "E12: out-of-core streaming vs in-memory stage 2");

  // Full size in quick mode too (the bench takes ~1 s): at a tenth of the
  // trials each block holds 312 trials, the per-block fixed cost of a
  // streamed pass dominates, and the lookup-against-lookup ratio reads
  // 2.1–2.5×, which says nothing about the data plane at the size the bar
  // and the record are set for.
  const TrialId trials = 50'000;
  const int rounds = bench::quick_mode() ? 5 : 9;
  const TrialId per_chunk = std::max<TrialId>(1, trials / 16);

  auto w = bench::make_workload(/*contracts=*/16, /*elt_rows=*/1'000, trials,
                                /*events_per_year=*/10.0, /*catalog_events=*/10'000,
                                /*layers_per_contract=*/4);

  const std::string path = "/tmp/riskan_bench_e12.yeltc";
  const auto blocks = core::save_yelt_chunked(w.yelt, path, per_chunk);

  core::EngineConfig config;
  config.kernel = core::Kernel::Scalar;  // this bench measures the scalar kernel
  config.backend = core::Backend::Threaded;
  config.secondary_uncertainty = false;
  config.compute_oep = true;
  config.keep_contract_ylts = true;

  // Correctness gate: streamed (both modes) and the resident compact
  // gather bit-identical to the resident lookup run.
  const auto reference = core::run_aggregate_analysis(w.portfolio, w.yelt, config);
  core::EngineConfig compact = config;
  compact.batch_contracts = true;
  data::ResolverCache warm_cache;
  compact.resolver_cache = &warm_cache;
  {
    if (!same_results(reference, core::run_aggregate_analysis(w.portfolio, w.yelt, compact))) {
      std::cerr << "COMPACT MISMATCH — outputs are not bit-identical\n";
      return 1;
    }
    data::ChunkedFileSource source(path);
    if (!same_results(reference, core::run_aggregate_analysis(w.portfolio, source, config))) {
      std::cerr << "STREAM MISMATCH (prefetch) — outputs are not bit-identical\n";
      return 1;
    }
    data::ChunkedFileSource::Options sync;
    sync.prefetch = false;
    data::ChunkedFileSource sync_source(path, sync);
    if (!same_results(reference,
                      core::run_aggregate_analysis(w.portfolio, sync_source, config))) {
      std::cerr << "STREAM MISMATCH (sync) — outputs are not bit-identical\n";
      return 1;
    }
  }

  using Stats = data::ChunkedFileSourceStats;
  // One streamed run over a freshly opened source; its pipeline telemetry
  // is appended to `stats`, one entry per round.
  const auto streamed_run = [&](bool prefetch, const core::EngineConfig& engine,
                                std::vector<Stats>& stats) {
    data::ChunkedFileSource::Options opts;
    opts.prefetch = prefetch;
    data::ChunkedFileSource source(path, opts);
    core::run_aggregate_analysis(w.portfolio, source, engine);
    stats.push_back(source.stats());
  };
  const auto per_round_ratios = [](const bench::PairedRounds& timed) {
    std::vector<double> ratios;  // b / a, per round
    for (std::size_t r = 0; r < timed.a.size(); ++r) {
      ratios.push_back(timed.b[r] / timed.a[r]);
    }
    return ratios;
  };
  const auto median_of = [](const std::vector<Stats>& stats,
                            double Stats::*field) {
    std::vector<double> values;
    for (const auto& s : stats) {
      values.push_back(s.*field);
    }
    return bench::median(values);
  };

  // Resident compact gather, for scale: warm (cache primed by the gate)
  // and cold (a fresh cache per round, so every round builds its
  // resolutions).
  const auto compact_rounds = bench::alternating_rounds(
      rounds, [&] { core::run_aggregate_analysis(w.portfolio, w.yelt, compact); },
      [&] {
        data::ResolverCache cold;
        core::EngineConfig cold_config = compact;
        cold_config.resolver_cache = &cold;
        core::run_aggregate_analysis(w.portfolio, w.yelt, cold_config);
      });

  // The gated pair: the resident run by lookup (the ratio's denominator)
  // against the streamed run with prefetch on. Streamed rounds gather by
  // lookup and touch no resolver cache.
  std::vector<Stats> streamed_stats;
  const auto gated = bench::alternating_rounds(
      rounds, [&] { core::run_aggregate_analysis(w.portfolio, w.yelt, config); },
      [&] { streamed_run(/*prefetch=*/true, config, streamed_stats); });

  // The overlap pair runs Sequential: one compute thread leaves any second
  // hardware thread free for the producer, so prefetch-vs-sync measures
  // the pipeline, not pool scheduling noise.
  core::EngineConfig seq = config;
  seq.backend = core::Backend::Sequential;
  std::vector<Stats> sync_stats;
  std::vector<Stats> prefetch_stats;
  const auto overlap = bench::alternating_rounds(
      rounds, [&] { streamed_run(/*prefetch=*/false, seq, sync_stats); },
      [&] { streamed_run(/*prefetch=*/true, seq, prefetch_stats); });

  const double compact_warm_s = bench::median(compact_rounds.a);
  const double compact_cold_s = bench::median(compact_rounds.b);
  const double inmemory_s = bench::median(gated.a);
  const double streamed_s = bench::median(gated.b);
  const double sync_seq_s = bench::median(overlap.a);
  const double prefetch_seq_s = bench::median(overlap.b);
  const std::vector<double> streamed_ratios = per_round_ratios(gated);
  const std::vector<double> overlap_ratios = per_round_ratios(overlap);
  const double streamed_ratio = bench::median(streamed_ratios);
  const double prefetch_over_sync = bench::median(overlap_ratios);
  const auto [streamed_ratio_min, streamed_ratio_max] =
      std::minmax_element(streamed_ratios.begin(), streamed_ratios.end());
  const auto [overlap_ratio_min, overlap_ratio_max] =
      std::minmax_element(overlap_ratios.begin(), overlap_ratios.end());
  // Overlap needs a second hardware thread to run the producer on; a
  // 1-thread host serialises the pipeline by construction, so there the
  // gate degrades to a generous overhead bound (the two regimes differ by
  // a few ms there, which is inside shared-host timing noise).
  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());
  const double prefetch_bar = hw_threads > 1 ? 1.0 : 1.25;
  // Fraction of the read+decode cost hidden behind compute, per Sequential
  // prefetch round: 1 when the consumer never stalls, 0 when every
  // produced byte was waited for.
  std::vector<double> efficiencies;
  for (const auto& s : prefetch_stats) {
    efficiencies.push_back(
        s.produce_seconds > 0.0 ? std::max(0.0, 1.0 - s.wait_seconds / s.produce_seconds)
                                : 0.0);
  }
  const double overlap_efficiency = bench::median(efficiencies);
  const std::uint64_t bytes_streamed = streamed_stats.front().bytes_read;

  ReportTable table({"regime", "wall-clock", "vs in-memory", "decode busy", "stall"});
  table.add_row({"in-memory, compact warm", format_seconds(compact_warm_s),
                 format_fixed(compact_warm_s / inmemory_s, 2) + "x", "-", "-"});
  table.add_row({"in-memory, compact cold", format_seconds(compact_cold_s),
                 format_fixed(compact_cold_s / inmemory_s, 2) + "x", "-", "-"});
  table.add_row({"in-memory (lookup)", format_seconds(inmemory_s), "1.00x", "-", "-"});
  table.add_row({"streamed, prefetch", format_seconds(streamed_s),
                 format_fixed(streamed_ratio, 2) + "x",
                 format_seconds(median_of(streamed_stats, &Stats::produce_seconds)),
                 format_seconds(median_of(streamed_stats, &Stats::wait_seconds))});
  table.add_row({"streamed, sync (sequential)", format_seconds(sync_seq_s), "-",
                 format_seconds(median_of(sync_stats, &Stats::produce_seconds)), "-"});
  table.add_row({"streamed, prefetch (sequential)", format_seconds(prefetch_seq_s), "-",
                 format_seconds(median_of(prefetch_stats, &Stats::produce_seconds)),
                 format_seconds(median_of(prefetch_stats, &Stats::wait_seconds))});
  bench::emit("e12_outofcore", table);

  std::cout << "\n" << blocks << " blocks x " << per_chunk << " trials, "
            << format_bytes(static_cast<double>(bytes_streamed))
            << " streamed; rows are medians of " << rounds
            << " alternating rounds; per-round streamed/in-memory "
            << format_fixed(*streamed_ratio_min, 2) << "-"
            << format_fixed(*streamed_ratio_max, 2) << "x, prefetch/sync (sequential) "
            << format_fixed(*overlap_ratio_min, 2) << "-" << format_fixed(*overlap_ratio_max, 2)
            << "x; overlap efficiency " << format_fixed(overlap_efficiency * 100.0, 0) << "%\n";

  std::cout << "\n[E12 verdict] streamed/in-memory "
            << format_fixed(streamed_ratio, 2) << "x "
            << (streamed_ratio <= 1.5 ? "(meets the <=1.5x bar)"
                                      : "(ABOVE the <=1.5x bar)")
            << "; prefetch/sync " << format_fixed(prefetch_over_sync, 2) << "x on "
            << hw_threads << " hardware thread(s) "
            << (prefetch_over_sync < prefetch_bar
                    ? (hw_threads > 1 ? "(overlap beats synchronous decode)"
                                      : "(within the 1-thread overhead bound)")
                    : "(ABOVE the bar)")
            << "; all outputs bit-identical across regimes\n";

  bench::JsonReport json;
  json.set("experiment", std::string("e12_outofcore"));
  json.set("trials", static_cast<std::uint64_t>(trials));
  json.set("blocks", static_cast<std::uint64_t>(blocks));
  json.set("trials_per_chunk", static_cast<std::uint64_t>(per_chunk));
  json.set("rounds", static_cast<std::uint64_t>(rounds));
  json.set("bytes_streamed", bytes_streamed);
  json.set("inmemory_compact_warm_seconds", compact_warm_s);
  json.set("inmemory_compact_cold_seconds", compact_cold_s);
  json.set("inmemory_seconds", inmemory_s);
  json.set("streamed_prefetch_seconds", streamed_s);
  json.set("overlap_sync_seconds", sync_seq_s);
  json.set("overlap_prefetch_seconds", prefetch_seq_s);
  json.set("streamed_over_inmemory_ratio", streamed_ratio);
  json.set("streamed_over_inmemory_ratio_min", *streamed_ratio_min);
  json.set("streamed_over_inmemory_ratio_max", *streamed_ratio_max);
  json.set("prefetch_over_sync", prefetch_over_sync);
  json.set("prefetch_over_sync_min", *overlap_ratio_min);
  json.set("prefetch_over_sync_max", *overlap_ratio_max);
  json.set("overlap_efficiency", overlap_efficiency);
  json.set("hardware_threads", static_cast<std::uint64_t>(hw_threads));
  const std::string json_path = bench::artifact_path("BENCH_e12.json");
  json.write(json_path);
  std::cout << "\nwrote " << json_path << "\n";

  remove_file(path);
  return streamed_ratio <= 1.5 && prefetch_over_sync < prefetch_bar ? 0 : 2;
}
