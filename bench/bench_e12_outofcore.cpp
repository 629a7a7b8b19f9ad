// E12 — out-of-core streaming vs in-memory stage 2.
//
// After the TrialSource refactor, an out-of-core run rides the exact
// execution machinery of the in-memory engine: the plan is lowered once and
// re-bound per trial block, and a background prefetch pipeline
// (data::ChunkedFileSource) reads+decodes block c+1 while block c computes.
// This bench measures what that unification costs and what the overlap
// buys, on the E10 headline workload (16 contracts x 4 layers, full
// roll-up outputs, secondary off to stress the data plane rather than the
// sampler):
//
//   in-memory     — run_aggregate_analysis over the resident YELT
//                   (Threaded), gathering by in-kernel lookup: the
//                   streamed/in-memory ratio's denominator.
//   streamed      — the same run over a ChunkedFileSource, prefetch on
//                   (double-buffered), Threaded: the production
//                   out-of-core configuration, and the ratio's numerator.
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
// (a fresh resolver cache per rep, 16 compact builds) and warm, is
// reported in two rows for scale.
//
// Outputs are verified bit-identical across the regimes before timing.
// Acceptance bars: streamed/in-memory <= 1.5x, and prefetch beats the
// synchronous-decode baseline (prefetch/sync < 1.0 when a second hardware
// thread exists). Emits BENCH_e12.json.
#include <algorithm>
#include <iostream>
#include <thread>

#include "bench/common.hpp"
#include "core/aggregate_engine.hpp"
#include "core/streaming.hpp"
#include "data/trial_source.hpp"
#include "obs/obs.hpp"

using namespace riskan;

namespace {

template <typename Run>
double best_seconds(int reps, const Run& run) {
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    obs::Timer watch("bench.rep");
    run();
    const double s = watch.stop();
    if (best < 0.0 || s < best) {
      best = s;
    }
  }
  return best;
}

struct StreamedTiming {
  double seconds = -1.0;
  data::ChunkedFileSourceStats stats;  // telemetry of the *winning* rep
};

/// Best-of-reps streamed run; wall-clock and pipeline telemetry are kept
/// from the same (fastest) rep so derived metrics describe the run whose
/// time is reported.
StreamedTiming best_streamed(int reps, const std::string& path, bool prefetch,
                             const finance::Portfolio& portfolio,
                             const core::EngineConfig& config) {
  StreamedTiming best;
  for (int r = 0; r < reps; ++r) {
    data::ChunkedFileSource::Options opts;
    opts.prefetch = prefetch;
    data::ChunkedFileSource source(path, opts);
    obs::Timer watch("bench.rep");
    core::run_aggregate_analysis(portfolio, source, config);
    const double s = watch.stop();
    if (best.seconds < 0.0 || s < best.seconds) {
      best.seconds = s;
      best.stats = source.stats();
    }
  }
  return best;
}

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
  const int reps = bench::quick_mode() ? 2 : 3;
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

  // Resident compact gather, for scale: warm (cache primed by the gate)
  // and cold (a fresh cache per rep, so every rep builds its resolutions).
  const double compact_warm_s = best_seconds(reps, [&] {
    core::run_aggregate_analysis(w.portfolio, w.yelt, compact);
  });
  const double compact_cold_s = best_seconds(reps, [&] {
    data::ResolverCache cold;
    compact.resolver_cache = &cold;
    core::run_aggregate_analysis(w.portfolio, w.yelt, compact);
  });

  // The ratio's denominator: the resident run by lookup.
  const double inmemory_s = best_seconds(reps, [&] {
    core::run_aggregate_analysis(w.portfolio, w.yelt, config);
  });

  // Streamed reps gather by lookup and touch no resolver cache.
  const StreamedTiming streamed =
      best_streamed(reps, path, /*prefetch=*/true, w.portfolio, config);

  // The overlap pair runs Sequential: one compute thread leaves any second
  // hardware thread free for the producer, so prefetch-vs-sync measures
  // the pipeline, not pool scheduling noise.
  core::EngineConfig seq = config;
  seq.backend = core::Backend::Sequential;
  const StreamedTiming sync_seq =
      best_streamed(reps, path, /*prefetch=*/false, w.portfolio, seq);
  const StreamedTiming prefetch_seq =
      best_streamed(reps, path, /*prefetch=*/true, w.portfolio, seq);

  const double streamed_ratio = streamed.seconds / inmemory_s;
  const double prefetch_over_sync = prefetch_seq.seconds / sync_seq.seconds;
  // Overlap needs a second hardware thread to run the producer on; a
  // 1-thread host serialises the pipeline by construction, so there the
  // gate degrades to a generous overhead bound (the two regimes differ by
  // a few ms there, which is inside shared-host timing noise).
  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());
  const double prefetch_bar = hw_threads > 1 ? 1.0 : 1.25;
  // Fraction of the read+decode cost hidden behind compute: 1 when the
  // consumer never stalls, 0 when every produced byte was waited for.
  const double overlap_efficiency =
      prefetch_seq.stats.produce_seconds > 0.0
          ? std::max(0.0, 1.0 - prefetch_seq.stats.wait_seconds /
                                    prefetch_seq.stats.produce_seconds)
          : 0.0;

  ReportTable table({"regime", "wall-clock", "vs in-memory", "decode busy", "stall"});
  table.add_row({"in-memory, compact warm", format_seconds(compact_warm_s),
                 format_fixed(compact_warm_s / inmemory_s, 2) + "x", "-", "-"});
  table.add_row({"in-memory, compact cold", format_seconds(compact_cold_s),
                 format_fixed(compact_cold_s / inmemory_s, 2) + "x", "-", "-"});
  table.add_row({"in-memory (lookup)", format_seconds(inmemory_s), "1.00x", "-", "-"});
  table.add_row({"streamed, prefetch", format_seconds(streamed.seconds),
                 format_fixed(streamed_ratio, 2) + "x",
                 format_seconds(streamed.stats.produce_seconds),
                 format_seconds(streamed.stats.wait_seconds)});
  table.add_row({"streamed, sync (sequential)", format_seconds(sync_seq.seconds), "-",
                 format_seconds(sync_seq.stats.produce_seconds), "-"});
  table.add_row({"streamed, prefetch (sequential)", format_seconds(prefetch_seq.seconds),
                 "-", format_seconds(prefetch_seq.stats.produce_seconds),
                 format_seconds(prefetch_seq.stats.wait_seconds)});
  bench::emit("e12_outofcore", table);

  std::cout << "\n" << blocks << " blocks x " << per_chunk << " trials, "
            << format_bytes(static_cast<double>(streamed.stats.bytes_read))
            << " streamed; prefetch/sync (sequential) "
            << format_fixed(prefetch_over_sync, 2) << "x, overlap efficiency "
            << format_fixed(overlap_efficiency * 100.0, 0) << "%\n";

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
  json.set("bytes_streamed", streamed.stats.bytes_read);
  json.set("inmemory_compact_warm_seconds", compact_warm_s);
  json.set("inmemory_compact_cold_seconds", compact_cold_s);
  json.set("inmemory_seconds", inmemory_s);
  json.set("streamed_prefetch_seconds", streamed.seconds);
  json.set("overlap_sync_seconds", sync_seq.seconds);
  json.set("overlap_prefetch_seconds", prefetch_seq.seconds);
  json.set("streamed_over_inmemory_ratio", streamed_ratio);
  json.set("prefetch_over_sync", prefetch_over_sync);
  json.set("overlap_efficiency", overlap_efficiency);
  json.set("hardware_threads", static_cast<std::uint64_t>(hw_threads));
  const std::string json_path = bench::artifact_path("BENCH_e12.json");
  json.write(json_path);
  std::cout << "\nwrote " << json_path << "\n";

  remove_file(path);
  return streamed_ratio <= 1.5 && prefetch_over_sync < prefetch_bar ? 0 : 2;
}
