// E13 — multi-process distribution: worker scaling + fault recovery.
//
// The dist runtime (src/dist/coordinator.hpp) shards encoded trial blocks
// across real forked worker processes with lease-based scheduling, retry /
// re-queue and straggler re-execution. This bench measures the two numbers
// that story rests on, on the stage-2 workload:
//
//   scaling curve  — run_distributed_aggregate at 1/2/4/8 workers over an
//                    in-memory block fetcher (no faults), plus the
//                    in-process fallback path (workers = 0) for reference.
//                    Every run is verified bit-identical to the
//                    single-process engine before its time counts.
//   recovery pair  — the file-space job (run_distributed_aggregate over
//                    one chunked YELT file of the same 16 blocks, 4
//                    workers), clean vs with an injected hard crash of
//                    worker 0 on its first task, timed in alternating
//                    rounds; the gated overhead is the median per-round
//                    crash/clean ratio. It is the price of a worker death:
//                    detect EOF, respawn, re-queue and re-execute the lost
//                    block. The retry counters (DistStats::blocks_retried,
//                    bytes_resent, worker_deaths) must move under the
//                    fault — and the output must still be bit-identical.
//   lease expiry   — one stalled-worker run with a short lease, asserting
//                    leases_expired > 0 and bit-identity (first completion
//                    wins; the straggler's late duplicate is discarded).
//
// Acceptance bars: 4-worker <= 0.6x single-worker when >= 4 hardware
// threads exist (on fewer cores the workers time-slice one CPU and the
// curve is flat by construction, so the gate degrades to a <= 1.35x
// transport-overhead bound); crash recovery <= 1.5x the clean run; fault
// counters non-zero under injection. Emits BENCH_e13.json.
#include <algorithm>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/aggregate_engine.hpp"
#include "core/streaming.hpp"
#include "data/serialize.hpp"
#include "dist/coordinator.hpp"
#include "util/bytes.hpp"

using namespace riskan;

namespace {

bool same_ylt(const data::YearLossTable& a, const data::YearLossTable& b) {
  if (a.trials() != b.trials()) {
    return false;
  }
  for (TrialId t = 0; t < a.trials(); ++t) {
    if (a[t] != b[t]) {
      return false;
    }
  }
  return true;
}

struct DistTiming {
  double seconds = -1.0;
  dist::DistStats stats;  // telemetry of the winning rep
  bool identical = true;  // every rep bit-identical to the reference
};

/// Best-of-reps distributed run; every rep's output is checked against the
/// reference (a mismatch poisons the timing — there is nothing to measure
/// if recovery is not bit-exact), and the stats kept are the winning rep's.
DistTiming best_dist(int reps, const finance::Portfolio& portfolio,
                     const core::EngineConfig& engine,
                     std::span<const dist::BlockSpec> specs,
                     const dist::BlockFetcher& fetch, const dist::DistConfig& config,
                     const data::YearLossTable& reference) {
  DistTiming best;
  for (int r = 0; r < reps; ++r) {
    const auto result = dist::run_distributed_aggregate(portfolio, engine, specs, fetch, config);
    if (!same_ylt(result.portfolio_ylt, reference)) {
      best.identical = false;
    }
    if (best.seconds < 0.0 || result.seconds < best.seconds) {
      best.seconds = result.seconds;
      best.stats = result.stats;
    }
  }
  return best;
}

}  // namespace

int main() {
  print_banner(std::cout, "E13: multi-process workers — scaling and fault recovery");

  const TrialId trials = bench::scaled_trials(24'000);
  const int reps = bench::quick_mode() ? 2 : 3;
  const int rounds = bench::quick_mode() ? 5 : 9;
  const TrialId per_block = std::max<TrialId>(1, trials / 16);

  auto w = bench::make_workload(/*contracts=*/8, /*elt_rows=*/500, trials,
                                /*events_per_year=*/10.0, /*catalog_events=*/10'000,
                                /*layers_per_contract=*/2);

  // The engine every regime runs: the coordinator normalises workers onto
  // the pool-free Sequential kernel, so the reference uses the same knobs.
  core::EngineConfig engine;
  engine.kernel = core::Kernel::Scalar;  // this bench measures the scalar kernel
  engine.backend = core::Backend::Sequential;
  engine.compute_oep = false;
  engine.keep_contract_ylts = false;

  const auto reference =
      core::run_aggregate_analysis(w.portfolio, w.yelt, engine).portfolio_ylt;

  // Blocks partition the trial space; the fetcher serves pre-encoded bytes
  // from memory so the scaling curve measures the transport + workers, not
  // disk.
  std::vector<dist::BlockSpec> specs;
  std::vector<std::vector<std::byte>> encoded;
  std::uint64_t encoded_bytes = 0;
  for (TrialId lo = 0; lo < trials; lo += per_block) {
    const TrialId hi = std::min<TrialId>(trials, lo + per_block);
    ByteWriter writer;
    data::encode_yelt_slice(w.yelt, lo, hi, writer);
    specs.push_back({encoded.size(), lo, hi - lo});
    encoded.push_back(writer.buffer());
    encoded_bytes += encoded.back().size();
  }
  const auto fetch = [&](const dist::BlockSpec& spec) { return encoded[spec.id]; };

  // Scaling curve. A generous lease keeps spurious expiries out of the
  // no-fault timings even when all the workers time-slice one core.
  dist::DistConfig base;
  base.lease_seconds = 10.0;

  dist::DistConfig inproc = base;
  inproc.workers = 0;
  const DistTiming inprocess =
      best_dist(reps, w.portfolio, engine, specs, fetch, inproc, reference);

  const std::size_t worker_counts[] = {1, 2, 4, 8};
  DistTiming scaled[4];
  bool identical = inprocess.identical;
  for (std::size_t i = 0; i < 4; ++i) {
    dist::DistConfig config = base;
    config.workers = worker_counts[i];
    scaled[i] = best_dist(reps, w.portfolio, engine, specs, fetch, config, reference);
    identical = identical && scaled[i].identical;
  }

  // Recovery pair: the file-space job over one chunked file of the same
  // blocks, clean vs one injected hard crash (worker 0, first task), in
  // alternating rounds so that host drift lands on both arms. The crash
  // run pays for an EOF detection, a respawn and one block re-execution.
  const std::string yelt_path = "/tmp/riskan_bench_e13.yeltc";
  core::save_yelt_chunked(w.yelt, yelt_path, per_block);
  dist::DistConfig clean = base;
  clean.workers = 4;
  // Immediate first re-queue: the pair prices detection + respawn +
  // re-execution, not the exponential-backoff politeness delay (which is
  // for *repeated* failures and would dominate a quick-mode run).
  clean.backoff_initial_seconds = 0.0;
  dist::DistConfig crash = clean;
  crash.faults.crash = {/*worker=*/0, /*at_task=*/1};
  dist::DistStats clean_stats;
  dist::DistStats crash_stats;
  const auto file_run = [&](const dist::DistConfig& config, dist::DistStats& stats) {
    const auto result = dist::run_distributed_aggregate(w.portfolio, engine, yelt_path, config);
    identical = identical && same_ylt(result.portfolio_ylt, reference);
    stats = result.stats;
  };
  const auto recovery =
      bench::alternating_rounds(rounds, [&] { file_run(clean, clean_stats); },
                                [&] { file_run(crash, crash_stats); });
  remove_file(yelt_path);
  std::vector<double> recovery_ratios;  // crash / clean, per round
  for (int r = 0; r < rounds; ++r) {
    recovery_ratios.push_back(recovery.b[r] / recovery.a[r]);
  }
  const double clean_s = bench::median(recovery.a);
  const double crash_s = bench::median(recovery.b);

  // Lease-expiry probe: a short lease and a stalled worker — the block is
  // re-executed elsewhere and the straggler's late duplicate discarded.
  dist::DistConfig stall = base;
  stall.workers = 2;
  stall.lease_seconds = 0.25;
  stall.faults.stall = {/*worker=*/0, /*at_task=*/1};
  stall.faults.stall_seconds = 0.6;
  const auto stalled =
      dist::run_distributed_aggregate(w.portfolio, engine, specs, fetch, stall);
  identical = identical && same_ylt(stalled.portfolio_ylt, reference);

  if (!identical) {
    std::cerr << "DIST MISMATCH — some regime's output is not bit-identical "
                 "to the single-process run\n";
    return 1;
  }

  const double single_s = scaled[0].seconds;
  const double two_ratio = scaled[1].seconds / single_s;
  const double four_ratio = scaled[2].seconds / single_s;
  const double eight_ratio = scaled[3].seconds / single_s;
  const double recovery_overhead = bench::median(recovery_ratios);

  // Scaling needs the cores to scale onto: with < 4 hardware threads the
  // 4 workers time-slice one CPU and four/single is ~1.0 by construction,
  // so the gate degrades to a transport-overhead bound there.
  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());
  const double four_bar = hw_threads >= 4 ? 0.6 : 1.35;

  ReportTable table({"regime", "wall-clock", "vs 1 worker", "spawned", "deaths", "retried"});
  table.add_row({"in-process (workers = 0)", format_seconds(inprocess.seconds),
                 format_fixed(inprocess.seconds / single_s, 2) + "x", "0", "0", "0"});
  for (std::size_t i = 0; i < 4; ++i) {
    table.add_row({std::to_string(worker_counts[i]) + " worker" +
                       (worker_counts[i] == 1 ? "" : "s"),
                   format_seconds(scaled[i].seconds),
                   format_fixed(scaled[i].seconds / single_s, 2) + "x",
                   std::to_string(scaled[i].stats.workers_spawned),
                   std::to_string(scaled[i].stats.worker_deaths),
                   std::to_string(scaled[i].stats.blocks_retried)});
  }
  table.add_row({"file, 4 workers, clean", format_seconds(clean_s), "-",
                 std::to_string(clean_stats.workers_spawned),
                 std::to_string(clean_stats.worker_deaths),
                 std::to_string(clean_stats.blocks_retried)});
  table.add_row({"file, 4 workers, crash fault", format_seconds(crash_s), "-",
                 std::to_string(crash_stats.workers_spawned),
                 std::to_string(crash_stats.worker_deaths),
                 std::to_string(crash_stats.blocks_retried)});
  bench::emit("e13_distributed", table);

  std::cout << "\n" << specs.size() << " blocks x " << per_block << " trials, "
            << format_bytes(static_cast<double>(encoded_bytes))
            << " encoded; file rows: median of " << rounds
            << " alternating rounds; crash-run ledger: blocks_retried "
            << crash_stats.blocks_retried << ", bytes_resent "
            << format_bytes(static_cast<double>(crash_stats.bytes_resent))
            << ", leases_expired " << crash_stats.leases_expired
            << "; stall-run leases_expired " << stalled.stats.leases_expired
            << ", duplicates_discarded " << stalled.stats.duplicates_discarded << "\n";

  const bool counters_moved = crash_stats.blocks_retried >= 1 &&
                              crash_stats.bytes_resent >= 1 &&
                              crash_stats.worker_deaths >= 1 &&
                              stalled.stats.leases_expired >= 1;
  const bool scaling_ok = four_ratio <= four_bar;
  const bool recovery_ok = recovery_overhead <= 1.5;

  std::cout << "\n[E13 verdict] 4-worker/1-worker " << format_fixed(four_ratio, 2)
            << "x on " << hw_threads << " hardware thread(s) "
            << (scaling_ok
                    ? (hw_threads >= 4 ? "(meets the <=0.6x bar)"
                                       : "(within the <=1.35x time-sliced overhead bound)")
                    : "(ABOVE the bar)")
            << "; crash recovery " << format_fixed(recovery_overhead, 2) << "x clean "
            << (recovery_ok ? "(meets the <=1.5x bar)" : "(ABOVE the <=1.5x bar)")
            << "; fault counters "
            << (counters_moved ? "moved under injection" : "DID NOT MOVE under injection")
            << "; all outputs bit-identical to single-process\n";

  bench::JsonReport json;
  json.set("experiment", std::string("e13_distributed"));
  json.set("trials", static_cast<std::uint64_t>(trials));
  json.set("blocks", static_cast<std::uint64_t>(specs.size()));
  json.set("trials_per_block", static_cast<std::uint64_t>(per_block));
  json.set("encoded_bytes", encoded_bytes);
  json.set("inprocess_seconds", inprocess.seconds);
  json.set("single_worker_seconds", scaled[0].seconds);
  json.set("two_worker_seconds", scaled[1].seconds);
  json.set("four_worker_seconds", scaled[2].seconds);
  json.set("eight_worker_seconds", scaled[3].seconds);
  json.set("two_over_single_ratio", two_ratio);
  json.set("four_over_single_ratio", four_ratio);
  json.set("eight_over_single_ratio", eight_ratio);
  json.set("recovery_clean_seconds", clean_s);
  json.set("recovery_crash_seconds", crash_s);
  // Deliberately not a *_ratio key: the crash surcharge is a few percent of
  // one run, so run-to-run noise would dominate a trajectory gate. The
  // binary enforces the <= 1.5x bar itself.
  json.set("recovery_overhead_x", recovery_overhead);
  json.set("crash_blocks_retried", crash_stats.blocks_retried);
  json.set("crash_bytes_resent", crash_stats.bytes_resent);
  json.set("crash_worker_deaths", static_cast<std::uint64_t>(crash_stats.worker_deaths));
  json.set("crash_workers_respawned",
           static_cast<std::uint64_t>(crash_stats.workers_respawned));
  json.set("stall_leases_expired", stalled.stats.leases_expired);
  json.set("stall_duplicates_discarded", stalled.stats.duplicates_discarded);
  json.set("task_bytes_sent", scaled[2].stats.task_bytes_sent);
  json.set("result_bytes_received", scaled[2].stats.result_bytes_received);
  json.set("hardware_threads", static_cast<std::uint64_t>(hw_threads));
  const std::string json_path = bench::artifact_path("BENCH_e13.json");
  json.write(json_path);
  std::cout << "\nwrote " << json_path << "\n";

  return scaling_ok && recovery_ok && counters_moved ? 0 : 2;
}
