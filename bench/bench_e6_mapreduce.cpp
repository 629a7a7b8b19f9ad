// E6 — the distributed file space: aggregate analysis over one chunked
// YELT file.
//
// Paper: "Another direction to progress whereby large distributed file
// space is accumulated will include relying on MapReduce or Hadoop style
// computations on the cloud."
//
// The YELT is staged once as a chunked file (core::save_yelt_chunked: one
// encoded trial block per chunk, each with a CRC-32 checked on read), and
// the same file is worked two ways: in process by
// core::run_aggregate_streaming (one prefetch thread reads and decodes
// ahead of the threaded engine) and by the dist runtime's file entry at 4
// forked workers (each chunk is a leased task, failed tasks are re-run, and
// the reduce is the coordinator's per-trial assignment). At 4, 16 and 64
// chunks every run is checked bit for bit against the in-memory engine
// before its row is printed; a mismatch exits 1. The result bytes per trial
// are the workers' reply payload, this job's whole shuffle: one 8-byte loss
// per trial and an 8-byte count per chunk. No timing gate.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/aggregate_engine.hpp"
#include "core/streaming.hpp"
#include "dist/coordinator.hpp"

using namespace riskan;

namespace {

/// Median wall seconds of `reps` calls of `run`.
template <typename Run>
double median_seconds(int reps, const Run& run) {
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    obs::Timer watch("bench.e6");
    run();
    seconds.push_back(watch.stop());
  }
  return bench::median(seconds);
}

}  // namespace

int main() {
  print_banner(std::cout, "E6: distributed file space — one chunked YELT file");

  const TrialId trials = bench::scaled_trials(40'000);
  const int reps = 3;
  auto workload = bench::make_workload(/*contracts=*/8, /*elt_rows=*/800, trials);

  core::EngineConfig engine;
  engine.kernel = core::Kernel::Scalar;  // this bench measures the scalar kernel
  engine.backend = core::Backend::Threaded;
  engine.compute_oep = false;
  engine.keep_contract_ylts = false;
  const auto reference = core::run_aggregate_analysis(workload.portfolio, workload.yelt, engine);
  const auto in_memory = reference.portfolio_ylt.losses();
  const double in_memory_s = median_seconds(reps, [&] {
    (void)core::run_aggregate_analysis(workload.portfolio, workload.yelt, engine);
  });

  std::cout << "workload: 8 contracts x " << trials << " trials; in-memory baseline "
            << format_seconds(in_memory_s) << " (median of " << reps << ")\n\n";

  dist::DistConfig dist_config;
  dist_config.workers = 4;
  dist_config.lease_seconds = 10.0;  // no spurious expiry while 4 workers share a host

  ReportTable table({"chunks", "trials/chunk", "file bytes", "save", "in-process",
                     "4 workers", "result B/trial", "in-process vs mem", "workers vs mem"});
  bool identical = true;
  for (const TrialId chunks : {TrialId{4}, TrialId{16}, TrialId{64}}) {
    const TrialId per_chunk = (trials + chunks - 1) / chunks;
    const std::string path = "/tmp/riskan_bench_e6_" + std::to_string(chunks) + ".yeltc";

    const double save_s = median_seconds(
        reps, [&] { (void)core::save_yelt_chunked(workload.yelt, path, per_chunk); });
    const auto file_bytes = std::filesystem::file_size(path);

    const double streamed_s = median_seconds(reps, [&] {
      const auto result = core::run_aggregate_streaming(workload.portfolio, path, engine);
      identical = identical && std::ranges::equal(result.portfolio_ylt.losses(), in_memory);
    });

    std::uint64_t result_bytes = 0;
    const double dist_s = median_seconds(reps, [&] {
      const auto result =
          dist::run_distributed_aggregate(workload.portfolio, engine, path, dist_config);
      identical = identical && std::ranges::equal(result.portfolio_ylt.losses(), in_memory);
      result_bytes = result.stats.result_bytes_received;
    });
    std::remove(path.c_str());

    if (!identical) {
      std::cerr << "MISMATCH vs the in-memory engine at " << chunks << " chunks\n";
      return 1;
    }
    table.add_row({std::to_string(chunks), format_count(static_cast<double>(per_chunk)),
                   format_bytes(static_cast<double>(file_bytes)), format_seconds(save_s),
                   format_seconds(streamed_s), format_seconds(dist_s),
                   format_fixed(static_cast<double>(result_bytes) / trials, 2),
                   format_fixed(streamed_s / in_memory_s, 2) + "x",
                   format_fixed(dist_s / in_memory_s, 2) + "x"});
  }
  bench::emit("e6_mapreduce", table);

  std::cout << "\n[E6 verdict] one chunked file serves both the in-process streamed "
               "run and the 4-worker dist run, each bit-identical to the in-memory "
               "YLT at every chunk count; the workers send back one 8-byte loss per "
               "trial (and a count per chunk), which is why this per-trial sum "
               "MapReduces well, as the paper suggests.\n";
  return 0;
}
