// Aggregate analysis as a MapReduce job over the distributed file space —
// the paper's alternative stage-2 architecture (experiment E6).
//
// The YELT is split into trial-range blocks stored in the DFS; each map
// task deserialises its block and runs it through run_aggregate_analysis
// like any other trial source (sequential executor — pool-free by
// contract; one plan serves the whole contract group, gathering by
// in-kernel lookup because the decoded slice dies with the task;
// trial_base = the block's first global trial so secondary-uncertainty
// streams line up), and emits (trial, portfolio loss). The reduce is a
// per-trial sum — trivially combiner-friendly, which is why this workload
// MapReduces well. The output YLT is bit-identical to the in-memory
// engine's (integration tests enforce this).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/aggregate_engine.hpp"
#include "data/yelt.hpp"
#include "data/ylt.hpp"
#include "dist/config.hpp"
#include "finance/contract.hpp"
#include "mapreduce/dfs.hpp"
#include "mapreduce/framework.hpp"

namespace riskan::mapreduce {

struct AggregateJobConfig {
  /// Trials per DFS block / map split.
  TrialId trials_per_block = 1'000;
  std::size_t reducers = 4;
  std::uint64_t seed = 2012;
  bool secondary_uncertainty = true;
  ThreadPool* pool = nullptr;
  std::string dfs_file = "yelt";
  /// When set, the map phase rides the multi-process dist transport
  /// (src/dist/coordinator.hpp): DFS blocks are leased to forked worker
  /// processes with retry/re-queue and straggler re-execution, and the
  /// reduce is the coordinator's per-trial assignment. Bit-identical to
  /// the in-process runtime — faults included. nullopt = in-process
  /// MapReduce (the default, and the only option inside map/worker
  /// processes themselves).
  std::optional<dist::DistConfig> dist;
  /// Convergence-adaptive stopping (core/adaptive): with target_rel_err >
  /// 0 the job folds map outputs in split order and stops scheduling
  /// splits once the monitored metrics' CIs close, truncating the output
  /// YLT to the stopping trial. The decision grid is the DFS block
  /// partition itself — adaptive.block_trials is ignored; trials_per_block
  /// is the grid — so in-process and dist runs (any worker count) stop at
  /// the same trial. Occurrence metrics are rejected (map tasks emit the
  /// aggregate view only).
  core::adaptive::AdaptiveConfig adaptive;
  /// End-of-run observability (metrics report / chrome trace) for the whole
  /// job — stage-in, map, shuffle and reduce ride one window. Map tasks and
  /// dist workers never open nested windows of their own.
  obs::ObsConfig obs;
};

struct AggregateJobResult {
  /// Truncated to the stopping trial on an adaptive run.
  data::YearLossTable portfolio_ylt;
  /// Convergence report of an adaptive run (enabled = false otherwise).
  core::adaptive::AdaptiveReport adaptive_report;
  MapReduceStats mr_stats;
  /// Distribution-runtime telemetry; all-zero for in-process jobs.
  dist::DistStats dist_stats;
  std::uint64_t dfs_bytes = 0;
  std::size_t blocks = 0;
  double stage_in_seconds = 0.0;  ///< splitting + DFS write
  double job_seconds = 0.0;       ///< map + shuffle + reduce
  /// End-of-run observability report when AggregateJobConfig::obs asked.
  std::shared_ptr<const obs::ObsReport> obs_report;
};

/// Stages `yelt` into `dfs` as trial-range blocks.
/// Returns the number of blocks written.
std::size_t stage_yelt(Dfs& dfs, const data::YearEventLossTable& yelt,
                       const AggregateJobConfig& config);

/// Runs the full job: stage-in (if not already staged) + MapReduce.
AggregateJobResult run_aggregate_job(Dfs& dfs, const finance::Portfolio& portfolio,
                                     const data::YearEventLossTable& yelt,
                                     const AggregateJobConfig& config = {});

}  // namespace riskan::mapreduce
