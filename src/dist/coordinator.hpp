// Coordinator of the multi-process distribution runtime — lease-based
// scheduling of encoded trial blocks across forked worker processes, with
// retry, re-queue, straggler re-execution and bit-identical recovery.
//
// The paper's second stage-2 strategy works a large distributed file space
// with "MapReduce or Hadoop style computations", which assume a
// fault-tolerant runtime underneath: failed and straggling tasks are
// re-executed and the first completion wins (Dean & Ghemawat, OSDI'04).
// This layer is that runtime for real processes, and a file-space job is
// this runtime over one chunked YELT file (the path overload below). The
// coordinator owns a work queue of trial blocks; each assignment is a
// *lease* with a deadline; a worker Acks on receipt (the heartbeat) and
// replies with per-trial losses. Expired leases re-queue the block with
// exponential backoff under a bounded attempt budget; dead workers (EOF,
// torn frame, CRC mismatch) are replaced from a respawn budget; stragglers
// keep running and their late duplicates are discarded by block id — first
// completion wins.
//
// Bit-identical recovery is free by construction: blocks partition the
// trial space disjointly, each Task frame carries the block's global trial
// base (which keys the counter-based sampling streams), and the reduce is
// per-trial *assignment* into the output YLT — so where a block ran, how
// often it was retried, and which duplicate landed first cannot change a
// single output bit. The recovery tests assert hard equality against the
// single-process run under every fault in the FaultPlan matrix.
//
// When no worker can be forked (or every one died with the respawn budget
// spent), the coordinator degrades gracefully: remaining blocks run
// in-process through the identical EncodedBlockSource + Sequential path.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "data/ylt.hpp"
#include "dist/config.hpp"
#include "finance/contract.hpp"

namespace riskan::dist {

/// One schedulable unit: an encoded YELT block covering `trials` trials
/// starting at global trial `trial_base`. Blocks must partition the trial
/// space disjointly (the bit-identity invariant).
struct BlockSpec {
  std::uint64_t id = 0;
  TrialId trial_base = 0;
  TrialId trials = 0;
};

/// Fetches the encoded bytes of a block (a chunked-file read or an
/// in-memory slice). Called lazily at assignment time — and again on
/// re-assignment, so retries re-read rather than pin every block resident.
using BlockFetcher =
    std::function<std::vector<std::byte>(const BlockSpec& spec)>;

struct DistResult {
  /// Per-trial portfolio loss over all blocks — bit-identical to the
  /// single-process run of the same trials. On an adaptive run, truncated
  /// to the stopping trial count.
  data::YearLossTable portfolio_ylt;
  DistStats stats;
  /// Convergence report of an adaptive run (enabled = false otherwise).
  core::adaptive::AdaptiveReport adaptive;
  double seconds = 0.0;
};

/// Runs aggregate analysis for `portfolio` over `blocks`, sharded across
/// `config.workers` forked worker processes. `engine` is normalised to the
/// pool-free Sequential backend for the workers (backend/pool/telemetry
/// knobs are ignored); engine.trial_base is added to each block's
/// trial_base. Throws ContractViolation on invalid configs, DistError when
/// a block exhausts its attempt budget, and propagates IoError from
/// `fetch`.
///
/// engine.adaptive turns on convergence-adaptive stopping: completed
/// blocks are folded strictly in trial order (a frontier over the block
/// partition — completion order, worker count and retries cannot reorder
/// the fold), and once the monitored metrics converge the remaining blocks
/// are cancelled instead of leased. The decision grid is the block
/// partition itself (adaptive.block_trials is ignored here), so the
/// stopping trial count is a pure function of (seed, config, partition) —
/// bit-identical across 1..N workers, in-process fallback included.
/// Requires a contiguous partition starting at trial 0 and rejects
/// occurrence metrics (workers return the aggregate YLT only); adaptivity
/// is stripped from the worker engine.
DistResult run_distributed_aggregate(const finance::Portfolio& portfolio,
                                     const core::EngineConfig& engine,
                                     std::span<const BlockSpec> blocks,
                                     const BlockFetcher& fetch,
                                     const DistConfig& config = {});

/// The file-space job: the same run over a chunked YELT file
/// (core::save_yelt_chunked's layout), one block per chunk. Block trial
/// counts come from the chunk headers (data::chunk_trials), and each lease
/// reads its chunk with the CRC-checking ChunkedFileReader::read_chunk, so
/// a damaged chunk throws CorruptChunkError out of the run (after every
/// worker is killed and reaped). The chunks are the adaptive decision
/// grid, as the blocks are above.
DistResult run_distributed_aggregate(const finance::Portfolio& portfolio,
                                     const core::EngineConfig& engine,
                                     const std::string& chunked_yelt_path,
                                     const DistConfig& config = {});

}  // namespace riskan::dist
