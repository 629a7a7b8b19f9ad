#include "dist/coordinator.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/adaptive/adaptive.hpp"
#include "data/chunked_file.hpp"
#include "data/trial_source.hpp"
#include "dist/frame.hpp"
#include "dist/worker.hpp"
#include "obs/obs.hpp"
#include "parallel/process.hpp"
#include "util/bytes.hpp"
#include "util/io_error.hpp"
#include "util/require.hpp"

namespace riskan::dist {
namespace {

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A straggler that has outlived this many leases past its expiry is
/// hopeless and gets killed even when no slot is needed.
constexpr double kStragglerGraceLeases = 3.0;

/// Marks a scheduling event on a worker's trace lane ("i" instant in the
/// chrome trace; no-op when tracing is off).
void mark_worker_event(const char* name, int worker_index) {
  obs::trace_instant(obs::span_id(name),
                     static_cast<std::uint32_t>(worker_index) + 1, /*tid=*/0);
}

/// Publishes a finished run's robustness ledger into the global registry
/// under the "dist." prefix — DistStats stays the per-run view, the
/// registry accumulates across runs.
void publish_dist_stats(const DistStats& s) {
  auto& reg = obs::MetricsRegistry::global();
  static const obs::Counter runs = reg.counter("dist.runs");
  static const obs::Counter spawned = reg.counter("dist.workers_spawned");
  static const obs::Counter respawned = reg.counter("dist.workers_respawned");
  static const obs::Counter deaths = reg.counter("dist.worker_deaths");
  static const obs::Counter assigned = reg.counter("dist.blocks_assigned");
  static const obs::Counter retried = reg.counter("dist.blocks_retried");
  static const obs::Counter expired = reg.counter("dist.leases_expired");
  static const obs::Counter corrupt = reg.counter("dist.corrupt_frames");
  static const obs::Counter errors = reg.counter("dist.worker_errors");
  static const obs::Counter duplicates = reg.counter("dist.duplicates_discarded");
  static const obs::Counter cancelled = reg.counter("dist.blocks_cancelled");
  static const obs::Counter task_bytes = reg.counter("dist.task_bytes_sent");
  static const obs::Counter resent = reg.counter("dist.bytes_resent");
  static const obs::Counter result_bytes = reg.counter("dist.result_bytes_received");
  static const obs::Counter in_process = reg.counter("dist.blocks_run_in_process");
  runs.add();
  spawned.add(static_cast<double>(s.workers_spawned));
  respawned.add(static_cast<double>(s.workers_respawned));
  deaths.add(static_cast<double>(s.worker_deaths));
  assigned.add(static_cast<double>(s.blocks_assigned));
  retried.add(static_cast<double>(s.blocks_retried));
  expired.add(static_cast<double>(s.leases_expired));
  corrupt.add(static_cast<double>(s.corrupt_frames));
  errors.add(static_cast<double>(s.worker_errors));
  duplicates.add(static_cast<double>(s.duplicates_discarded));
  cancelled.add(static_cast<double>(s.blocks_cancelled));
  task_bytes.add(static_cast<double>(s.task_bytes_sent));
  resent.add(static_cast<double>(s.bytes_resent));
  result_bytes.add(static_cast<double>(s.result_bytes_received));
  in_process.add(static_cast<double>(s.blocks_run_in_process));
}

enum class WorkerState { Idle, Busy, Straggling };

struct WorkerProc {
  pid_t pid = -1;
  UniqueFd task_wr;
  UniqueFd result_rd;
  int index = 0;  ///< spawn-order index — the FaultPlan targeting key
  WorkerState state = WorkerState::Idle;
  std::uint64_t block = 0;
  bool has_block = false;
  double deadline = 0.0;    ///< lease expiry while Busy
  double expired_at = 0.0;  ///< when the lease expired (straggler age)

  bool alive() const noexcept { return pid > 0; }
};

struct BlockState {
  BlockSpec spec;
  int attempts = 0;         ///< assignments so far
  double eligible_at = 0.0; ///< backoff gate for the next assignment
  bool queued = true;
  bool done = false;
};

class Coordinator {
 public:
  Coordinator(const finance::Portfolio& portfolio, const core::EngineConfig& engine,
              std::span<const BlockSpec> blocks, const BlockFetcher& fetch,
              const DistConfig& config, data::YearLossTable& ylt, DistStats& stats,
              core::adaptive::ConvergenceController* controller)
      : portfolio_(portfolio),
        engine_(engine),
        fetch_(fetch),
        config_(config),
        ylt_(ylt),
        stats_(stats),
        controller_(controller) {
    blocks_.reserve(blocks.size());
    for (const auto& spec : blocks) {
      BlockState state;
      state.spec = spec;
      if (spec.trials == 0) {
        state.done = true;
        state.queued = false;
        ++done_;
      }
      by_id_.emplace(spec.id, blocks_.size());
      blocks_.push_back(state);
    }
    // The fold frontier walks blocks in trial order regardless of where
    // (or in what order) they complete — the adaptive determinism anchor.
    fold_order_.resize(blocks_.size());
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      fold_order_[i] = i;
    }
    std::sort(fold_order_.begin(), fold_order_.end(), [&](std::size_t a, std::size_t b) {
      return blocks_[a].spec.trial_base < blocks_[b].spec.trial_base;
    });
    advance_frontier();  // zero-trial blocks are born done
  }

  ~Coordinator() {
    // Error-path cleanup (DistError, IoError from fetch): no orphans, no
    // zombies. The happy path already shut everything down.
    for (auto& worker : workers_) {
      if (worker.alive()) {
        kill_worker(worker, /*requeue=*/false, /*count_death=*/false);
      }
    }
  }

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  void run() {
    if (done_ == blocks_.size()) {
      return;
    }
    if (config_.workers == 0) {
      fallback_in_process();
      return;
    }
    while (done_ < blocks_.size()) {
      const double now = monotonic_seconds();
      ensure_capacity();
      if (alive_count() == 0) {
        // Nothing spawnable (fork refused or respawn budget spent):
        // degrade gracefully — same blocks, same kernel, in this process.
        fallback_in_process();
        return;
      }
      reap_stragglers(now);
      assign_ready(now);
      if (done_ == blocks_.size()) {
        break;
      }
      wait_and_drain(now);
      sweep_leases(monotonic_seconds());
    }
    shutdown_workers();
  }

 private:
  std::size_t alive_count() const {
    std::size_t n = 0;
    for (const auto& w : workers_) {
      n += w.alive() ? 1 : 0;
    }
    return n;
  }

  /// Workers that can make progress: alive and not straggling. Capacity is
  /// measured against this, so a straggler's slot is refilled while it
  /// keeps running (speculative re-execution) instead of deadlocking the
  /// queue behind it.
  std::size_t active_count() const {
    std::size_t n = 0;
    for (const auto& w : workers_) {
      n += (w.alive() && w.state != WorkerState::Straggling) ? 1 : 0;
    }
    return n;
  }

  bool can_spawn() const {
    if (spawn_broken_) {
      return false;
    }
    return spawned_total_ < config_.workers ||
           respawns_used_ < config_.max_respawns;
  }

  void ensure_capacity() {
    while (!spawn_broken_ && active_count() < config_.workers) {
      const bool initial = spawned_total_ < config_.workers;
      if (!initial && respawns_used_ >= config_.max_respawns) {
        return;
      }
      if (!spawn_worker()) {
        spawn_broken_ = true;
        return;
      }
      if (initial) {
        ++stats_.workers_spawned;
      } else {
        ++respawns_used_;
        ++stats_.workers_respawned;
      }
    }
  }

  bool spawn_worker() {
    if (config_.faults.fail_spawn) {
      return false;
    }
    Pipe task = make_pipe();
    Pipe result = make_pipe();

    // The child inherits every open fd, including the coordinator-side
    // ends of *other* workers' pipes. It must close them, or a sibling
    // holding a copy of worker A's pipe ends would keep A's streams open
    // past A's death — masking the very EOFs the recovery logic keys on.
    std::vector<int> close_in_child;
    for (const auto& w : workers_) {
      if (w.alive()) {
        close_in_child.push_back(w.task_wr.get());
        close_in_child.push_back(w.result_rd.get());
      }
    }
    close_in_child.push_back(task.write_end.get());
    close_in_child.push_back(result.read_end.get());

    WorkerContext context;
    context.portfolio = &portfolio_;
    context.engine = engine_;
    context.worker_index = static_cast<int>(spawned_total_);
    context.faults = config_.faults;

    const int task_rd = task.read_end.get();
    const int result_wr = result.write_end.get();
    const auto pid = spawn_process([&]() {
      for (const int fd : close_in_child) {
        ::close(fd);
      }
      worker_main(context, task_rd, result_wr);
    });
    if (!pid.has_value()) {
      return false;
    }

    WorkerProc worker;
    worker.pid = *pid;
    worker.index = static_cast<int>(spawned_total_);
    worker.task_wr = std::move(task.write_end);
    worker.result_rd = std::move(result.read_end);
    set_nonblocking(worker.task_wr.get());
    workers_.push_back(std::move(worker));
    ++spawned_total_;
    return true;
  }

  void kill_worker(WorkerProc& worker, bool requeue, bool count_death = true) {
    if (!worker.alive()) {
      return;
    }
    terminate_process(worker.pid, /*hard=*/true);
    reap_process(worker.pid, /*block=*/true);
    worker.pid = -1;
    worker.task_wr.reset();
    worker.result_rd.reset();
    if (count_death) {
      ++stats_.worker_deaths;
    }
    if (requeue && worker.has_block) {
      fail_block(worker.block);
    }
    worker.has_block = false;
  }

  BlockState* block_by_id(std::uint64_t id) {
    const auto it = by_id_.find(id);
    return it == by_id_.end() ? nullptr : &blocks_[it->second];
  }

  void fail_block(std::uint64_t id) {
    BlockState* block = block_by_id(id);
    if (block == nullptr || block->done || block->queued) {
      return;  // completed elsewhere, or already back in the queue
    }
    ++stats_.blocks_retried;
    static const std::uint32_t requeue_event = obs::span_id("dist.block_requeued");
    obs::trace_instant(requeue_event);
    if (block->attempts >= config_.max_attempts) {
      throw DistError("block " + std::to_string(id) + " failed on all " +
                      std::to_string(block->attempts) +
                      " attempts of its budget — giving up");
    }
    const double backoff =
        std::min(config_.backoff_max_seconds,
                 config_.backoff_initial_seconds *
                     std::ldexp(1.0, block->attempts - 1));
    block->eligible_at = monotonic_seconds() + backoff;
    block->queued = true;
  }

  BlockState* pick_block(double now) {
    BlockState* best = nullptr;
    for (auto& block : blocks_) {
      if (block.queued && !block.done && block.eligible_at <= now &&
          (best == nullptr || block.spec.id < best->spec.id)) {
        best = &block;
      }
    }
    return best;
  }

  void assign_ready(double now) {
    for (auto& worker : workers_) {
      if (!worker.alive() || worker.state != WorkerState::Idle) {
        continue;
      }
      BlockState* block = pick_block(now);
      if (block == nullptr) {
        return;
      }
      assign(worker, *block, now);
    }
  }

  void assign(WorkerProc& worker, BlockState& block, double now) {
    const auto encoded = fetch_(block.spec);
    ByteWriter payload;
    payload.u64(static_cast<std::uint64_t>(engine_.trial_base) +
                block.spec.trial_base);
    payload.bytes(encoded);
    Frame frame{FrameType::Task, block.spec.id, payload.buffer()};
    if (!write_frame(worker.task_wr.get(), frame, config_.lease_seconds)) {
      // The pipe is dead or wedged before the block was ever leased: the
      // block stays queued (no attempt consumed) and the worker is culled.
      kill_worker(worker, /*requeue=*/false);
      return;
    }
    block.queued = false;
    ++block.attempts;
    stats_.max_attempts_observed =
        std::max(stats_.max_attempts_observed, block.attempts);
    ++stats_.blocks_assigned;
    stats_.task_bytes_sent += frame.payload.size();
    if (block.attempts > 1) {
      stats_.bytes_resent += frame.payload.size();
    }
    worker.state = WorkerState::Busy;
    worker.block = block.spec.id;
    worker.has_block = true;
    worker.deadline = now + config_.lease_seconds;
    mark_worker_event("dist.lease_grant", worker.index);
  }

  void wait_and_drain(double now) {
    std::vector<int> fds;
    for (const auto& worker : workers_) {
      if (worker.alive()) {
        fds.push_back(worker.result_rd.get());
      }
    }
    if (fds.empty()) {
      return;
    }
    std::vector<int> ready;
    poll_readable(fds, wait_seconds(now), ready);
    for (const int fd : ready) {
      for (auto& worker : workers_) {
        if (worker.alive() && worker.result_rd.get() == fd) {
          drain_worker(worker);
          break;
        }
      }
    }
  }

  void drain_worker(WorkerProc& worker) {
    do {
      Frame frame;
      try {
        if (read_frame(worker.result_rd.get(), frame) ==
            FrameReadResult::Closed) {
          // Clean EOF: the worker died (crash injection, OOM-kill, ...).
          kill_worker(worker, /*requeue=*/true);
          return;
        }
      } catch (const IoError&) {
        // CRC mismatch, torn frame, or hard read error: the stream has no
        // resync point, so the worker is unusable — replace and re-queue.
        ++stats_.corrupt_frames;
        kill_worker(worker, /*requeue=*/true);
        return;
      }
      handle_frame(worker, frame);
    } while (worker.alive() && fd_readable_now(worker.result_rd.get()));
  }

  void handle_frame(WorkerProc& worker, const Frame& frame) {
    switch (frame.type) {
      case FrameType::Ack:
        // The heartbeat: receipt of the task refreshes the lease, so a
        // worker that *got* the block but computes slowly is separated
        // from one that never received it.
        if (worker.state == WorkerState::Busy && worker.has_block &&
            worker.block == frame.block_id) {
          worker.deadline = monotonic_seconds() + config_.lease_seconds;
        }
        return;
      case FrameType::Result: {
        stats_.result_bytes_received += frame.payload.size();
        BlockState* block = block_by_id(frame.block_id);
        if (block == nullptr || !place_result(*block, frame.payload)) {
          ++stats_.corrupt_frames;
          kill_worker(worker, /*requeue=*/true);
          return;
        }
        release_worker(worker, frame.block_id);
        return;
      }
      case FrameType::Error: {
        // The worker is alive and sane — the block's *data* failed on it.
        ++stats_.worker_errors;
        release_worker(worker, frame.block_id);
        fail_block(frame.block_id);
        return;
      }
      case FrameType::Spans: {
        // Telemetry forwarded from the worker: re-stamp each span with the
        // sender's lane and land it in this process's ring. A malformed
        // payload is a protocol breach like any other corrupt frame.
        try {
          auto spans = decode_spans_payload(frame.payload);
          obs::TraceBuffer& trace = obs::TraceBuffer::global();
          if (trace.active()) {
            const auto lane = static_cast<std::uint32_t>(worker.index) + 1;
            for (auto& span : spans) {
              span.lane = lane;
              trace.record_collected(span);
            }
          }
        } catch (const IoError&) {
          ++stats_.corrupt_frames;
          kill_worker(worker, /*requeue=*/true);
        }
        return;
      }
      default:
        // Task/Shutdown flowing worker→coordinator is a protocol breach.
        ++stats_.corrupt_frames;
        kill_worker(worker, /*requeue=*/true);
        return;
    }
  }

  /// Validates and lands one Result payload. First completion wins: a late
  /// duplicate (a straggler's echo of a re-executed block) is counted and
  /// dropped — idempotent by construction, since blocks partition the
  /// trial space and the reduce is per-trial assignment.
  bool place_result(BlockState& block, const std::vector<std::byte>& payload) {
    if (payload.size() < sizeof(std::uint64_t)) {
      return false;
    }
    ByteReader reader(payload);
    const std::uint64_t count = reader.u64();
    if (count != block.spec.trials ||
        reader.remaining() != count * sizeof(double)) {
      return false;
    }
    if (block.done) {
      ++stats_.duplicates_discarded;
      return true;
    }
    for (std::uint64_t t = 0; t < count; ++t) {
      ylt_[block.spec.trial_base + static_cast<TrialId>(t)] = reader.f64();
    }
    block.done = true;
    block.queued = false;
    ++done_;
    advance_frontier();
    return true;
  }

  /// Folds every completed block at the trial-order frontier into the
  /// convergence controller, and cancels the remaining blocks the moment
  /// it reports stop. Landing order cannot reach the controller: only the
  /// frontier position does, so the stopping trial count is identical for
  /// any worker count, retry history or straggler schedule.
  void advance_frontier() {
    if (controller_ == nullptr) {
      return;
    }
    while (frontier_ < fold_order_.size()) {
      if (controller_->should_stop()) {
        cancel_remaining();
        return;
      }
      BlockState& block = blocks_[fold_order_[frontier_]];
      if (!block.done) {
        return;
      }
      if (block.spec.trials > 0) {
        controller_->fold(
            ylt_.losses().subspan(block.spec.trial_base, block.spec.trials), {});
      }
      ++frontier_;
    }
    if (controller_->should_stop()) {
      cancel_remaining();
    }
  }

  /// Convergence reached: blocks past the frontier will never be folded.
  /// Un-done ones leave the queue as cancelled; in-flight leases are left
  /// to land as discarded duplicates (or die with shutdown).
  void cancel_remaining() {
    for (std::size_t i = frontier_; i < fold_order_.size(); ++i) {
      BlockState& block = blocks_[fold_order_[i]];
      if (block.done) {
        continue;
      }
      block.done = true;
      block.queued = false;
      ++done_;
      ++stats_.blocks_cancelled;
    }
    frontier_ = fold_order_.size();
  }

  void release_worker(WorkerProc& worker, std::uint64_t block_id) {
    if (worker.has_block && worker.block == block_id) {
      worker.has_block = false;
      worker.state = WorkerState::Idle;
    }
  }

  void sweep_leases(double now) {
    for (auto& worker : workers_) {
      if (worker.alive() && worker.state == WorkerState::Busy &&
          now > worker.deadline) {
        ++stats_.leases_expired;
        worker.state = WorkerState::Straggling;
        worker.expired_at = now;
        mark_worker_event("dist.lease_expired", worker.index);
        // Straggler re-execution: the block goes back in the queue while
        // the slow worker keeps running — whichever finishes first wins.
        fail_block(worker.block);
      }
    }
  }

  void reap_stragglers(double now) {
    WorkerProc* oldest = nullptr;
    bool any_progress = false;  // an Idle or Busy worker exists
    for (auto& worker : workers_) {
      if (!worker.alive()) {
        continue;
      }
      if (worker.state != WorkerState::Straggling) {
        any_progress = true;
        continue;
      }
      if (now - worker.expired_at >
          kStragglerGraceLeases * config_.lease_seconds) {
        mark_worker_event("dist.straggler_killed", worker.index);
        kill_worker(worker, /*requeue=*/true);
        continue;
      }
      if (oldest == nullptr || worker.expired_at < oldest->expired_at) {
        oldest = &worker;
      }
    }
    // Every slot straggling, no spawn headroom, work waiting: evict the
    // longest-overdue straggler so the queue can move.
    if (!any_progress && oldest != nullptr && !can_spawn() &&
        pick_block(now) != nullptr) {
      mark_worker_event("dist.straggler_killed", oldest->index);
      kill_worker(*oldest, /*requeue=*/true);
    }
  }

  double wait_seconds(double now) const {
    double wait = 0.25;
    bool any_idle = false;
    for (const auto& worker : workers_) {
      if (!worker.alive()) {
        continue;
      }
      if (worker.state == WorkerState::Idle) {
        any_idle = true;
      } else if (worker.state == WorkerState::Busy) {
        wait = std::min(wait, worker.deadline - now);
      } else {
        wait = std::min(wait, worker.expired_at +
                                  kStragglerGraceLeases * config_.lease_seconds -
                                  now);
      }
    }
    if (any_idle) {
      for (const auto& block : blocks_) {
        if (block.queued && !block.done) {
          wait = std::min(wait, block.eligible_at - now);
        }
      }
    }
    return std::clamp(wait, 0.001, 0.25);
  }

  void shutdown_workers() {
    for (auto& worker : workers_) {
      if (!worker.alive()) {
        continue;
      }
      if (worker.state == WorkerState::Idle) {
        // Closing the task pipe is the shutdown signal: the worker sees a
        // clean EOF at a frame boundary and _exit(0)s.
        worker.task_wr.reset();
        reap_process(worker.pid, /*block=*/true);
        worker.pid = -1;
        worker.result_rd.reset();
      } else {
        // Still computing (or stalled) for a block that already completed
        // elsewhere — not worth waiting for.
        kill_worker(worker, /*requeue=*/false, /*count_death=*/false);
      }
    }
  }

  void fallback_in_process() {
    stats_.fell_back_in_process = true;
    // Trial order, not spec order: the adaptive frontier folds (and may
    // cancel) as each block lands, so the fallback stops at exactly the
    // same trial as a fully-distributed run. Non-adaptive runs complete
    // every block either way — per-trial assignment is order-blind.
    for (const std::size_t index : fold_order_) {
      BlockState& block = blocks_[index];
      if (block.done) {
        continue;
      }
      const auto encoded = fetch_(block.spec);
      data::EncodedBlockSource source(encoded);
      auto engine = engine_;
      engine.trial_base = engine_.trial_base + block.spec.trial_base;
      const auto result =
          core::run_aggregate_analysis(portfolio_, source, engine);
      RISKAN_ENSURE(result.portfolio_ylt.trials() == block.spec.trials,
                    "block trial count does not match its spec");
      const auto losses = result.portfolio_ylt.losses();
      for (TrialId t = 0; t < block.spec.trials; ++t) {
        ylt_[block.spec.trial_base + t] = losses[t];
      }
      block.done = true;
      block.queued = false;
      ++done_;
      ++stats_.blocks_run_in_process;
      advance_frontier();
    }
  }

  const finance::Portfolio& portfolio_;
  const core::EngineConfig& engine_;
  const BlockFetcher& fetch_;
  const DistConfig& config_;
  data::YearLossTable& ylt_;
  DistStats& stats_;

  core::adaptive::ConvergenceController* controller_;  ///< null = fixed budget

  std::vector<BlockState> blocks_;
  std::unordered_map<std::uint64_t, std::size_t> by_id_;
  std::vector<std::size_t> fold_order_;  ///< block indices in trial order
  std::size_t frontier_ = 0;             ///< next fold_order_ entry to fold
  std::vector<WorkerProc> workers_;
  std::size_t done_ = 0;
  std::size_t spawned_total_ = 0;
  std::size_t respawns_used_ = 0;
  bool spawn_broken_ = false;
};

}  // namespace

DistResult run_distributed_aggregate(const finance::Portfolio& portfolio,
                                     const core::EngineConfig& engine,
                                     std::span<const BlockSpec> blocks,
                                     const BlockFetcher& fetch,
                                     const DistConfig& config) {
  validate_dist_config(config);
  RISKAN_REQUIRE(fetch != nullptr, "run_distributed_aggregate needs a fetcher");

  // Workers compute on the pool-free Sequential backend (fork-safe by
  // contract: no shared pool, no process-wide caches) with the caller's
  // kernel, and return only the portfolio view — per-contract YLTs and
  // OEP stay a single-process feature for now. Kernels are bit-identical,
  // so the fold is unchanged either way. Adaptivity is the coordinator's
  // job, never a worker's: a worker stopping early on its own slice would
  // break the bit-identity of the folded prefix.
  core::EngineConfig worker_engine = engine;
  worker_engine.backend = core::Backend::Sequential;
  worker_engine.pool = nullptr;
  worker_engine.compute_oep = false;
  worker_engine.keep_contract_ylts = false;
  worker_engine.device_info = nullptr;
  worker_engine.resolver_cache = nullptr;
  worker_engine.adaptive = {};
  // Workers never open observability windows of their own: their spans ride
  // the Spans frames into the coordinator's ring, and metrics reports are
  // the outermost entry point's job.
  worker_engine.obs = {};
  core::validate_engine_config(worker_engine);

  const bool adaptive_on = engine.adaptive.enabled();
  core::adaptive::validate_adaptive_config(engine.adaptive);
  if (adaptive_on) {
    RISKAN_REQUIRE((engine.adaptive.metrics & core::adaptive::kOccurrenceMetrics) == 0,
                   "distributed adaptive runs monitor aggregate metrics only "
                   "(workers return the aggregate YLT, not the OEP sample)");
  }

  // Bit-identity rests on blocks partitioning the trial space disjointly —
  // overlapping blocks would race for the same output trials. An adaptive
  // run additionally needs the partition contiguous from trial 0: the fold
  // frontier's "prefix of the trial space" must be exactly that.
  TrialId total_trials = 0;
  {
    std::unordered_set<std::uint64_t> ids;
    std::vector<std::pair<TrialId, TrialId>> ranges;
    ranges.reserve(blocks.size());
    for (const auto& spec : blocks) {
      RISKAN_REQUIRE(ids.insert(spec.id).second, "duplicate BlockSpec id");
      ranges.emplace_back(spec.trial_base, spec.trials);
      total_trials = std::max(total_trials, spec.trial_base + spec.trials);
    }
    std::sort(ranges.begin(), ranges.end());
    for (std::size_t i = 1; i < ranges.size(); ++i) {
      RISKAN_REQUIRE(ranges[i].first >= ranges[i - 1].first + ranges[i - 1].second,
                     "BlockSpecs overlap in trial space");
    }
    if (adaptive_on) {
      RISKAN_REQUIRE(ranges.empty() || ranges.front().first == 0,
                     "adaptive distributed runs need blocks starting at trial 0");
      for (std::size_t i = 1; i < ranges.size(); ++i) {
        RISKAN_REQUIRE(ranges[i].first == ranges[i - 1].first + ranges[i - 1].second,
                       "adaptive distributed runs need a gap-free block partition");
      }
    }
  }

  std::optional<core::adaptive::ConvergenceController> controller;
  if (adaptive_on) {
    RISKAN_REQUIRE(total_trials > 0, "adaptive distributed runs need trials");
    controller.emplace(engine.adaptive, total_trials);
  }

  DistResult out;
  out.portfolio_ylt = data::YearLossTable(total_trials, "portfolio");
  out.stats.blocks_total = blocks.size();

  // A write to a just-crashed worker must surface as EPIPE (a recoverable
  // scheduling event), not kill the coordinator process.
  SigpipeIgnore sigpipe_guard;

  obs::Timer timer("dist.run");
  Coordinator coordinator(portfolio, worker_engine, blocks, fetch, config,
                          out.portfolio_ylt, out.stats,
                          controller.has_value() ? &*controller : nullptr);
  coordinator.run();
  if (controller.has_value()) {
    out.portfolio_ylt.truncate(controller->trials_folded());
    out.adaptive = controller->report();
  }
  out.seconds = timer.stop();
  publish_dist_stats(out.stats);
  return out;
}

DistResult run_distributed_aggregate(const finance::Portfolio& portfolio,
                                     const core::EngineConfig& engine,
                                     const std::string& chunked_yelt_path,
                                     const DistConfig& config) {
  data::ChunkedFileReader reader(chunked_yelt_path);
  std::vector<BlockSpec> specs;
  TrialId trial_base = 0;
  for (const TrialId trials : data::chunk_trials(reader)) {
    specs.push_back({specs.size(), trial_base, trials});
    trial_base += trials;
  }
  // One reader serves every lease: the coordinator fetches from its one
  // thread, and read_chunk verifies the chunk's CRC-32 on each read.
  return run_distributed_aggregate(
      portfolio, engine, specs,
      [&reader](const BlockSpec& spec) {
        return reader.read_chunk(static_cast<std::size_t>(spec.id));
      },
      config);
}

}  // namespace riskan::dist
