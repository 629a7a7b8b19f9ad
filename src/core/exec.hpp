// Execution plans and pluggable executors — how every stage-2 request
// reaches the one trial kernel.
//
// The repo's five aggregate-analysis entry points (per-contract run,
// batched run, scenario sweep, MapReduce map task, pricer run_layer) all
// reduce to the same question: given a finished list of batch::Slots over
// one YELT, run core::batch::process_trials over [0, trials) on some
// hardware. This layer separates the two halves:
//
//   ExecutionPlan — the lowered form of a request: the slot list, its
//       shared-gather groups, scratch sizing, the trial partition inputs,
//       and — for the device — the distinct gather sources and the
//       constant-memory residency chunks (which tables are staged
//       together, deciding the launch structure). Lowering is
//       backend-independent except for that residency planning.
//
//   Executor — where the plan runs (EngineConfig::backend):
//       SequentialExecutor — the whole range inline on the caller's
//           thread; never touches a pool (MapReduce map tasks run from
//           pool workers and rely on this).
//       ThreadedExecutor — parallel_reduce over trial chunks
//           (EngineConfig::trial_grain is the chunk knob).
//     Both host executors run the kernel EngineConfig::kernel names:
//     Kernel::Scalar is batch::process_trials; Kernel::Auto is the
//     vectorized kernel (core/batch_simd.hpp) on the runtime-dispatched ISA
//     (core/simd.hpp) and publishes its lane telemetry as exec.simd.*. Auto
//     runs the scalar kernel when no ISA dispatches, and also for a plan
//     none of whose groups vectorize (mask columns and search gathers make
//     a group scalar), so such a plan pays nothing for the vector kernel.
//       DeviceSimExecutor — one kernel launch per residency chunk on the
//           simulated many-core device (src/parallel/device.hpp): grid of
//           device_block_dim-trial blocks, each block staging its slot
//           column slices into the 48 KiB shared-memory arena when they
//           fit and running process_trials over its trial range against
//           constant-memory-resident ELT tables. Traffic is metered per
//           access class and fed to the calibrated performance model
//           (DeviceRunInfo). Because residency is per *source* rather
//           than per layer, batched books and scenario sweeps ride the
//           device like any other plan — the old "one layer's ELT chunk
//           at a time" constraint is gone.
//
// Executors change scheduling and staging only — never values. A plan's
// outputs are bit-identical across executors (the engine's determinism
// contract; tests enforce).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "core/portfolio_batch.hpp"
#include "data/elt.hpp"
#include "util/prng.hpp"

namespace riskan::core::exec {

/// The lowered, executor-ready form of one stage-2 request. Holds views
/// into caller-owned slot storage and output buffers; the plan itself owns
/// only the derived structures (groups, sources, residency chunks).
struct ExecutionPlan {
  std::span<const batch::Slot> slots;
  std::span<const std::uint64_t> yelt_offsets;
  TrialId trials = 0;
  TrialId trial_base = 0;
  bool secondary = false;

  /// Maximal shared-gather runs of `slots` (batch::group_slots).
  std::vector<batch::Group> groups;
  /// Slots in the largest group — per-chunk annual-scratch sizing.
  std::size_t max_group_size = 0;

  /// One distinct gather source per ELT-backed column set, in first-use
  /// group order — the unit of device staging.
  struct Source {
    batch::Gather gather = batch::Gather::Compact;
    const data::EventLossTable* elt = nullptr;
    const std::uint64_t* hit_offsets = nullptr;  // compact mode
    const std::uint32_t* seqs = nullptr;
    const std::uint32_t* rows = nullptr;
    const std::uint32_t* dense_rows = nullptr;  // dense mode
    const EventId* search_events = nullptr;     // search mode
  };
  std::vector<Source> sources;
  /// Group index → index into `sources`.
  std::vector<std::uint32_t> group_source;

  /// DeviceSim lowering: a contiguous group range whose sources' packed
  /// ELT tables share one constant-memory upload (one launch per chunk;
  /// chunks execute in slot order, so per-cell accumulation order — and
  /// with it bit-identity — is preserved). `staged_rows[s]` is how many of
  /// source s's leading ELT rows are constant-resident in this chunk
  /// (possibly 0 = fully global); rows beyond it gather from global
  /// memory.
  struct DeviceChunk {
    std::uint32_t group_begin = 0;
    std::uint32_t group_end = 0;
    /// Parallel to the chunk's source set: (source index, resident rows).
    std::vector<std::pair<std::uint32_t, std::size_t>> staged_rows;
  };
  std::vector<DeviceChunk> device_chunks;

  /// Lowers a finished slot list: groups slots, sizes scratch, validates
  /// gather modes (each slot exactly one mode; dense/search slots must be
  /// transform-inert, alone or as a contract's layer tower) and — when
  /// config.backend is DeviceSim — plans constant-memory residency chunks.
  static ExecutionPlan lower(std::span<const batch::Slot> slots,
                             std::span<const std::uint64_t> yelt_offsets, TrialId trials,
                             const EngineConfig& config);

  /// Re-binds a lowered plan to a new trial block of the *same* request:
  /// the slot list must keep the length, gather modes, grouping structure
  /// and ELT tables it was lowered with — only the gather/output pointers,
  /// the trial range and the sampling stream base change. Groups, scratch
  /// sizing and the device residency plan are structural, so they carry
  /// over; gather sources are re-pointed at the block's columns. This is
  /// what makes out-of-core execution "lower once, re-bind per block"
  /// instead of re-planning per block.
  void rebind(std::span<const batch::Slot> new_slots,
              std::span<const std::uint64_t> new_yelt_offsets, TrialId new_trials,
              TrialId new_trial_base);
};

/// Where a plan runs. Executors are cheap to construct per engine run and
/// reusable across the run's plans (the device executor accumulates
/// telemetry across launches, like a real device context).
class Executor {
 public:
  virtual ~Executor() = default;

  /// Runs the plan's full trial range through batch::process_trials.
  /// Returns the kernel's dense/search found-lookup count, per slot (0 for
  /// all-compact plans, whose hit telemetry comes from their resolutions).
  virtual std::uint64_t execute(const ExecutionPlan& plan, const Philox4x32& philox) = 0;
};

/// Executor for config.backend, wired with the config's kernel / pool /
/// grain / device parameters (device telemetry lands in *config.device_info
/// when set).
std::unique_ptr<Executor> make_executor(const EngineConfig& config);

}  // namespace riskan::core::exec
