// Execution plans and pluggable executors — how every stage-2 request
// reaches the one trial kernel.
//
// The repo's aggregate-analysis entry points (run_aggregate_analysis —
// which forked dist workers and the pricer's run_layer call — and the
// scenario sweep) all reach the engine's block runner (core::run_books),
// which reduces every trial block to the same question: given a finished
// list of batch::Slots over one trial block, run core::batch::process_trials
// over [0, trials) on some hardware. This layer separates the two halves:
//
//   ExecutionPlan — the lowered form of a request: the slot list, its
//       shared-gather groups, scratch sizing and the trial partition
//       inputs. Lowering is backend-independent. A pass lowers one plan
//       for every slot of every run, executes it once per trial block, and
//       re-binds it between blocks.
//
//   Executor — where the plan runs (EngineConfig::backend):
//       SequentialExecutor — the whole range inline on the caller's
//           thread; never touches a pool (forked dist workers, which
//           carry none of the pool's threads, rely on this).
//       ThreadedExecutor — parallel_reduce over trial chunks
//           (EngineConfig::trial_grain is the chunk knob).
//     Both host executors run the kernel EngineConfig::kernel names:
//     Kernel::Scalar is batch::process_trials; Kernel::Auto is the
//     vectorized kernel (core/batch_simd.hpp) on the runtime-dispatched ISA
//     (core/simd.hpp) and publishes its lane telemetry as exec.simd.*. Auto
//     runs the scalar kernel when no ISA dispatches, and also for a plan
//     none of whose groups vectorize (a mask column under either gather,
//     or a lookup over a table too sparse for an event→row table, makes a
//     group scalar), so such a plan pays nothing for the vector kernel.
//     With EngineConfig::device_info set, make_executor wraps the host
//     executor so that each plan it runs is also handed to the device model
//     (core/device_model.hpp), which computes from the plan what the run
//     would launch, stage and move on the modeled many-core device, without
//     running the kernel again.
//
// Executors change scheduling only — never values. A plan's outputs are
// bit-identical across executors (the engine's determinism contract;
// tests enforce).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "core/portfolio_batch.hpp"
#include "util/prng.hpp"

namespace riskan::core::exec {

/// The lowered, executor-ready form of one stage-2 request. Holds views
/// into caller-owned slot storage and output buffers; the plan itself owns
/// only the derived structures (groups and scratch sizing).
struct ExecutionPlan {
  std::span<const batch::Slot> slots;
  std::span<const std::uint64_t> yelt_offsets;
  TrialId trials = 0;
  TrialId trial_base = 0;
  bool secondary = false;

  /// Maximal shared-gather runs of `slots` (batch::group_slots), each
  /// counting its found rows into `found_rows`.
  std::vector<batch::Group> groups;
  /// One counter per group; each execution zeroes them, and the kernel
  /// adds to them. A unique array, so moving the plan keeps the groups'
  /// pointers valid and copying one does not compile.
  std::unique_ptr<std::uint64_t[]> found_rows;
  /// Slots in the largest group — per-chunk annual-scratch sizing.
  std::size_t max_group_size = 0;

  /// Lowers a finished slot list: groups slots, sizes scratch and
  /// validates each slot's gather columns and sampling inputs.
  static ExecutionPlan lower(std::span<const batch::Slot> slots,
                             std::span<const std::uint64_t> yelt_offsets, TrialId trials,
                             const EngineConfig& config);

  /// Re-binds a lowered plan to a new trial block of the *same* request:
  /// the slot list must keep the length and grouping structure it was
  /// lowered with — only the gather/output pointers, the trial range and
  /// the sampling stream base change. Groups and scratch sizing are
  /// structural, so they carry over. This is what makes out-of-core
  /// execution "lower once, re-bind per block" instead of re-planning per
  /// block.
  void rebind(std::span<const batch::Slot> new_slots,
              std::span<const std::uint64_t> new_yelt_offsets, TrialId new_trials,
              TrialId new_trial_base);
};

/// Where a plan runs. Executors are cheap to construct per engine run and
/// reusable across the run's plans (with device_info set, the modeled
/// device telemetry accumulates across them).
class Executor {
 public:
  virtual ~Executor() = default;

  /// Runs the plan's full trial range through batch::process_trials.
  /// Returns the rows each of plan.groups found, once per occurrence under
  /// either gather (a compact group's hits): the plan's counters, valid
  /// until its next execution.
  virtual std::span<const std::uint64_t> execute(const ExecutionPlan& plan,
                                                 const Philox4x32& philox) = 0;
};

/// Executor for config.backend, wired with the config's kernel / pool /
/// grain. When config.device_info is set, every plan it runs also adds its
/// modeled device run (device_model::estimate) to *config.device_info.
std::unique_ptr<Executor> make_executor(const EngineConfig& config);

}  // namespace riskan::core::exec
