// Execution plans and the one function that runs them — how every stage-2
// request reaches the one trial kernel.
//
// The repo's aggregate-analysis entry points (run_aggregate_analysis —
// which forked dist workers and the pricer's run_layer call — and the
// scenario sweep) all reach the engine's block runner (core::run_books),
// which reduces every trial block to the same question: given a finished
// list of batch::Slots over one trial block, run core::batch::process_trials
// over [0, trials) on some hardware. This layer separates the two halves:
//
//   ExecutionPlan — the lowered form of one block of a request: the slot
//       list, its shared-gather groups, each run's OEP table, scratch
//       sizing and the trial partition inputs. Lowering is
//       backend-independent. A pass lowers one plan per trial block,
//       holding every slot of every run, and executes it once.
//
//   execute — runs a plan where EngineConfig::backend says:
//       Sequential — the whole range as one inline chunk on the caller's
//           thread; never touches a pool (forked dist workers, which
//           carry none of the pool's threads, rely on this).
//       Threaded — parallel_reduce over trial chunks on the pool
//           (EngineConfig::trial_grain is the chunk knob).
//     Either runs the kernel EngineConfig::kernel names: Kernel::Scalar is
//     batch::process_trials; Kernel::Auto is the vectorized kernel
//     (core/batch_simd.hpp) on the runtime-dispatched ISA (core/simd.hpp)
//     and publishes its lane telemetry as exec.simd.*. Auto runs the scalar
//     kernel when no ISA dispatches, and also for a plan none of whose
//     groups vectorize (a mask column under either gather, or a lookup over
//     a table too sparse for an event→row table, makes a group scalar), so
//     such a plan pays nothing for the vector kernel. Each trial chunk
//     borrows a scratch slab that execute allocated on the calling thread
//     (one per chunk that can run at once), in which the kernel accumulates
//     and finishes each run's OEP one kernel block at a time. With
//     EngineConfig::device_info set, each plan it runs is also handed to the
//     device model (core/device_model.hpp), which computes from the plan
//     what the run would launch, stage and move on the modeled many-core
//     device, without running the kernel again.
//
// The backend changes scheduling only — never values. A plan's outputs are
// bit-identical across backends (the engine's determinism contract; tests
// enforce).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "core/portfolio_batch.hpp"
#include "util/prng.hpp"

namespace riskan::core::exec {

/// The lowered, ready-to-run form of one trial block of a stage-2 request.
/// Holds views into caller-owned slot storage and output buffers; the plan
/// itself owns only the derived structures (groups and scratch sizing).
struct ExecutionPlan {
  std::span<const batch::Slot> slots;
  std::span<const std::uint64_t> yelt_offsets;
  TrialId trials = 0;
  /// Sampling stream base of the block's first trial.
  TrialId trial_base = 0;
  bool secondary = false;
  /// Each run's OEP table over the block's trials, indexed by
  /// Slot::oep_run; the kernel writes them. Empty = OEP off.
  std::span<const std::span<Money>> oep;

  /// Maximal shared-gather runs of `slots` (batch::group_slots), each
  /// counting its found rows into `found_rows`.
  std::vector<batch::Group> groups;
  /// One counter per group; each execution zeroes them, and the kernel
  /// adds to them. A unique array, so moving the plan keeps the groups'
  /// pointers valid and copying one does not compile.
  std::unique_ptr<std::uint64_t[]> found_rows;
  /// Slots in the largest group — per-chunk annual-scratch sizing.
  std::size_t max_group_size = 0;

  /// Lowers a finished slot list over one trial block: groups slots, sizes
  /// scratch and validates each slot's gather columns, its OEP table and,
  /// with `secondary` set, its sampler (its ELT means otherwise).
  static ExecutionPlan lower(std::span<const batch::Slot> slots,
                             std::span<const std::uint64_t> yelt_offsets, TrialId trials,
                             TrialId trial_base, bool secondary,
                             std::span<const std::span<Money>> oep = {});
};

/// Runs the plan's full trial range on config.backend with config.kernel,
/// and, when config.device_info is set, adds its modeled device run
/// (device_model::estimate) to *config.device_info. Each chunk of trials
/// borrows one slab of scratch that this (the calling) thread allocated,
/// one per chunk that can run at once: its annual sums and its kernel
/// blocks' OEP cells, sized by the largest YELT span of min(kernel block,
/// chunk) consecutive trials. No pool task allocates. Returns the rows each
/// of plan.groups found, once per occurrence under either gather (a compact
/// group's hits): the plan's counters, valid until its next execution.
std::span<const std::uint64_t> execute(const ExecutionPlan& plan, const Philox4x32& philox,
                                       const EngineConfig& config);

}  // namespace riskan::core::exec
