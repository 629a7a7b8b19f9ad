// The worker side of the multi-process distribution runtime.
//
// A worker is a forked child of the coordinator: the portfolio, ELTs and
// engine configuration are already in its address space, so the protocol
// only moves trial blocks in and per-trial losses out. The loop is
// deliberately dumb — read Task, Ack, decode via data::EncodedBlockSource
// (the same encoded YELT a chunked file holds per chunk), run the one trial
// kernel on the pool-free Sequential backend with the block's global trial
// base keying the sampling streams, reply Result — so bit-identical
// recovery falls out of the engine's determinism instead of being
// re-engineered here.
//
// FaultPlan injections are applied *inside* the child: the coordinator sees
// only symptoms (EOF, CRC mismatch, a silent stall), exactly as from a real
// fault.
#pragma once

#include "core/aggregate_engine.hpp"
#include "dist/config.hpp"
#include "finance/contract.hpp"

namespace riskan::dist {

/// Everything a worker needs, inherited through fork — never serialised.
struct WorkerContext {
  const finance::Portfolio* portfolio = nullptr;
  /// Template engine config; trial_base is overwritten per task from the
  /// Task frame. Must be Sequential / pool-free (the coordinator normalises
  /// it before forking).
  core::EngineConfig engine;
  /// Spawn-order index — the FaultPlan's targeting key.
  int worker_index = 0;
  FaultPlan faults;
};

/// The worker protocol loop over the two pipe fds. Runs until the task
/// stream closes or a Shutdown frame arrives, then _exit(0)s; never
/// returns. A failed *task* (bad block data) sends an Error frame and keeps
/// serving; a failed *stream* _exit(1)s.
[[noreturn]] void worker_main(const WorkerContext& context, int task_fd, int result_fd);

}  // namespace riskan::dist
