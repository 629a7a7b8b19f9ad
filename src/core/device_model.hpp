// The device model: what a lowered execution plan would cost on a
// many-core device, computed from the plan instead of simulated.
//
// The paper rests its stage-2 speed on many-core GPUs ("15x times faster
// than the sequential counterpart") and on "chunking, which is utilising
// shared and constant memory as much as possible". This container has no
// GPU, so the repo models the device (parallel/device.hpp: a Fermi-class
// DeviceSpec and a roofline) and this module makes every device decision
// for a plan:
//
//  * constant-memory residency — the plan's distinct gather sources are
//    packed greedily, in group order, into residency chunks of the
//    constant segment (capped at EngineConfig::device_elt_chunk_rows rows
//    per source); a table too large for an empty segment is resident in
//    part. One kernel launch per chunk.
//  * shared-memory staging — a launch is a grid of device_block_dim-trial
//    blocks; each block stages its sources' column slices into the shared
//    arena greedily in source order, and spills a slice that does not fit.
//  * metering — per group and block, the bytes each access class moves
//    and the FLOPs of gathers, beta draws, occurrence terms and the annual
//    finish. Found rows of lookup groups are counted through the table, as
//    the kernel finds them (its event→row lookup, or EventLossTable::find).
//  * the roofline, applied once per launch and summed in launch order.
//
// It reads plans and never runs the trial kernel: every counter is an
// integer function of hit offsets, YELT offsets and events, the tables and
// the spec. exec::execute calls estimate() after the host kernel runs
// whenever EngineConfig::device_info is set, so the model follows every
// plan (lookup or compact gathers, streamed blocks, scenario sweeps) and
// never touches an output. The numbers are a model: they are reported
// as modeled device time and traffic, never divided by a measured time.
#pragma once

#include "core/aggregate_engine.hpp"

namespace riskan::core::exec {
struct ExecutionPlan;
}

namespace riskan::core::device_model {

/// Adds the modeled device run of `plan` — its launches, staged and
/// spilled blocks, per-class traffic and roofline time — to `info`, under
/// config.device_spec, device_block_dim and device_elt_chunk_rows.
void estimate(const exec::ExecutionPlan& plan, const EngineConfig& config,
              DeviceRunInfo& info);

}  // namespace riskan::core::device_model
