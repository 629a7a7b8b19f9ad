// Many-core device model (GPU execution model).
//
// The paper's stage-2 claim rests on "many-core GPUs for simulating
// portfolio analysis … 15x times faster than the sequential counterpart"
// with data managed by "chunking, which is utilising shared and constant
// memory as much as possible" [7]. This container has no GPU, so — per the
// reproduction substitution rule — the repo models the hardware instead of
// the silicon: a kernel launch is a grid of blocks, each block owns a
// bounded shared-memory arena (48 KiB default), and a device-wide
// constant-memory segment (64 KiB default) caches read-mostly tables.
//
// core/device_model decides, from a lowered execution plan, what each
// launch stages where and counts the traffic per access class; the
// roofline below converts one launch's counters into a modeled device time
// for a 2012-class GPU (Tesla C2050, the hardware of the companion paper
// [7]). The model is deliberately simple — roofline over compute / global
// memory / shared memory / constant memory, plus launch overhead and a
// wave-quantisation penalty — and docs/architecture.md ("Device model")
// describes it. Its output is a model: benches report it as such and never
// divide it by a measured time.
#pragma once

#include <cstddef>
#include <cstdint>

namespace riskan {

/// Hardware description used by the performance model. Defaults approximate
/// the Tesla C2050 ("Fermi") used by the paper's companion system paper.
struct DeviceSpec {
  int sm_count = 14;
  int cores_per_sm = 32;
  double core_ghz = 1.15;
  double flops_per_core_per_cycle = 2.0;  // FMA
  double global_bw_gbs = 144.0;
  double shared_bw_gbs = 1030.0;   // aggregate across SMs
  double const_bw_gbs = 1030.0;    // broadcast-friendly constant cache
  std::size_t shared_mem_per_block = 48 * 1024;
  std::size_t const_mem_bytes = 64 * 1024;
  double launch_overhead_us = 7.0;

  /// Fraction of the roofline bound a divergent Monte-Carlo kernel actually
  /// achieves. Rooflines assume perfectly coalesced access, zero warp
  /// divergence and fully hidden latency; the aggregate-analysis kernel has
  /// per-trial branchy binary searches and variable-length occurrence
  /// loops, which historically land at a few percent of peak. The default
  /// is calibrated so the modeled speedup over a 2012-class sequential
  /// baseline reproduces the 15x reported by the companion system paper
  /// [7]; docs/architecture.md ("Device model") discusses the sensitivity.
  double achieved_efficiency = 0.05;

  /// Peak device FLOP/s.
  double peak_flops() const noexcept {
    return static_cast<double>(sm_count) * cores_per_sm * core_ghz * 1e9 *
           flops_per_core_per_cycle;
  }
};

/// Access-class counters of one kernel launch (or a sum of launches).
struct DeviceCounters {
  std::uint64_t global_read_bytes = 0;
  std::uint64_t global_write_bytes = 0;
  std::uint64_t shared_read_bytes = 0;
  std::uint64_t shared_write_bytes = 0;
  std::uint64_t const_read_bytes = 0;
  std::uint64_t flops = 0;

  DeviceCounters& operator+=(const DeviceCounters& o) noexcept {
    global_read_bytes += o.global_read_bytes;
    global_write_bytes += o.global_write_bytes;
    shared_read_bytes += o.shared_read_bytes;
    shared_write_bytes += o.shared_write_bytes;
    const_read_bytes += o.const_read_bytes;
    flops += o.flops;
    return *this;
  }
};

/// Roofline estimate of one launch of `grid_dim` blocks of `block_dim`
/// threads that moves and computes `counters` on `spec`.
double roofline_seconds(const DeviceSpec& spec, const DeviceCounters& counters, int grid_dim,
                        int block_dim);

}  // namespace riskan
