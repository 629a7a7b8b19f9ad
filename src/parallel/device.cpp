#include "parallel/device.hpp"

#include <algorithm>
#include <cmath>

namespace riskan {

double roofline_seconds(const DeviceSpec& spec, const DeviceCounters& counters, int grid_dim,
                        int block_dim) {
  // Roofline: the launch is bound by the slowest of the pipes.
  const double compute_s = static_cast<double>(counters.flops) / spec.peak_flops();
  const double global_s =
      static_cast<double>(counters.global_read_bytes + counters.global_write_bytes) /
      (spec.global_bw_gbs * 1e9);
  const double shared_s =
      static_cast<double>(counters.shared_read_bytes + counters.shared_write_bytes) /
      (spec.shared_bw_gbs * 1e9);
  const double const_s =
      static_cast<double>(counters.const_read_bytes) / (spec.const_bw_gbs * 1e9);

  double busy = std::max({compute_s, global_s, shared_s, const_s});

  // Divergence / latency-hiding shortfall: see DeviceSpec::achieved_efficiency.
  if (spec.achieved_efficiency > 0.0 && spec.achieved_efficiency < 1.0) {
    busy /= spec.achieved_efficiency;
  }

  // Wave quantisation: a grid that does not fill an integral number of
  // SM waves leaves SMs idle in the last wave.
  const double waves_exact =
      static_cast<double>(grid_dim) / static_cast<double>(spec.sm_count);
  const double waves_rounded = std::ceil(waves_exact);
  if (waves_exact > 0.0) {
    busy *= waves_rounded / waves_exact;
  }

  // Under-filled blocks waste lanes within an SM.
  const int warp = 32;
  const double lane_fill =
      static_cast<double>(block_dim) /
      (static_cast<double>((block_dim + warp - 1) / warp) * warp);
  if (lane_fill > 0.0) {
    busy /= lane_fill;
  }

  return busy + spec.launch_overhead_us * 1e-6;
}

}  // namespace riskan
