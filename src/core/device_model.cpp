#include "core/device_model.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/exec.hpp"
#include "core/secondary.hpp"
#include "parallel/device.hpp"

namespace riskan::core::device_model {

namespace {

/// Packed ELT row as the device holds it in constant memory: event id,
/// mean (for secondary-off gathers) and the secondary-uncertainty
/// parameters — the per-gather unit of row traffic.
struct DeviceEltRow {
  EventId event_id = 0;
  Money mean_loss = 0.0;
  SecondarySampler::Param param;
};

// Approximate FLOP cost of one beta draw (two Marsaglia-Tsang gammas plus
// transforms) and of the per-occurrence layer terms; per slot and trial,
// the annual finish's FLOPs (aggregate terms and share) and its Money
// writes (contract, portfolio and reinstatement cells).
constexpr std::uint64_t kBetaFlops = 220;
constexpr std::uint64_t kOccTermFlops = 4;
constexpr std::uint64_t kFinishFlops = 6;
constexpr std::uint64_t kFinishWrites = 3;

/// Slots that read the same columns of the same table share one gather
/// source — the unit of residency and staging.
bool same_source(const batch::Slot& a, const batch::Slot& b) noexcept {
  return a.gather == b.gather && a.elt == b.elt && a.hit_offsets == b.hit_offsets &&
         a.seqs == b.seqs && a.rows == b.rows && a.events == b.events;
}

/// A contiguous group range whose sources' packed tables share one
/// constant-memory upload — one launch. Chunks run in group order.
/// `staged_rows` pairs each source of the chunk with how many of its
/// leading ELT rows are resident (possibly 0 = fully global); rows beyond
/// it gather from global memory.
struct ResidencyChunk {
  std::uint32_t group_begin = 0;
  std::uint32_t group_end = 0;
  std::vector<std::pair<std::uint32_t, std::size_t>> staged_rows;
};

/// Greedy constant-memory residency planning: walk the groups in slot
/// order, packing each new source's table (capped at device_elt_chunk_rows
/// rows when set) into the current chunk while the constant segment fits;
/// when a table does not fit alongside the current residents, close the
/// chunk (one launch each) and start the next. A table too large for an
/// empty segment is staged partially — its leading rows are resident, the
/// tail gathers from global memory.
std::vector<ResidencyChunk> plan_residency(const std::vector<const batch::Slot*>& sources,
                                           const std::vector<std::uint32_t>& group_source,
                                           const EngineConfig& config) {
  const std::size_t row_bytes = sizeof(DeviceEltRow);
  const std::size_t capacity = config.device_spec.const_mem_bytes;
  const std::size_t budget = capacity > 64 ? capacity - 64 : 0;
  // Each upload starts 16-byte aligned, so charge aligned sizes — the sum
  // then upper-bounds the segment's actual usage.
  const auto charge = [row_bytes](std::size_t rows) {
    return (rows * row_bytes + 15) & ~std::size_t{15};
  };

  std::vector<ResidencyChunk> chunks;
  ResidencyChunk cur;
  std::size_t cur_bytes = 0;
  const auto close = [&chunks, &cur, &cur_bytes]() {
    if (cur.group_end > cur.group_begin) {
      chunks.push_back(std::move(cur));
    }
    cur = ResidencyChunk{};
    cur_bytes = 0;
  };

  for (std::uint32_t g = 0; g < group_source.size(); ++g) {
    const std::uint32_t s = group_source[g];
    const bool seen = std::any_of(cur.staged_rows.begin(), cur.staged_rows.end(),
                                  [s](const auto& e) { return e.first == s; });
    if (seen) {
      cur.group_end = g + 1;
      continue;
    }
    std::size_t want = sources[s]->elt->size();
    if (config.device_elt_chunk_rows > 0) {
      want = std::min(want, config.device_elt_chunk_rows);
    }
    if (cur.group_end > cur.group_begin && cur_bytes + charge(want) > budget) {
      close();
      cur.group_begin = g;
    }
    // Partial residency when the table exceeds even an empty segment;
    // shaving the alignment pad off the remainder keeps charge(want)
    // within it.
    const std::size_t avail = budget - cur_bytes;
    want = std::min(want, avail >= 15 ? (avail - 15) / row_bytes : 0);
    cur.staged_rows.emplace_back(s, want);
    cur_bytes += charge(want);
    cur.group_end = g + 1;
  }
  close();
  return chunks;
}

/// Rows of `s`'s table that occurrences [lo, hi) of a lookup source find,
/// counted through the table as the kernel finds them — the rows a device
/// block gathers (and samples) once per group.
std::uint64_t found_rows(const batch::Slot& s, std::uint64_t lo, std::uint64_t hi) {
  const auto lookup = s.elt->row_lookup();
  std::uint64_t found = 0;
  for (std::uint64_t i = lo; i < hi; ++i) {
    const EventId e = s.events[i];
    found += (lookup.empty() ? s.elt->find(e) != data::EventLossTable::npos
                             : data::EventLossTable::lookup_row(lookup, e) !=
                                   data::EventLossTable::kNoRow)
                 ? 1
                 : 0;
  }
  return found;
}

}  // namespace

void estimate(const exec::ExecutionPlan& plan, const EngineConfig& config,
              DeviceRunInfo& info) {
  // Distinct gather sources in first-use group order, and each group's.
  std::vector<const batch::Slot*> sources;
  std::vector<std::uint32_t> group_source;
  group_source.reserve(plan.groups.size());
  for (const batch::Group& g : plan.groups) {
    const batch::Slot& lead = plan.slots[g.begin];
    std::uint32_t src = 0;
    while (src < sources.size() && !same_source(*sources[src], lead)) {
      ++src;
    }
    if (src == sources.size()) {
      sources.push_back(&lead);
    }
    group_source.push_back(src);
  }

  const DeviceSpec& spec = config.device_spec;
  const std::uint64_t trials = plan.trials;
  const auto block_dim = static_cast<std::uint64_t>(config.device_block_dim);
  const int grid_dim = static_cast<int>((trials + block_dim - 1) / block_dim);
  const auto yelt_offsets = plan.yelt_offsets;

  for (const ResidencyChunk& chunk : plan_residency(sources, group_source, config)) {
    std::vector<std::size_t> resident(sources.size(), 0);
    for (const auto& [src, rows] : chunk.staged_rows) {
      resident[src] = rows;
    }
    DeviceCounters launch;
    std::vector<char> column_staged(sources.size(), 0);

    for (std::uint64_t first = 0; first < trials; first += block_dim) {
      const std::uint64_t last = std::min(trials, first + block_dim);
      const std::uint64_t occ_lo = yelt_offsets[first];
      const std::uint64_t occ_hi = yelt_offsets[last];

      // Stage the block's column slices into the shared arena, greedily
      // in source order. A slice that does not fit spills the block: its
      // groups read that column from global memory.
      std::fill(column_staged.begin(), column_staged.end(), 0);
      bool all_staged = true;
      std::size_t shared_used = 0;
      const auto stage = [&](std::uint64_t bytes) {
        if (bytes + shared_used > spec.shared_mem_per_block) {
          all_staged = false;
          return false;
        }
        shared_used += bytes;
        launch.global_read_bytes += bytes;
        launch.shared_write_bytes += bytes;
        return true;
      };
      for (const auto& [src, rows_resident] : chunk.staged_rows) {
        const batch::Slot& s = *sources[src];
        column_staged[src] =
            s.gather == batch::Gather::Compact
                ? stage(2 * sizeof(std::uint32_t) * (s.hit_offsets[last] - s.hit_offsets[first]))
                : stage(sizeof(EventId) * (occ_hi - occ_lo));
      }

      // Meter each group's gather and compute traffic. The ground-up loss
      // of an occurrence is gathered (and sampled) once per group; the
      // occurrence terms and the annual finish run once per slot.
      for (std::uint32_t g = chunk.group_begin; g < chunk.group_end; ++g) {
        const batch::Group& group = plan.groups[g];
        const std::uint32_t src = group_source[g];
        const batch::Slot& source = *sources[src];
        const std::size_t elt_rows = source.elt->size();
        const double frac =
            elt_rows == 0 ? 0.0
                          : static_cast<double>(std::min(resident[src], elt_rows)) /
                                static_cast<double>(elt_rows);
        const auto meter_resident = [&](std::uint64_t bytes) {
          const auto const_part = static_cast<std::uint64_t>(frac * static_cast<double>(bytes));
          launch.const_read_bytes += const_part;
          launch.global_read_bytes += bytes - const_part;
        };
        const auto meter_rows = [&](std::uint64_t rows) {
          meter_resident(rows * sizeof(DeviceEltRow));
          if (plan.secondary) {
            launch.flops += rows * kBetaFlops;
          }
          launch.flops += rows * kOccTermFlops * group.size;
        };
        const auto meter_column = [&](std::uint64_t bytes, bool staged) {
          (staged ? launch.shared_read_bytes : launch.global_read_bytes) += bytes;
        };
        // Trials the annual finish runs for.
        std::uint64_t finished = 0;
        if (source.gather == batch::Gather::Compact) {
          const std::uint64_t hits = source.hit_offsets[last] - source.hit_offsets[first];
          meter_column(hits * 2 * sizeof(std::uint32_t), column_staged[src] != 0);
          meter_rows(hits);
          for (std::uint32_t i = 0; i < group.size; ++i) {
            if (plan.slots[group.begin + i].oep_run != batch::kNoOep) {
              launch.global_write_bytes += hits * sizeof(Money);
            }
          }
          for (std::uint64_t t = first; t < last; ++t) {
            finished += source.hit_offsets[t + 1] > source.hit_offsets[t] ? 1 : 0;
          }
        } else {
          const std::uint64_t occ = occ_hi - occ_lo;
          meter_column(occ * sizeof(EventId), column_staged[src] != 0);
          meter_rows(found_rows(source, occ_lo, occ_hi));
          finished = occ > 0 ? last - first : 0;
        }
        launch.flops += finished * kFinishFlops * group.size;
        launch.global_write_bytes += finished * kFinishWrites * sizeof(Money) * group.size;
      }
      ++(all_staged ? info.shared_staged_blocks : info.shared_spill_blocks);
    }

    info.counters += launch;
    info.modeled_seconds += roofline_seconds(spec, launch, grid_dim, config.device_block_dim);
    ++info.launches;
  }
}

}  // namespace riskan::core::device_model
