#include "core/exec.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <utility>

#include "core/secondary.hpp"
#include "core/simd.hpp"
#include "obs/obs.hpp"
#include "parallel/device.hpp"
#include "parallel/parallel_for.hpp"
#include "util/require.hpp"

namespace riskan::core::exec {

namespace {

/// Per-backend dispatch telemetry: one execution count plus one duration
/// histogram per executor kind, all in the global registry (near-zero cost
/// when obs is disabled). The Timer doubles as the trace span emitter.
struct ExecObs {
  obs::Counter executions;
  obs::Histogram seconds;

  explicit ExecObs(const char* backend)
      : executions(obs::MetricsRegistry::global().counter(std::string("exec.") + backend +
                                                          ".executions")),
        seconds(obs::MetricsRegistry::global().histogram(std::string("exec.") + backend +
                                                         ".seconds")) {}
};

bool same_source(const ExecutionPlan::Source& src, const batch::Slot& s) noexcept {
  return src.gather == s.gather && src.elt == s.elt && src.hit_offsets == s.hit_offsets &&
         src.seqs == s.seqs && src.rows == s.rows && src.dense_rows == s.dense_rows &&
         src.search_events == s.search_events;
}

/// Per-slot invariants shared by lower() and rebind(): every slot carries
/// exactly its gather mode's columns, scenario transforms stay compact-only,
/// and the sampling/means inputs match the secondary setting.
void validate_slots(std::span<const batch::Slot> slots,
                    std::span<const std::uint64_t> yelt_offsets, TrialId trials,
                    bool secondary) {
  const std::uint64_t entries = yelt_offsets.empty() ? 0 : yelt_offsets[trials];
  for (const batch::Slot& s : slots) {
    RISKAN_REQUIRE(s.elt != nullptr, "slot needs its gather ELT");
    switch (s.gather) {
      case batch::Gather::Compact:
        RISKAN_REQUIRE(s.hit_offsets != nullptr, "compact slot needs its CSR index");
        RISKAN_REQUIRE((s.seqs != nullptr && s.rows != nullptr) ||
                           s.hit_offsets[trials] == 0,
                       "compact slot needs seq and row columns");
        break;
      case batch::Gather::Dense:
        RISKAN_REQUIRE(s.dense_rows != nullptr || entries == 0,
                       "dense slot needs its pre-joined row column");
        break;
      case batch::Gather::Search:
        RISKAN_REQUIRE(s.search_events != nullptr || entries == 0,
                       "search slot needs the YELT event column");
        break;
    }
    if (s.gather != batch::Gather::Compact) {
      RISKAN_REQUIRE(s.mask_seq == nullptr && s.loss_scale == 1.0 &&
                         s.conditioned_ground_up < 0.0,
                     "dense/search slots take no scenario transforms");
    }
    RISKAN_REQUIRE(!secondary || s.sampler != nullptr,
                   "secondary sampling needs a per-slot sampler");
    RISKAN_REQUIRE(s.means != nullptr || secondary, "means-path slot needs ELT means");
  }
}

/// Packed ELT row as uploaded to simulated constant memory: event id, mean
/// (for secondary-off gathers) and the secondary-uncertainty parameters —
/// the per-gather unit of constant-memory traffic.
struct DeviceEltRow {
  EventId event_id = 0;
  Money mean_loss = 0.0;
  SecondarySampler::Param param;
};

// Approximate FLOP cost of one beta draw (two Marsaglia-Tsang gammas plus
// transforms) and of the per-occurrence layer terms; feeds the performance
// model only.
constexpr std::uint64_t kBetaFlops = 220;
constexpr std::uint64_t kOccTermFlops = 4;

/// Bytes one binary-search probe sequence over `rows` sorted ELT rows
/// touches (16 bytes per probed cache line, log2(rows) probes).
std::uint64_t probe_bytes(std::size_t rows) noexcept {
  return 16 * (64 - static_cast<std::uint64_t>(__builtin_clzll(rows | 1)));
}

/// Greedy constant-memory residency planning: walk the groups in slot
/// order, packing each new source's table (capped at device_elt_chunk_rows
/// rows when set) into the current chunk while the constant segment fits;
/// when a table does not fit alongside the current residents, close the
/// chunk (one launch each) and start the next. A table too large for an
/// empty segment is staged partially — its leading rows are resident, the
/// tail gathers from global memory.
void plan_device_chunks(ExecutionPlan& plan, const EngineConfig& config) {
  const std::size_t row_bytes = sizeof(DeviceEltRow);
  const std::size_t capacity = config.device_spec.const_mem_bytes;
  const std::size_t budget = capacity > 64 ? capacity - 64 : 0;
  // Each const_upload starts 16-byte aligned, so charge aligned sizes —
  // the sum then upper-bounds the arena's actual usage.
  const auto charge = [row_bytes](std::size_t rows) {
    return (rows * row_bytes + 15) & ~std::size_t{15};
  };

  ExecutionPlan::DeviceChunk cur;
  std::size_t cur_bytes = 0;
  const auto close = [&plan, &cur, &cur_bytes]() {
    if (cur.group_end > cur.group_begin) {
      plan.device_chunks.push_back(std::move(cur));
    }
    cur = ExecutionPlan::DeviceChunk{};
    cur_bytes = 0;
  };

  for (std::uint32_t g = 0; g < plan.groups.size(); ++g) {
    const std::uint32_t s = plan.group_source[g];
    const bool seen = std::any_of(cur.staged_rows.begin(), cur.staged_rows.end(),
                                  [s](const auto& e) { return e.first == s; });
    if (seen) {
      cur.group_end = g + 1;
      continue;
    }
    std::size_t want = plan.sources[s].elt->size();
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
}

/// The host trial kernel of the Sequential and Threaded executors
/// (EngineConfig::kernel). Under Kernel::Auto it holds the dispatched
/// vector kernel (none when no ISA dispatches, so Auto runs scalar) and
/// publishes exec.simd.* per execution; Kernel::Scalar publishes nothing.
class HostKernel {
 public:
  explicit HostKernel(Kernel kernel)
      : auto_(kernel == Kernel::Auto), dispatch_(auto_ ? simd_dispatch() : SimdDispatch{}) {}

  /// Whether `plan` runs the vector kernel: a dispatched ISA and at least
  /// one vectorizable group. Otherwise the scalar kernel runs the plan
  /// directly, so a plan of mask-column or search groups costs nothing
  /// extra under Auto.
  bool vectorizes(const ExecutionPlan& plan) const noexcept {
    return dispatch_.kernel != nullptr &&
           std::any_of(plan.groups.begin(), plan.groups.end(), [&plan](const batch::Group& g) {
             return batch::vectorizable(plan.slots.data() + g.begin, g.size);
           });
  }

  /// Trials [lo, hi) of `plan` through the vector or the scalar kernel.
  std::uint64_t run(const ExecutionPlan& plan, const Philox4x32& philox, bool vector,
                    TrialId lo, TrialId hi, batch::SimdStats& stats) const {
    std::vector<Money> scratch(plan.max_group_size);
    if (vector) {
      return dispatch_.kernel(plan.slots, plan.groups, plan.yelt_offsets, philox,
                              plan.secondary, plan.trial_base, lo, hi, scratch, stats);
    }
    return batch::process_trials(plan.slots, plan.groups, plan.yelt_offsets, philox,
                                 plan.secondary, plan.trial_base, lo, hi, scratch);
  }

  /// Publishes one execution's exec.simd.* telemetry (Auto only). A plan
  /// the scalar kernel ran counts every occurrence as scalar.
  void publish(const ExecutionPlan& plan, bool vector, batch::SimdStats stats) const {
    if (!auto_) {
      return;
    }
    static const obs::Gauge width_gauge =
        obs::MetricsRegistry::global().gauge("exec.simd.width");
    static const obs::Counter vector_occ =
        obs::MetricsRegistry::global().counter("exec.simd.vector_occurrences");
    static const obs::Counter tail_occ =
        obs::MetricsRegistry::global().counter("exec.simd.tail_occurrences");
    static const obs::Counter scalar_occ =
        obs::MetricsRegistry::global().counter("exec.simd.scalar_occurrences");
    static const obs::Counter sampler_fast =
        obs::MetricsRegistry::global().counter("exec.simd.sampler.fast");
    static const obs::Counter sampler_tail =
        obs::MetricsRegistry::global().counter("exec.simd.sampler.tail");
    if (!vector) {
      for (const batch::Group& g : plan.groups) {
        stats.scalar_occurrences += batch::group_occurrences(
            plan.slots.data() + g.begin, g.size, plan.yelt_offsets, 0, plan.trials);
      }
    }
    width_gauge.set(dispatch_.width);
    vector_occ.add(static_cast<double>(stats.vector_occurrences));
    tail_occ.add(static_cast<double>(stats.tail_occurrences));
    scalar_occ.add(static_cast<double>(stats.scalar_occurrences));
    sampler_fast.add(static_cast<double>(stats.sampler_fast));
    sampler_tail.add(static_cast<double>(stats.sampler_tail));
  }

 private:
  bool auto_;
  SimdDispatch dispatch_;
};

class SequentialExecutor final : public Executor {
 public:
  explicit SequentialExecutor(Kernel kernel) : kernel_(kernel) {}

  std::uint64_t execute(const ExecutionPlan& plan, const Philox4x32& philox) override {
    static const ExecObs metrics("sequential");
    obs::Timer timer("exec.sequential");
    const bool vector = kernel_.vectorizes(plan);
    batch::SimdStats stats;
    const std::uint64_t found = kernel_.run(plan, philox, vector, 0, plan.trials, stats);
    kernel_.publish(plan, vector, stats);
    metrics.executions.add();
    metrics.seconds.observe(timer.stop());
    return found;
  }

 private:
  HostKernel kernel_;
};

class ThreadedExecutor final : public Executor {
 public:
  ThreadedExecutor(ThreadPool* pool, std::size_t grain, Kernel kernel)
      : pool_(pool), grain_(grain), kernel_(kernel) {}

  std::uint64_t execute(const ExecutionPlan& plan, const Philox4x32& philox) override {
    static const ExecObs metrics("threaded");
    obs::Timer timer("exec.threaded");
    const bool vector = kernel_.vectorizes(plan);
    batch::SimdStats stats;
    std::mutex stats_mutex;
    const std::uint64_t found = parallel_reduce<std::uint64_t>(
        0, plan.trials, 0,
        [&](std::size_t lo, std::size_t hi) {
          batch::SimdStats chunk_stats;
          const std::uint64_t chunk_found =
              kernel_.run(plan, philox, vector, static_cast<TrialId>(lo),
                          static_cast<TrialId>(hi), chunk_stats);
          if (vector) {
            const std::lock_guard lock(stats_mutex);
            stats += chunk_stats;
          }
          return chunk_found;
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; },
        ParallelConfig{pool_, grain_});
    kernel_.publish(plan, vector, stats);
    metrics.executions.add();
    metrics.seconds.observe(timer.stop());
    return found;
  }

 private:
  ThreadPool* pool_;
  std::size_t grain_;
  HostKernel kernel_;
};

/// The GPU execution model: runs the same process_trials kernel inside
/// simulated device blocks, one launch per constant-memory residency chunk
/// of the plan, staging each block's slot column slices into shared memory
/// when they fit. Staged copies are what the kernel actually reads (values
/// are identical by construction, so outputs stay bit-exact); traffic is
/// metered per access class and converted to a modeled device time.
class DeviceSimExecutor final : public Executor {
 public:
  explicit DeviceSimExecutor(const EngineConfig& config)
      : device_(config.device_spec, config.pool),
        block_dim_(config.device_block_dim),
        info_(config.device_info) {}

  std::uint64_t execute(const ExecutionPlan& plan, const Philox4x32& philox) override;

 private:
  Device device_;
  int block_dim_;
  DeviceRunInfo* info_;
};

/// Adjusts a staged column pointer so that indexing with the *global*
/// offsets the kernel uses lands inside the block's staged slice (which
/// starts at global index `base`). Routed through uintptr_t: the biased
/// pointer is never dereferenced outside [base, base + slice).
template <typename T>
const T* rebase(const T* staged, std::uint64_t base) noexcept {
  return reinterpret_cast<const T*>(reinterpret_cast<std::uintptr_t>(staged) -
                                    static_cast<std::uintptr_t>(base) * sizeof(T));
}

std::uint64_t DeviceSimExecutor::execute(const ExecutionPlan& plan,
                                         const Philox4x32& philox) {
  static const ExecObs metrics("devicesim");
  obs::Timer exec_timer("exec.devicesim");
  const TrialId trials = plan.trials;
  const int block_dim = block_dim_;
  const int grid_dim = static_cast<int>((static_cast<std::uint64_t>(trials) + block_dim - 1) /
                                        static_cast<std::uint64_t>(block_dim));
  const auto yelt_offsets = plan.yelt_offsets;
  std::uint64_t lookups = 0;

  DeviceRunInfo scratch_info;
  DeviceRunInfo& info = info_ != nullptr ? *info_ : scratch_info;
  info.elt_chunks += plan.device_chunks.size();

  for (const ExecutionPlan::DeviceChunk& chunk : plan.device_chunks) {
    // Per-source resident row counts for this chunk (0 = fully global).
    std::vector<std::size_t> resident(plan.sources.size(), 0);
    device_.const_clear();
    for (const auto& [src, rows] : chunk.staged_rows) {
      resident[src] = rows;
      if (rows == 0) {
        continue;
      }
      // Upload the packed leading rows — real data in the real arena, so
      // the 64 KiB capacity contract is enforced exactly like CUDA's.
      const ExecutionPlan::Source& source = plan.sources[src];
      std::vector<DeviceEltRow> packed(rows);
      const auto ids = source.elt->event_ids();
      const auto means = source.elt->mean_loss();
      // Any slot of the source shares the sampler (same ELT); find one.
      const SecondarySampler* sampler = nullptr;
      for (std::uint32_t g = chunk.group_begin; g < chunk.group_end; ++g) {
        if (plan.group_source[g] == src) {
          sampler = plan.slots[plan.groups[g].begin].sampler;
          break;
        }
      }
      RISKAN_REQUIRE(!plan.secondary || sampler != nullptr,
                     "staged source has no slot in its residency chunk");
      for (std::size_t i = 0; i < rows; ++i) {
        packed[i].event_id = ids[i];
        packed[i].mean_loss = means[i];
        if (sampler != nullptr) {
          packed[i].param = sampler->param(i);
        }
      }
      (void)device_.const_upload(packed.data(), rows * sizeof(DeviceEltRow));
    }

    std::vector<std::uint64_t> block_found(static_cast<std::size_t>(grid_dim), 0);
    std::vector<std::uint8_t> block_staged(static_cast<std::size_t>(grid_dim), 2);

    const auto stats = device_.launch_blocks(grid_dim, block_dim, [&](BlockContext& ctx) {
      const auto first =
          static_cast<TrialId>(std::min<std::uint64_t>(trials,
              static_cast<std::uint64_t>(ctx.block_id()) * block_dim));
      const auto last =
          static_cast<TrialId>(std::min<std::uint64_t>(trials,
              static_cast<std::uint64_t>(first) + static_cast<std::uint64_t>(block_dim)));
      if (first >= last) {
        return;
      }
      const std::uint64_t occ_lo = yelt_offsets[first];
      const std::uint64_t occ_hi = yelt_offsets[last];

      // ---- Stage this block's column slices into shared memory, greedily
      // in source order. Search sources share the YELT event column, so it
      // is staged at most once.
      std::vector<const std::uint32_t*> staged_seqs(plan.sources.size(), nullptr);
      std::vector<const std::uint32_t*> staged_rows(plan.sources.size(), nullptr);
      std::vector<const std::uint32_t*> staged_dense(plan.sources.size(), nullptr);
      const EventId* staged_events = nullptr;
      bool all_staged = true;
      for (const auto& [src, rows_resident] : chunk.staged_rows) {
        (void)rows_resident;
        const ExecutionPlan::Source& source = plan.sources[src];
        if (source.gather == batch::Gather::Compact) {
          const std::uint64_t hit_lo = source.hit_offsets[first];
          const std::uint64_t n = source.hit_offsets[last] - hit_lo;
          const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(std::uint32_t);
          if (2 * bytes + ctx.shared_used() <= ctx.shared_capacity()) {
            if (n > 0) {
              auto* seqs = ctx.shared_alloc<std::uint32_t>(n);
              auto* rows = ctx.shared_alloc<std::uint32_t>(n);
              std::memcpy(seqs, source.seqs + hit_lo, bytes);
              std::memcpy(rows, source.rows + hit_lo, bytes);
              staged_seqs[src] = rebase(seqs, hit_lo);
              staged_rows[src] = rebase(rows, hit_lo);
            }
            ctx.meter_global_read(2 * bytes);
            ctx.meter_shared_write(2 * bytes);
          } else {
            all_staged = false;
          }
          continue;
        }
        const std::uint64_t n = occ_hi - occ_lo;
        const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(std::uint32_t);
        if (source.gather == batch::Gather::Dense) {
          if (bytes + ctx.shared_used() <= ctx.shared_capacity()) {
            if (n > 0) {
              auto* dense = ctx.shared_alloc<std::uint32_t>(n);
              std::memcpy(dense, source.dense_rows + occ_lo, bytes);
              staged_dense[src] = rebase(dense, occ_lo);
            }
            ctx.meter_global_read(bytes);
            ctx.meter_shared_write(bytes);
          } else {
            all_staged = false;
          }
        } else if (staged_events == nullptr) {
          if (bytes + ctx.shared_used() <= ctx.shared_capacity()) {
            if (n > 0) {
              auto* events = ctx.shared_alloc<EventId>(n);
              std::memcpy(events, source.search_events + occ_lo, bytes);
              staged_events = rebase(events, occ_lo);
            }
            ctx.meter_global_read(bytes);
            ctx.meter_shared_write(bytes);
          } else {
            all_staged = false;
          }
        }
      }

      // ---- The one trial kernel, over this block's trial range, one group
      // at a time (groups in plan order, so every shared output cell sees
      // the plan-wide kernel's addition order) — the per-group found count
      // is what the dense/search metering below needs. Slots are copied
      // with staged columns swapped in only when something actually
      // staged; spill blocks read the plan's slots in place.
      const bool anything_staged = ctx.shared_used() > 0;
      std::vector<Money> annual_scratch(plan.max_group_size);
      std::vector<batch::Slot> local;
      std::uint64_t found = 0;
      for (std::uint32_t g = chunk.group_begin; g < chunk.group_end; ++g) {
        const batch::Group& group = plan.groups[g];
        std::span<const batch::Slot> group_slots(plan.slots.data() + group.begin, group.size);
        if (anything_staged) {
          const std::uint32_t src = plan.group_source[g];
          local.assign(group_slots.begin(), group_slots.end());
          for (batch::Slot& s : local) {
            if (staged_seqs[src] != nullptr) {
              s.seqs = staged_seqs[src];
              s.rows = staged_rows[src];
            }
            if (staged_dense[src] != nullptr) {
              s.dense_rows = staged_dense[src];
            }
            if (s.gather == batch::Gather::Search && staged_events != nullptr) {
              s.search_events = staged_events;
            }
          }
          group_slots = local;
        }
        const batch::Group whole{0, group.size};
        const std::uint64_t group_found =
            batch::process_trials(group_slots, {&whole, 1}, yelt_offsets, philox,
                                  plan.secondary, plan.trial_base, first, last,
                                  annual_scratch);
        found += group_found;

        // ---- Meter the group's gather/compute traffic analytically. The
        // ground-up loss of an occurrence is gathered (and sampled) once
        // per group; the occurrence terms and the annual finish run once
        // per slot.
        const std::uint32_t src = plan.group_source[g];
        const ExecutionPlan::Source& source = plan.sources[src];
        const std::size_t elt_rows = source.elt->size();
        const double frac =
            elt_rows == 0 ? 0.0
                          : static_cast<double>(std::min(resident[src], elt_rows)) /
                                static_cast<double>(elt_rows);
        const auto meter_rows = [&](std::uint64_t rows) {
          const auto row_traffic = rows * static_cast<std::uint64_t>(sizeof(DeviceEltRow));
          const auto const_part =
              static_cast<std::uint64_t>(frac * static_cast<double>(row_traffic));
          ctx.meter_const_read(const_part);
          ctx.meter_global_read(row_traffic - const_part);
          if (plan.secondary) {
            ctx.meter_flops(rows * kBetaFlops);
          }
          ctx.meter_flops(rows * kOccTermFlops * group.size);
        };
        if (source.gather == batch::Gather::Compact) {
          const std::uint64_t hits = source.hit_offsets[last] - source.hit_offsets[first];
          const std::uint64_t col_bytes = hits * 2 * sizeof(std::uint32_t);
          if (staged_seqs[src] != nullptr) {
            ctx.meter_shared_read(col_bytes);
          } else {
            ctx.meter_global_read(col_bytes);
          }
          meter_rows(hits);
          for (std::uint32_t i = 0; i < group.size; ++i) {
            const batch::Slot& s = plan.slots[group.begin + i];
            if (s.occurrence_accum != nullptr) {
              ctx.meter_global_write(hits * sizeof(Money));
            }
          }
          // Annual finish per trial with hits.
          std::uint64_t busy_trials = 0;
          for (TrialId t = first; t < last; ++t) {
            busy_trials += source.hit_offsets[t + 1] > source.hit_offsets[t] ? 1 : 0;
          }
          ctx.meter_flops(busy_trials * 6 * group.size);
          ctx.meter_global_write(busy_trials * 3 * sizeof(Money) * group.size);
        } else {
          const std::uint64_t occ = occ_hi - occ_lo;
          const std::uint64_t col_bytes = occ * sizeof(std::uint32_t);
          const bool col_staged = source.gather == batch::Gather::Dense
                                      ? staged_dense[src] != nullptr
                                      : staged_events != nullptr;
          if (col_staged) {
            ctx.meter_shared_read(col_bytes);
          } else {
            ctx.meter_global_read(col_bytes);
          }
          if (source.gather == batch::Gather::Search) {
            // Every occurrence binary-searches the table once per group;
            // probes split between the resident prefix and the global tail.
            const std::uint64_t probes = occ * probe_bytes(elt_rows);
            ctx.meter_const_read(static_cast<std::uint64_t>(frac * probes));
            ctx.meter_global_read(probes - static_cast<std::uint64_t>(frac * probes));
          }
          // process_trials counts found lookups per slot; the rows were
          // found (and sampled) once for the whole group.
          meter_rows(group_found / group.size);
          ctx.meter_flops((occ_hi > occ_lo ? last - first : 0) * 6 * group.size);
          ctx.meter_global_write((occ_hi > occ_lo ? last - first : 0) * 3 *
                                 sizeof(Money) * group.size);
        }
      }
      block_found[static_cast<std::size_t>(ctx.block_id())] = found;

      block_staged[static_cast<std::size_t>(ctx.block_id())] = all_staged ? 1 : 0;
    });

    info.counters += stats.counters;
    info.modeled_seconds += stats.modeled_seconds;
    ++info.launches;
    for (const std::uint64_t found : block_found) {
      lookups += found;
    }
    for (const std::uint8_t staged : block_staged) {
      if (staged == 1) {
        ++info.shared_staged_blocks;
      } else if (staged == 0) {
        ++info.shared_spill_blocks;
      }
    }
  }
  metrics.executions.add();
  metrics.seconds.observe(exec_timer.stop());
  return lookups;
}

}  // namespace

ExecutionPlan ExecutionPlan::lower(std::span<const batch::Slot> slots,
                                   std::span<const std::uint64_t> yelt_offsets,
                                   TrialId trials, const EngineConfig& config) {
  RISKAN_REQUIRE(!slots.empty(), "execution plan needs at least one slot");
  ExecutionPlan plan;
  plan.slots = slots;
  plan.yelt_offsets = yelt_offsets;
  plan.trials = trials;
  plan.trial_base = config.trial_base;
  plan.secondary = config.secondary_uncertainty;

  validate_slots(slots, yelt_offsets, trials, plan.secondary);

  plan.groups = batch::group_slots(slots);
  for (const batch::Group& g : plan.groups) {
    plan.max_group_size = std::max<std::size_t>(plan.max_group_size, g.size);
  }

  plan.group_source.reserve(plan.groups.size());
  for (const batch::Group& g : plan.groups) {
    const batch::Slot& lead = slots[g.begin];
    std::uint32_t src = 0;
    while (src < plan.sources.size() && !same_source(plan.sources[src], lead)) {
      ++src;
    }
    if (src == plan.sources.size()) {
      Source source;
      source.gather = lead.gather;
      source.elt = lead.elt;
      source.hit_offsets = lead.hit_offsets;
      source.seqs = lead.seqs;
      source.rows = lead.rows;
      source.dense_rows = lead.dense_rows;
      source.search_events = lead.search_events;
      plan.sources.push_back(source);
    }
    plan.group_source.push_back(src);
  }

  if (config.backend == Backend::DeviceSim) {
    plan_device_chunks(plan, config);
  }
  return plan;
}

void ExecutionPlan::rebind(std::span<const batch::Slot> new_slots,
                           std::span<const std::uint64_t> new_yelt_offsets,
                           TrialId new_trials, TrialId new_trial_base) {
  RISKAN_REQUIRE(new_slots.size() == slots.size(),
                 "rebind requires the lowered slot-list shape");
  validate_slots(new_slots, new_yelt_offsets, new_trials, secondary);

  const auto new_groups = batch::group_slots(new_slots);
  RISKAN_REQUIRE(new_groups.size() == groups.size(),
                 "rebind changed the gather-group structure");
  for (std::size_t g = 0; g < groups.size(); ++g) {
    RISKAN_REQUIRE(new_groups[g].begin == groups[g].begin &&
                       new_groups[g].size == groups[g].size,
                   "rebind changed the gather-group structure");
    const batch::Slot& lead = new_slots[groups[g].begin];
    Source& src = sources[group_source[g]];
    RISKAN_REQUIRE(src.gather == lead.gather && src.elt == lead.elt,
                   "rebind changed a gather source's mode or table");
    src.hit_offsets = lead.hit_offsets;
    src.seqs = lead.seqs;
    src.rows = lead.rows;
    src.dense_rows = lead.dense_rows;
    src.search_events = lead.search_events;
  }
  // Groups sharing a source must still share columns in the new block, or
  // the device's per-source staging would misattribute reads.
  for (std::size_t g = 0; g < groups.size(); ++g) {
    RISKAN_REQUIRE(same_source(sources[group_source[g]], new_slots[groups[g].begin]),
                   "rebind broke gather-source sharing across groups");
  }

  slots = new_slots;
  yelt_offsets = new_yelt_offsets;
  trials = new_trials;
  trial_base = new_trial_base;
}

std::unique_ptr<Executor> make_executor(const EngineConfig& config) {
  switch (config.backend) {
    case Backend::Sequential:
      return std::make_unique<SequentialExecutor>(config.kernel);
    case Backend::Threaded:
      return std::make_unique<ThreadedExecutor>(config.pool, config.trial_grain,
                                                config.kernel);
    case Backend::DeviceSim:
      return std::make_unique<DeviceSimExecutor>(config);
  }
  RISKAN_REQUIRE(false, "unknown backend");
  return nullptr;
}

}  // namespace riskan::core::exec
