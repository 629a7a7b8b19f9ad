#include "core/exec.hpp"

#include <algorithm>
#include <limits>
#include <mutex>

#include "core/device_model.hpp"
#include "core/simd.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "util/require.hpp"

namespace riskan::core::exec {

namespace {

/// Per-backend dispatch telemetry: one execution count plus one duration
/// histogram per backend, all in the global registry (near-zero cost when
/// obs is disabled), each registered on its backend's first execution.
struct ExecObs {
  obs::Counter executions;
  obs::Histogram seconds;

  explicit ExecObs(const char* backend)
      : executions(obs::MetricsRegistry::global().counter(std::string("exec.") + backend +
                                                          ".executions")),
        seconds(obs::MetricsRegistry::global().histogram(std::string("exec.") + backend +
                                                         ".seconds")) {}
};

const ExecObs& exec_obs(Backend backend) {
  if (backend == Backend::Sequential) {
    static const ExecObs sequential("sequential");
    return sequential;
  }
  static const ExecObs threaded("threaded");
  return threaded;
}

/// Publishes one Kernel::Auto execution's exec.simd.* telemetry. A plan
/// the scalar kernel ran counts every occurrence as scalar.
void publish_simd(const ExecutionPlan& plan, const SimdDispatch& dispatch, bool vector,
                  batch::SimdStats stats) {
  static const obs::Gauge width_gauge = obs::MetricsRegistry::global().gauge("exec.simd.width");
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
      stats.scalar_occurrences += batch::group_occurrences(plan.slots.data() + g.begin, g.size,
                                                           plan.yelt_offsets, 0, plan.trials);
    }
  }
  width_gauge.set(dispatch.width);
  vector_occ.add(static_cast<double>(stats.vector_occurrences));
  tail_occ.add(static_cast<double>(stats.tail_occurrences));
  scalar_occ.add(static_cast<double>(stats.scalar_occurrences));
  sampler_fast.add(static_cast<double>(stats.sampler_fast));
  sampler_tail.add(static_cast<double>(stats.sampler_tail));
}

/// The largest YELT span of `window` consecutive trials of [0, trials).
std::uint64_t widest_span(std::span<const std::uint64_t> offsets, std::size_t trials,
                          std::size_t window) {
  std::uint64_t widest = offsets[std::min(window, trials)] - offsets[0];
  for (std::size_t t = 1; t + window <= trials; ++t) {
    widest = std::max(widest, offsets[t + window] - offsets[t]);
  }
  return widest;
}

/// The scratch slabs of one execution, allocated by the calling thread and
/// lent to the chunks: as many as chunks can run at once, so a chunk always
/// finds one free.
class Slabs {
 public:
  Slabs(std::size_t count, std::size_t size)
      : memory_(std::make_unique_for_overwrite<Money[]>(count * size)) {
    for (std::size_t i = 0; i < count; ++i) {
      free_.push_back(memory_.get() + i * size);
    }
  }

  Money* take() {
    const std::lock_guard lock(mutex_);
    RISKAN_ENSURE(!free_.empty(), "more chunks ran at once than the execution has slabs");
    Money* slab = free_.back();
    free_.pop_back();
    return slab;
  }

  void give_back(Money* slab) {
    const std::lock_guard lock(mutex_);
    free_.push_back(slab);
  }

 private:
  std::unique_ptr<Money[]> memory_;
  std::mutex mutex_;
  std::vector<Money*> free_;
};

}  // namespace

ExecutionPlan ExecutionPlan::lower(std::span<const batch::Slot> slots,
                                   std::span<const std::uint64_t> yelt_offsets,
                                   TrialId trials, TrialId trial_base, bool secondary,
                                   std::span<const std::span<Money>> oep) {
  RISKAN_REQUIRE(!slots.empty(), "execution plan needs at least one slot");
  // Every slot carries its gather mode's columns, and the sampling/means
  // inputs match the secondary setting.
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
      case batch::Gather::Lookup:
        RISKAN_REQUIRE(s.events != nullptr || entries == 0,
                       "lookup slot needs the YELT event column");
        break;
    }
    RISKAN_REQUIRE(!secondary || s.sampler != nullptr,
                   "secondary sampling needs a per-slot sampler");
    RISKAN_REQUIRE(s.means != nullptr || secondary, "means-path slot needs ELT means");
    RISKAN_REQUIRE(s.oep_run == batch::kNoOep || s.oep_run < oep.size(),
                   "slot's OEP table is not in the plan");
  }
  for (const std::span<Money> table : oep) {
    RISKAN_REQUIRE(table.size() == trials, "an OEP table needs one cell per trial");
  }

  ExecutionPlan plan;
  plan.slots = slots;
  plan.yelt_offsets = yelt_offsets;
  plan.trials = trials;
  plan.trial_base = trial_base;
  plan.secondary = secondary;
  plan.oep = oep;
  plan.groups = batch::group_slots(slots);
  plan.found_rows = std::make_unique<std::uint64_t[]>(plan.groups.size());
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    plan.groups[g].found = &plan.found_rows[g];
    plan.max_group_size = std::max<std::size_t>(plan.max_group_size, plan.groups[g].size);
  }
  return plan;
}

std::span<const std::uint64_t> execute(const ExecutionPlan& plan, const Philox4x32& philox,
                                       const EngineConfig& config) {
  const bool sequential = pool_free(config.backend);
  const ExecObs& metrics = exec_obs(config.backend);
  obs::Timer timer(sequential ? "exec.sequential" : "exec.threaded");
  // Under Kernel::Auto the dispatched vector kernel runs the plan when at
  // least one group vectorizes; otherwise the scalar kernel runs it
  // directly, so a plan of mask-column groups or of lookup groups over
  // sparse tables costs nothing extra. Either kernel finishes OEP with the
  // dispatched lane max scan, resolved here once.
  const bool simd = config.kernel == Kernel::Auto;
  const SimdDispatch dispatch = simd_dispatch();
  const bool vector =
      simd && dispatch.kernel != nullptr &&
      std::any_of(plan.groups.begin(), plan.groups.end(), [&plan](const batch::Group& g) {
        return batch::vectorizable(plan.slots.data() + g.begin, g.size);
      });
  std::fill_n(plan.found_rows.get(), plan.groups.size(), 0);

  // Sequential is one inline chunk that never touches a pool; Threaded
  // splits the trials into grain-sized chunks on the pool.
  const ParallelConfig par =
      sequential ? ParallelConfig{nullptr, std::numeric_limits<std::size_t>::max()}
                 : ParallelConfig{config.pool, config.trial_grain};
  // A kernel block never extends past its chunk, so a slab's OEP cells
  // cover the widest YELT span of min(kernel block, chunk) trials; one slab
  // per chunk that can run at once.
  const riskan::detail::Split split = riskan::detail::split(plan.trials, par);
  const std::size_t window = std::min<std::size_t>(
      vector ? batch::kVectorTrialBlock : batch::kTrialBlock, split.grain);
  batch::OepSink oep;
  if (!plan.oep.empty() && plan.trials > 0) {
    oep.tables = plan.oep;
    oep.cells = widest_span(plan.yelt_offsets, plan.trials, window);
    oep.trials = window;
    oep.max_range = dispatch.max_range;
  }
  const std::size_t slab_size = plan.max_group_size + plan.oep.size() * oep.stride();
  Slabs slabs(split.pool == nullptr
                  ? 1
                  : std::min(split.pool->thread_count(),
                             (plan.trials + split.grain - 1) / split.grain),
              slab_size);

  const batch::SimdStats stats = parallel_reduce<batch::SimdStats>(
      0, plan.trials, batch::SimdStats{},
      [&](std::size_t lo, std::size_t hi) {
        batch::SimdStats chunk_stats;
        Money* const slab = slabs.take();
        const std::span<Money> annuals(slab, plan.max_group_size);
        batch::OepSink chunk_oep = oep;
        chunk_oep.scratch = slab + plan.max_group_size;
        if (vector) {
          dispatch.kernel(plan.slots, plan.groups, plan.yelt_offsets, philox, plan.secondary,
                          plan.trial_base, static_cast<TrialId>(lo), static_cast<TrialId>(hi),
                          annuals, chunk_oep, chunk_stats);
        } else {
          batch::process_trials(plan.slots, plan.groups, plan.yelt_offsets, philox,
                                plan.secondary, plan.trial_base, static_cast<TrialId>(lo),
                                static_cast<TrialId>(hi), annuals, chunk_oep);
        }
        slabs.give_back(slab);
        return chunk_stats;
      },
      [](batch::SimdStats a, const batch::SimdStats& b) { return a += b; }, par);
  if (simd) {
    publish_simd(plan, dispatch, vector, stats);
  }
  metrics.executions.add();
  metrics.seconds.observe(timer.stop());

  if (config.device_info != nullptr) {
    device_model::estimate(plan, config, *config.device_info);
  }
  return {plan.found_rows.get(), plan.groups.size()};
}

}  // namespace riskan::core::exec
