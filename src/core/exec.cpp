#include "core/exec.hpp"

#include <algorithm>

#include "core/device_model.hpp"
#include "core/simd.hpp"
#include "obs/obs.hpp"
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

/// Per-slot invariants shared by lower() and rebind(): every slot carries
/// its gather mode's columns, and the sampling/means inputs match the
/// secondary setting.
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
      case batch::Gather::Lookup:
        RISKAN_REQUIRE(s.events != nullptr || entries == 0,
                       "lookup slot needs the YELT event column");
        break;
    }
    RISKAN_REQUIRE(!secondary || s.sampler != nullptr,
                   "secondary sampling needs a per-slot sampler");
    RISKAN_REQUIRE(s.means != nullptr || secondary, "means-path slot needs ELT means");
  }
}

/// Zeroes the plan's found counters for a new execution; returns them.
std::span<const std::uint64_t> zero_found(const ExecutionPlan& plan) {
  std::fill_n(plan.found_rows.get(), plan.groups.size(), 0);
  return {plan.found_rows.get(), plan.groups.size()};
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
  /// directly, so a plan of mask-column groups or of lookup groups over
  /// sparse tables costs nothing extra under Auto.
  bool vectorizes(const ExecutionPlan& plan) const noexcept {
    return dispatch_.kernel != nullptr &&
           std::any_of(plan.groups.begin(), plan.groups.end(), [&plan](const batch::Group& g) {
             return batch::vectorizable(plan.slots.data() + g.begin, g.size);
           });
  }

  /// Trials [lo, hi) of `plan` through the vector or the scalar kernel.
  void run(const ExecutionPlan& plan, const Philox4x32& philox, bool vector, TrialId lo,
           TrialId hi, batch::SimdStats& stats) const {
    std::vector<Money> scratch(plan.max_group_size);
    if (vector) {
      dispatch_.kernel(plan.slots, plan.groups, plan.yelt_offsets, philox, plan.secondary,
                       plan.trial_base, lo, hi, scratch, stats);
    } else {
      batch::process_trials(plan.slots, plan.groups, plan.yelt_offsets, philox, plan.secondary,
                            plan.trial_base, lo, hi, scratch);
    }
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

  std::span<const std::uint64_t> execute(const ExecutionPlan& plan,
                                         const Philox4x32& philox) override {
    static const ExecObs metrics("sequential");
    obs::Timer timer("exec.sequential");
    const bool vector = kernel_.vectorizes(plan);
    batch::SimdStats stats;
    const auto found = zero_found(plan);
    kernel_.run(plan, philox, vector, 0, plan.trials, stats);
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

  std::span<const std::uint64_t> execute(const ExecutionPlan& plan,
                                         const Philox4x32& philox) override {
    static const ExecObs metrics("threaded");
    obs::Timer timer("exec.threaded");
    const bool vector = kernel_.vectorizes(plan);
    const auto found = zero_found(plan);
    const batch::SimdStats stats = parallel_reduce<batch::SimdStats>(
        0, plan.trials, batch::SimdStats{},
        [&](std::size_t lo, std::size_t hi) {
          batch::SimdStats chunk_stats;
          kernel_.run(plan, philox, vector, static_cast<TrialId>(lo), static_cast<TrialId>(hi),
                      chunk_stats);
          return chunk_stats;
        },
        [](batch::SimdStats a, const batch::SimdStats& b) { return a += b; },
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

std::unique_ptr<Executor> make_host_executor(const EngineConfig& config) {
  switch (config.backend) {
    case Backend::Sequential:
      return std::make_unique<SequentialExecutor>(config.kernel);
    case Backend::Threaded:
      return std::make_unique<ThreadedExecutor>(config.pool, config.trial_grain,
                                                config.kernel);
  }
  RISKAN_REQUIRE(false, "unknown backend");
  return nullptr;
}

/// A host executor followed by the device model of each plan it ran
/// (EngineConfig::device_info).
class ModeledDeviceExecutor final : public Executor {
 public:
  explicit ModeledDeviceExecutor(const EngineConfig& config)
      : host_(make_host_executor(config)), config_(config) {}

  std::span<const std::uint64_t> execute(const ExecutionPlan& plan,
                                         const Philox4x32& philox) override {
    const auto found = host_->execute(plan, philox);
    device_model::estimate(plan, config_, *config_.device_info);
    return found;
  }

 private:
  std::unique_ptr<Executor> host_;
  EngineConfig config_;
};

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
  plan.found_rows = std::make_unique<std::uint64_t[]>(plan.groups.size());
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    plan.groups[g].found = &plan.found_rows[g];
    plan.max_group_size = std::max<std::size_t>(plan.max_group_size, plan.groups[g].size);
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
  }

  slots = new_slots;
  yelt_offsets = new_yelt_offsets;
  trials = new_trials;
  trial_base = new_trial_base;
}

std::unique_ptr<Executor> make_executor(const EngineConfig& config) {
  if (config.device_info != nullptr) {
    return std::make_unique<ModeledDeviceExecutor>(config);
  }
  return make_host_executor(config);
}

}  // namespace riskan::core::exec
