#include "core/aggregate_engine.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "core/adaptive/driver.hpp"
#include "core/exec.hpp"
#include "core/portfolio_batch.hpp"
#include "core/secondary.hpp"
#include "data/resolved_yelt.hpp"
#include "data/trial_source.hpp"
#include "finance/terms.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "util/require.hpp"
#include "util/stopwatch.hpp"

namespace riskan::core {

const char* to_string(Backend backend) noexcept {
  switch (backend) {
    case Backend::Sequential: return "sequential";
    case Backend::Threaded: return "threaded";
  }
  return "unknown";
}

const char* to_string(Kernel kernel) noexcept {
  switch (kernel) {
    case Kernel::Auto: return "auto";
    case Kernel::Scalar: return "scalar";
  }
  return "unknown";
}

namespace {

/// Bounds beyond which a knob is a bug, not a tuning choice.
constexpr int kMaxDeviceBlockDim = 1 << 20;
constexpr std::size_t kMaxTrialGrain = std::size_t{1} << 30;
constexpr std::size_t kMaxDeviceEltChunkRows = std::size_t{1} << 30;

}  // namespace

void validate_engine_config(const EngineConfig& config) {
  obs::validate_obs_config(config.obs);
  adaptive::validate_adaptive_config(config.adaptive);
  if (config.adaptive.enabled() &&
      (config.adaptive.metrics & adaptive::kOccurrenceMetrics) != 0) {
    RISKAN_REQUIRE(config.compute_oep,
                   "adaptive occurrence metrics (occ_var/occ_tvar) need compute_oep");
  }
  RISKAN_REQUIRE(config.trial_grain <= kMaxTrialGrain,
                 "trial_grain is absurdly large (max 2^30 trials per chunk)");
  RISKAN_REQUIRE(config.device_block_dim > 0, "device block dim must be positive");
  RISKAN_REQUIRE(config.device_block_dim <= kMaxDeviceBlockDim,
                 "device block dim is absurdly large (max 2^20 trials per block)");
  RISKAN_REQUIRE(config.device_elt_chunk_rows <= kMaxDeviceEltChunkRows,
                 "device_elt_chunk_rows is absurdly large (max 2^30 rows per chunk)");
  if (config.device_info != nullptr) {
    RISKAN_REQUIRE(config.device_spec.const_mem_bytes > 0,
                   "the device model needs a constant-memory segment");
    RISKAN_REQUIRE(config.device_spec.shared_mem_per_block > 0,
                   "the device model needs a shared-memory arena");
  }
}

data::ResolverCache& resolver_cache_for(const EngineConfig& config,
                                        const data::TrialSource& source,
                                        data::ResolverCache& local) {
  // Ephemeral blocks die with the pass, so caching their resolutions
  // anywhere durable — the caller's cache included — only parks dead keys
  // and evicts genuinely warm entries; the run-local cache (cleared per
  // block) wins unconditionally there.
  if (source.ephemeral_blocks()) {
    return local;
  }
  return config.resolver_cache != nullptr ? *config.resolver_cache
                                          : data::ResolverCache::shared();
}

void for_each_trial_block(data::TrialSource& source, const EngineConfig& config,
                          data::ResolverCache* run_local_cache,
                          const std::function<void(const data::TrialBlock&, TrialId)>& body) {
  const TrialId trials = source.trials();
  data::TrialBlock block;
  TrialId seen = 0;
  while (source.next(block)) {
    const TrialId block_trials = block.yelt->trials();
    RISKAN_ENSURE(block.trial_offset == seen && seen + block_trials <= trials,
                  "trial source delivered blocks out of order or past its trial count");
    body(block, config.trial_base + block.trial_offset);
    seen += block_trials;
    // Ephemeral blocks resolve through the run-local cache (see
    // resolver_cache_for); dropping those resolutions with the block keeps
    // memory bounded and entries from outliving their table.
    if (run_local_cache != nullptr && source.ephemeral_blocks()) {
      run_local_cache->clear();
    }
  }
  RISKAN_ENSURE(seen == trials, "trial source delivered fewer trials than declared");
}

EngineResult run_aggregate_analysis(const finance::Portfolio& portfolio,
                                    const data::YearEventLossTable& yelt,
                                    const EngineConfig& config) {
  data::InMemorySource source(yelt);
  return run_aggregate_analysis(portfolio, source, config);
}

EngineResult run_aggregate_analysis(const finance::Portfolio& portfolio,
                                    data::TrialSource& source,
                                    const EngineConfig& config) {
  validate_engine_config(config);
  RISKAN_REQUIRE(!portfolio.empty(), "portfolio must contain contracts");
  const TrialId trials = source.trials();
  RISKAN_REQUIRE(trials > 0, "trial source must contain trials");

  // Adaptive stopping wraps this very entry point: the driver re-enters it
  // per decision block with adaptivity cleared, so everything below runs
  // unchanged — bit-identically — whether the budget is fixed or adaptive.
  if (config.adaptive.enabled()) {
    return adaptive::run_adaptive_aggregate(portfolio, source, config);
  }

  // The one lowering: per trial block, every contract's layer tower goes
  // into one plan, in contract order, executed once. Each tower is one
  // gather group (one resolution and draw per occurrence feeds the whole
  // tower), and the kernel walks trial blocks outermost and groups in plan
  // order, so every output cell sees contracts, then layers, in order. The
  // plan is lowered against the first block and re-bound to each later
  // one; per-trial outputs are sliced by block, and the block's trial
  // offset rides the sampling stream base, so a streamed run is
  // bit-identical to the in-memory one.
  obs::RunObsScope obs_scope(config.obs);
  obs::Timer timer("engine.run");
  static const obs::Counter runs_counter =
      obs::MetricsRegistry::global().counter("engine.runs");
  static const obs::Histogram block_hist =
      obs::MetricsRegistry::global().histogram("engine.block_seconds");
  runs_counter.add();

  EngineResult result;
  result.portfolio_ylt = data::YearLossTable(trials, "portfolio");
  result.reinstatement_premium = data::YearLossTable(trials, "reinstatement-premium");
  if (config.keep_contract_ylts) {
    result.contract_ylts.reserve(portfolio.size());
    for (const auto& contract : portfolio.contracts()) {
      result.contract_ylts.emplace_back(
          trials, "contract-" + std::to_string(contract.id()));
    }
  }
  if (config.compute_oep) {
    result.portfolio_occurrence_ylt = data::YearLossTable(trials, "portfolio-oep");
  }

  // Samplers are pure functions of each contract's ELT — block-invariant,
  // so they are built once per run.
  std::vector<SecondarySampler> samplers;
  if (config.secondary_uncertainty) {
    samplers.reserve(portfolio.size());
    for (const auto& contract : portfolio.contracts()) {
      samplers.emplace_back(contract.elt());
    }
  }

  // Groups gather by in-kernel lookup and build nothing, unless the run
  // caches compact resolutions of a resident YELT. A compact resolution of
  // an ephemeral block would be built, read once and dropped.
  const bool compact = config.batch_contracts && !source.ephemeral_blocks();
  data::ResolverCache& cache = config.resolver_cache != nullptr
                                   ? *config.resolver_cache
                                   : data::ResolverCache::shared();
  std::vector<const data::EventLossTable*> elts;
  for (const auto& contract : portfolio.contracts()) {
    elts.push_back(&contract.elt());
  }
  // Pool-free backends must stay off the pool end to end, resolution
  // builds included (single-thread contract).
  const ParallelConfig resolve_par =
      pool_free(config.backend)
          ? ParallelConfig{nullptr, std::numeric_limits<std::size_t>::max()}
          : ParallelConfig{config.pool, config.trial_grain};
  data::MultiResolution resolution;

  const Philox4x32 philox(config.seed);
  const auto executor = exec::make_executor(config);
  const std::uint64_t layer_count = portfolio.layer_count();
  std::vector<batch::Slot> slots(layer_count);
  exec::ExecutionPlan plan;
  bool lowered = false;

  std::vector<Money> occurrence_accum;
  for_each_trial_block(source, config, nullptr,
                       [&](const data::TrialBlock& block, TrialId base) {
    obs::Timer block_timer("engine.block");
    const data::YearEventLossTable& yelt = *block.yelt;
    const TrialId block_trials = yelt.trials();
    const auto yelt_offsets = yelt.offsets();
    if (compact) {
      const Stopwatch resolve_watch;
      resolution = data::MultiResolution::build(elts, yelt, &cache, resolve_par);
      result.resolve_seconds += resolve_watch.seconds();
    }
    if (config.compute_oep) {
      occurrence_accum.assign(yelt.entries(), 0.0);
    }

    std::size_t p = 0;
    for (std::size_t c = 0; c < portfolio.size(); ++c) {
      const auto& contract = portfolio.contract(c);
      for (const auto& layer : contract.layers()) {
        batch::Slot& slot = slots[p++];
        slot = batch::Slot{};
        if (compact) {
          const data::CompactResolvedYelt& entry = resolution.entry(c);
          slot.hit_offsets = entry.trial_offsets().data();
          slot.seqs = entry.seqs().data();
          slot.rows = entry.rows().data();
          result.elt_lookups += entry.hits();
        } else {
          slot.gather = batch::Gather::Lookup;
          slot.events = yelt.events().data();
        }
        slot.elt = &contract.elt();
        slot.means = contract.elt().mean_loss().data();
        slot.sampler = config.secondary_uncertainty ? &samplers[c] : nullptr;
        slot.terms = layer.terms;
        slot.reinstatements = layer.reinstatements;
        slot.upfront_premium = layer.upfront_premium;
        slot.contract_id = contract.id();
        slot.contract_losses =
            config.keep_contract_ylts
                ? result.contract_ylts[c].mutable_losses().subspan(block.trial_offset,
                                                                   block_trials)
                : std::span<Money>{};
        slot.portfolio_losses =
            result.portfolio_ylt.mutable_losses().subspan(block.trial_offset, block_trials);
        slot.reinstatement_prem = result.reinstatement_premium.mutable_losses().subspan(
            block.trial_offset, block_trials);
        slot.occurrence_accum = config.compute_oep ? occurrence_accum.data() : nullptr;
      }
    }

    if (!lowered) {
      EngineConfig lower_config = config;
      lower_config.trial_base = base;
      plan = exec::ExecutionPlan::lower(slots, yelt_offsets, block_trials, lower_config);
      lowered = true;
    } else {
      plan.rebind(slots, yelt_offsets, block_trials, base);
    }
    // Lookup groups report their found rows per slot; compact groups
    // report 0 and were counted from their hits above.
    result.elt_lookups += executor->execute(plan, philox);

    if (config.compute_oep) {
      batch::finalize_oep(result.portfolio_occurrence_ylt.mutable_losses().subspan(
                              block.trial_offset, block_trials),
                          occurrence_accum, yelt_offsets, {});
    }
    result.occurrences_processed += yelt.entries() * layer_count;
    block_hist.observe(block_timer.stop());
  });

  result.seconds = timer.stop();
  result.obs_report = obs_scope.finish();
  return result;
}

std::vector<Money> run_layer(const finance::Contract& contract, const finance::Layer& layer,
                             const data::YearEventLossTable& yelt,
                             const EngineConfig& config) {
  finance::Portfolio single;
  single.add(finance::Contract(contract.id(), contract.elt(), {layer}, contract.region(),
                               contract.lob(), contract.peril()));
  EngineConfig cfg = config;
  cfg.keep_contract_ylts = false;
  cfg.compute_oep = false;
  // The copied ELT dies with this call: gathering by lookup keeps it from
  // parking a dead entry in a resolver cache.
  cfg.batch_contracts = false;
  auto result = run_aggregate_analysis(single, yelt, cfg);
  auto losses = result.portfolio_ylt.losses();
  return std::vector<Money>(losses.begin(), losses.end());
}

}  // namespace riskan::core
