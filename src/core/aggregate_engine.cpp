#include "core/aggregate_engine.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>

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

BookRuns BookRuns::single(const finance::Portfolio& portfolio) {
  BookRuns runs;
  runs.runs.resize(1);
  for (std::size_t c = 0; c < portfolio.size(); ++c) {
    const finance::Contract& contract = portfolio.contract(c);
    runs.contracts.push_back(&contract);
    runs.runs[0].book.push_back(c);
    for (const finance::Layer& layer : contract.layers()) {
      SlotBlueprint bp;
      bp.contract = c;
      bp.contract_in_run = c;
      bp.terms = layer.terms;
      bp.reinstatements = layer.reinstatements;
      bp.upfront_premium = layer.upfront_premium;
      runs.blueprints.push_back(bp);
    }
  }
  return runs;
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
  RISKAN_REQUIRE(!portfolio.empty(), "portfolio must contain contracts");
  return std::move(run_books(BookRuns::single(portfolio), source, config).front());
}

std::vector<EngineResult> run_books(const BookRuns& runs, data::TrialSource& source,
                                    const EngineConfig& config) {
  validate_engine_config(config);
  RISKAN_REQUIRE(!runs.runs.empty() && !runs.blueprints.empty(),
                 "a pass needs at least one run with a slot");
  RISKAN_REQUIRE(source.trials() > 0, "trial source must contain trials");

  // The one lowering: per trial block, every run's slots go into one plan,
  // in blueprint order, executed once. Each contract's slots — its layer
  // tower in every run — are one gather group (one resolution and draw per
  // occurrence feeds all of them), and the kernel walks trial blocks
  // outermost and groups in plan order, so every output cell sees
  // contracts, then layers, in order. Per-trial outputs are sliced by
  // block, and the block's trial offset rides the sampling stream base, so
  // a streamed run is bit-identical to the in-memory one.
  obs::RunObsScope obs_scope(config.obs);
  obs::Timer timer("engine.run");
  static const obs::Counter runs_counter =
      obs::MetricsRegistry::global().counter("engine.runs");
  static const obs::Histogram block_hist =
      obs::MetricsRegistry::global().histogram("engine.block_seconds");
  runs_counter.add();

  // An adaptive pass walks the decision grid — blocks of block_trials,
  // capped at max_trials, whatever the source's own chunking — and folds
  // run 0's block slices into one controller, which stops the pass between
  // blocks. Run 0 is the plain run's book or the sweep's base book, so
  // every run keeps the same trial prefix as the fixed-budget pass.
  std::optional<data::ReblockedSource> grid;
  std::optional<adaptive::ConvergenceController> controller;
  if (config.adaptive.enabled()) {
    grid.emplace(source, config.adaptive.block_trials, config.adaptive.max_trials);
    controller.emplace(config.adaptive, grid->trials());
  }
  data::TrialSource& blocks = grid ? *grid : source;
  const TrialId trials = blocks.trials();

  const std::size_t run_count = runs.runs.size();
  std::vector<EngineResult> results(run_count);
  for (std::size_t r = 0; r < run_count; ++r) {
    EngineResult& result = results[r];
    result.portfolio_ylt = data::YearLossTable(trials, "portfolio");
    result.reinstatement_premium = data::YearLossTable(trials, "reinstatement-premium");
    if (config.keep_contract_ylts) {
      result.contract_ylts.reserve(runs.runs[r].book.size());
      for (const std::size_t c : runs.runs[r].book) {
        result.contract_ylts.emplace_back(trials,
                                          "contract-" + std::to_string(runs.contracts[c]->id()));
      }
    }
    if (config.compute_oep) {
      result.portfolio_occurrence_ylt = data::YearLossTable(trials, "portfolio-oep");
    }
  }

  // Samplers are pure functions of each contract's ELT — block-invariant,
  // so they are built once per contract and shared by every run.
  std::vector<SecondarySampler> samplers;
  if (config.secondary_uncertainty) {
    samplers.reserve(runs.contracts.size());
    for (const finance::Contract* contract : runs.contracts) {
      samplers.emplace_back(contract->elt());
    }
  }

  // Groups gather by in-kernel lookup and build nothing, unless the run
  // caches compact resolutions of a resident YELT. A compact resolution of
  // an ephemeral block (a streamed chunk or a decision-grid block) would be
  // built, read once and dropped.
  const bool compact = config.batch_contracts && !blocks.ephemeral_blocks();
  data::ResolverCache& cache = config.resolver_cache != nullptr
                                   ? *config.resolver_cache
                                   : data::ResolverCache::shared();
  std::vector<const data::EventLossTable*> elts;
  for (const finance::Contract* contract : runs.contracts) {
    elts.push_back(&contract->elt());
  }
  // Pool-free backends must stay off the pool end to end, resolution and
  // mask builds included (single-thread contract).
  const ParallelConfig block_par =
      pool_free(config.backend)
          ? ParallelConfig{nullptr, std::numeric_limits<std::size_t>::max()}
          : ParallelConfig{config.pool, config.trial_grain};
  data::MultiResolution resolution;
  std::vector<batch::MaskColumn> masks(runs.exclusions.size());
  // Each run's OEP slice of the block; the kernel finishes them.
  std::vector<std::span<Money>> oep_tables(config.compute_oep ? run_count : 0);

  const Philox4x32 philox(config.seed);
  std::vector<batch::Slot> slots(runs.blueprints.size());
  double resolve_seconds = 0.0;

  data::TrialBlock block;
  TrialId seen = 0;
  while (!(controller && controller->should_stop()) && blocks.next(block)) {
    obs::Timer block_timer("engine.block");
    const data::YearEventLossTable& yelt = *block.yelt;
    const TrialId block_trials = yelt.trials();
    RISKAN_ENSURE(block.trial_offset == seen && seen + block_trials <= trials,
                  "trial source delivered blocks out of order or past its trial count");
    const std::uint64_t entries = yelt.entries();
    const auto yelt_offsets = yelt.offsets();
    if (compact) {
      const Stopwatch resolve_watch;
      resolution = data::MultiResolution::build(elts, yelt, &cache, block_par);
      resolve_seconds += resolve_watch.seconds();
    }
    for (std::size_t m = 0; m < masks.size(); ++m) {
      masks[m] = batch::MaskColumn::build(yelt, runs.exclusions[m], block_par);
    }
    const auto block_slice = [&](data::YearLossTable& ylt) {
      return ylt.mutable_losses().subspan(block.trial_offset, block_trials);
    };
    for (std::size_t r = 0; r < oep_tables.size(); ++r) {
      oep_tables[r] = block_slice(results[r].portfolio_occurrence_ylt);
    }
    for (std::size_t p = 0; p < slots.size(); ++p) {
      const SlotBlueprint& bp = runs.blueprints[p];
      const finance::Contract& contract = *runs.contracts[bp.contract];
      EngineResult& result = results[bp.run];
      batch::Slot& slot = slots[p];
      slot = batch::Slot{};
      if (compact) {
        const data::CompactResolvedYelt& entry = resolution.entry(bp.contract);
        slot.hit_offsets = entry.trial_offsets().data();
        slot.seqs = entry.seqs().data();
        slot.rows = entry.rows().data();
      } else {
        slot.gather = batch::Gather::Lookup;
        slot.events = yelt.events().data();
      }
      slot.elt = &contract.elt();
      slot.means = contract.elt().mean_loss().data();
      slot.sampler = config.secondary_uncertainty ? &samplers[bp.contract] : nullptr;
      slot.contract_id = contract.id();
      slot.loss_scale = bp.loss_scale;
      slot.mask_seq = bp.mask >= 0 ? masks[bp.mask].adjusted_seq.data() : nullptr;
      slot.conditioned_ground_up = bp.conditioned_ground_up;
      slot.terms = bp.terms;
      slot.reinstatements = bp.reinstatements;
      slot.upfront_premium = bp.upfront_premium;
      slot.contract_losses = config.keep_contract_ylts
                                 ? block_slice(result.contract_ylts[bp.contract_in_run])
                                 : std::span<Money>{};
      slot.portfolio_losses = block_slice(result.portfolio_ylt);
      slot.reinstatement_prem = block_slice(result.reinstatement_premium);
      slot.oep_run = config.compute_oep ? static_cast<std::uint32_t>(bp.run) : batch::kNoOep;
    }

    const exec::ExecutionPlan plan =
        exec::ExecutionPlan::lower(slots, yelt_offsets, block_trials,
                                   config.trial_base + block.trial_offset,
                                   config.secondary_uncertainty, oep_tables);
    const auto found = exec::execute(plan, philox, config);
    // Each slot is one (occurrence × layer) evaluation of its run, so a run
    // is credited every YELT entry and every row its group found, once per
    // slot it has in the group.
    for (std::size_t g = 0; g < plan.groups.size(); ++g) {
      const batch::Group& group = plan.groups[g];
      for (std::uint32_t p = group.begin; p < group.begin + group.size; ++p) {
        EngineResult& result = results[runs.blueprints[p].run];
        result.elt_lookups += found[g];
        result.occurrences_processed += entries;
      }
    }
    block_hist.observe(block_timer.stop());
    seen += block_trials;
    if (controller) {
      controller->fold(block_slice(results[0].portfolio_ylt),
                       config.compute_oep ? block_slice(results[0].portfolio_occurrence_ylt)
                                          : std::span<Money>{});
    }
  }
  RISKAN_ENSURE(seen == trials || (controller && controller->should_stop()),
                "trial source delivered fewer trials than declared");

  const double seconds = timer.stop();
  for (EngineResult& result : results) {
    result.seconds = seconds;
    result.resolve_seconds = resolve_seconds;
    if (controller) {
      // The converged prefix: every run stops at run 0's trial.
      result.portfolio_ylt.truncate(seen);
      result.portfolio_occurrence_ylt.truncate(seen);
      result.reinstatement_premium.truncate(seen);
      for (data::YearLossTable& ylt : result.contract_ylts) {
        ylt.truncate(seen);
      }
    }
  }
  if (controller) {
    results.front().adaptive = controller->report();
    results.front().adaptive.trials_available = source.trials();
  }
  results.front().obs_report = obs_scope.finish();
  return results;
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
