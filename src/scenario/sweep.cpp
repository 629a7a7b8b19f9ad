#include "scenario/sweep.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <string>

#include "core/adaptive/driver.hpp"
#include "core/exec.hpp"
#include "core/portfolio_batch.hpp"
#include "core/secondary.hpp"
#include "data/resolved_yelt.hpp"
#include "data/trial_source.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "util/require.hpp"

namespace riskan::scenario {

namespace {

/// Per-scenario mutable state while the pass runs.
struct ScenarioRun {
  core::EngineResult result;
  // Block-entries-sized OEP scratch, allocated by the calling thread and
  // zeroed per block on the pool; null = OEP off.
  std::unique_ptr<Money[]> occurrence_accum;
  std::size_t occurrence_capacity = 0;
  std::vector<Money> conditioned_accum;  // trials-sized; empty = no conditioning
};

/// The pool that per-scenario work around the pass (accumulator zeroing,
/// OEP finalisation, report rows) runs on: none for a pool-free backend,
/// whose sweep stays on the calling thread.
ThreadPool* scenario_pool(const core::EngineConfig& config) {
  if (core::pool_free(config.backend)) {
    return nullptr;
  }
  return config.pool != nullptr ? config.pool : &ThreadPool::shared();
}

/// Adaptive sweep: the core/adaptive block driver's loop, driving the
/// non-adaptive sweep per decision block. Convergence is judged on the
/// BASE book's metrics (the reference every delta is against); all
/// scenarios stop at the same trial, keeping the report's deltas aligned.
ScenarioSweepResult run_adaptive_sweep(const finance::Portfolio& portfolio,
                                       data::TrialSource& source,
                                       std::span<const ScenarioSpec> specs,
                                       const core::EngineConfig& config) {
  namespace adaptive = core::adaptive;
  const adaptive::AdaptiveConfig& ad = config.adaptive;
  // The adaptive loop is the outermost scope of its sweep: the per-block
  // re-entries below carry a cleared obs config, so the whole run is one
  // observability window.
  obs::RunObsScope obs_scope(config.obs);
  obs::Timer timer("scenario.adaptive_sweep");

  data::ReblockedSource grid(source, ad.block_trials, ad.max_trials);
  adaptive::ConvergenceController controller(ad, grid.trials());

  ScenarioSweepResult out;
  bool shaped = false;
  data::TrialBlock block;
  while (!controller.should_stop() && grid.next(block)) {
    core::EngineConfig inner = config;
    inner.adaptive = {};
    inner.obs = {};
    inner.trial_base = config.trial_base + block.trial_offset;
    data::SingleBlockSource one(block.yelt);
    ScenarioSweepResult r = run_scenario_sweep(portfolio, one, specs, inner);
    if (!shaped) {
      adaptive::detail::init_result_shapes(r.base, controller.trial_cap(), out.base);
      out.scenarios.resize(r.scenarios.size());
      for (std::size_t s = 0; s < r.scenarios.size(); ++s) {
        adaptive::detail::init_result_shapes(r.scenarios[s], controller.trial_cap(),
                                             out.scenarios[s]);
      }
      out.plan = r.plan;
      shaped = true;
    }
    adaptive::detail::copy_block_result(r.base, block.trial_offset, out.base);
    RISKAN_ENSURE(r.scenarios.size() == out.scenarios.size(),
                  "adaptive sweep block changed its scenario count");
    for (std::size_t s = 0; s < r.scenarios.size(); ++s) {
      adaptive::detail::copy_block_result(r.scenarios[s], block.trial_offset,
                                          out.scenarios[s]);
    }
    controller.fold(r.base.portfolio_ylt.losses(),
                    config.compute_oep ? r.base.portfolio_occurrence_ylt.losses()
                                       : std::span<const Money>{});
  }

  const TrialId stop = controller.trials_folded();
  adaptive::detail::truncate_result(out.base, stop);
  for (core::EngineResult& scenario : out.scenarios) {
    adaptive::detail::truncate_result(scenario, stop);
  }
  out.base.adaptive = controller.report();
  out.base.adaptive.trials_available = source.trials();

  // Rebuild the report over the converged prefix with the same normalised
  // specs the per-block sweeps used.
  std::vector<ScenarioSpec> validated(specs.begin(), specs.end());
  for (ScenarioSpec& spec : validated) {
    spec.validate();
  }
  out.report = build_report(out.base, out.scenarios, validated, scenario_pool(config));
  out.seconds = timer.stop();
  for (core::EngineResult& scenario : out.scenarios) {
    scenario.seconds = out.seconds;
  }
  out.base.seconds = out.seconds;
  out.obs_report = obs_scope.finish();
  return out;
}

}  // namespace

ScenarioSweepResult run_scenario_sweep(const finance::Portfolio& portfolio,
                                       const data::YearEventLossTable& yelt,
                                       std::span<const ScenarioSpec> specs,
                                       const core::EngineConfig& config) {
  data::InMemorySource source(yelt);
  return run_scenario_sweep(portfolio, source, specs, config);
}

ScenarioSweepResult run_scenario_sweep(const finance::Portfolio& portfolio,
                                       data::TrialSource& source,
                                       std::span<const ScenarioSpec> specs,
                                       const core::EngineConfig& config) {
  core::validate_engine_config(config);
  RISKAN_REQUIRE(!portfolio.empty(), "scenario sweep needs a non-empty base book");
  const TrialId trials = source.trials();
  RISKAN_REQUIRE(trials > 0, "scenario sweep needs a trial source with trials");

  // Adaptive stopping wraps this entry point exactly like the aggregate
  // engine's: the driver re-enters it per decision block with adaptivity
  // cleared, so the pass below runs unchanged either way.
  if (config.adaptive.enabled()) {
    return run_adaptive_sweep(portfolio, source, specs, config);
  }
  obs::RunObsScope obs_scope(config.obs);
  obs::Timer timer("scenario.sweep");

  // Normalise validated copies; the base book is the implicit scenario 0.
  std::vector<ScenarioSpec> all;
  all.reserve(specs.size() + 1);
  all.push_back(ScenarioSpec::identity());
  for (const ScenarioSpec& spec : specs) {
    all.push_back(spec);
    all.back().validate();
  }

  // Pool-free backends stay off the pool (single-thread contract, shared
  // with MapReduce map tasks); the executor layer owns the backend dispatch.
  const ParallelConfig par_cfg =
      core::pool_free(config.backend)
          ? ParallelConfig{nullptr, std::numeric_limits<std::size_t>::max()}
          : ParallelConfig{config.pool, config.trial_grain};
  ThreadPool* const pool = scenario_pool(config);
  const ParallelConfig per_scenario =
      pool == nullptr ? par_cfg : ParallelConfig{pool, 1};
  std::vector<ScenarioRun> runs(all.size());
  // Per-scenario work around the pass: one scenario per task.
  const auto for_each_run = [&](const auto& body) {
    parallel_for(
        0, runs.size(),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t s = lo; s < hi; ++s) {
            body(runs[s]);
          }
        },
        per_scenario);
  };
  data::ResolverCache local_cache;
  data::ResolverCache& cache = core::resolver_cache_for(config, source, local_cache);

  // One sampler per distinct contract — shared by every scenario touching
  // it, exactly like the resolutions. Contracts (and the blueprint list)
  // are block-invariant: the plan re-derives them per block from the same
  // (book, specs), so pointers and ordering repeat exactly.
  std::vector<core::SecondarySampler> samplers;

  const Philox4x32 philox(config.seed);
  const auto executor = core::exec::make_executor(config);
  core::exec::ExecutionPlan exec_plan;
  bool lowered = false;
  std::vector<core::batch::Slot> slots;
  ScenarioPlan plan;
  PlanStats stats;
  double resolve_seconds = 0.0;

  core::for_each_trial_block(source, config, &local_cache,
                             [&](const data::TrialBlock& block, TrialId base) {
    const data::YearEventLossTable& yelt = *block.yelt;
    const TrialId block_trials = yelt.trials();
    const auto yelt_offsets = yelt.offsets();

    // Planning splits like the exec layer: the structural half (books,
    // blueprints, stats — pure functions of (book, specs)) is built once
    // against the first block; later blocks re-bind only the trial-local
    // half (resolutions and mask columns, whose per-block builds reproduce
    // the monolithic columns slice for slice).
    if (!lowered) {
      plan = ScenarioPlan::build(portfolio, yelt, all, &cache, par_cfg);
    } else {
      plan.rebind(yelt, &cache, par_cfg);
    }
    resolve_seconds += plan.resolve_seconds();

    if (!lowered) {
      stats = plan.stats();
      for (std::size_t s = 0; s < all.size(); ++s) {
        ScenarioRun& run = runs[s];
        run.result.portfolio_ylt = data::YearLossTable(trials, "portfolio");
        run.result.reinstatement_premium =
            data::YearLossTable(trials, "reinstatement-premium");
        if (config.keep_contract_ylts) {
          const auto& book = plan.scenario_books()[s];
          run.result.contract_ylts.reserve(book.size());
          for (const std::size_t c : book) {
            run.result.contract_ylts.emplace_back(
                trials, "contract-" + std::to_string(plan.contracts()[c]->id()));
          }
        }
        if (config.compute_oep) {
          run.result.portfolio_occurrence_ylt =
              data::YearLossTable(trials, "portfolio-oep");
          if (all[s].conditioning) {
            run.conditioned_accum.assign(trials, 0.0);
          }
        }
      }
      if (config.secondary_uncertainty) {
        samplers.reserve(plan.contracts().size());
        for (const finance::Contract* contract : plan.contracts()) {
          samplers.emplace_back(contract->elt());
        }
      }
    }
    if (config.compute_oep) {
      const std::size_t entries = yelt.entries();
      for (ScenarioRun& run : runs) {
        if (run.occurrence_capacity < entries) {
          run.occurrence_accum = std::make_unique_for_overwrite<Money[]>(entries);
          run.occurrence_capacity = entries;
        }
      }
      for_each_run(
          [&](ScenarioRun& run) { std::fill_n(run.occurrence_accum.get(), entries, 0.0); });
    }

    // Flatten the blueprints into kernel slots (buffers are sized above, so
    // the spans taken here stay valid), per-trial outputs sliced by block.
    slots.clear();
    slots.reserve(plan.blueprints().size());
    for (const SlotBlueprint& bp : plan.blueprints()) {
      const auto& entry = plan.resolution().entry(bp.contract);
      const finance::Contract& contract = *plan.contracts()[bp.contract];
      ScenarioRun& run = runs[bp.scenario];

      core::batch::Slot slot;
      slot.hit_offsets = entry.trial_offsets().data();
      slot.seqs = entry.seqs().data();
      slot.rows = entry.rows().data();
      slot.elt = &contract.elt();
      slot.means = contract.elt().mean_loss().data();
      slot.sampler = config.secondary_uncertainty ? &samplers[bp.contract] : nullptr;
      slot.contract_id = contract.id();
      slot.loss_scale = bp.loss_scale;
      slot.mask_seq = bp.mask >= 0 ? plan.masks()[bp.mask].adjusted_seq.data() : nullptr;
      slot.conditioned_ground_up = bp.conditioned_ground_up;
      slot.terms = bp.terms;
      slot.reinstatements = bp.reinstatements;
      slot.upfront_premium = bp.upfront_premium;
      slot.contract_losses =
          config.keep_contract_ylts
              ? run.result.contract_ylts[bp.contract_in_scenario]
                    .mutable_losses()
                    .subspan(block.trial_offset, block_trials)
              : std::span<Money>{};
      slot.portfolio_losses = run.result.portfolio_ylt.mutable_losses().subspan(
          block.trial_offset, block_trials);
      slot.reinstatement_prem = run.result.reinstatement_premium.mutable_losses().subspan(
          block.trial_offset, block_trials);
      slot.occurrence_accum = run.occurrence_accum.get();
      slot.conditioned_accum = run.conditioned_accum.empty()
                                   ? nullptr
                                   : run.conditioned_accum.data() + block.trial_offset;
      slots.push_back(slot);
    }

    // The one streamed pass serving every scenario, dispatched on the
    // configured executor (which also models the device run of the plan
    // when device_info is set). Lowered once, re-bound per block.
    if (!lowered) {
      core::EngineConfig lower_config = config;
      lower_config.trial_base = base;
      exec_plan = core::exec::ExecutionPlan::lower(slots, yelt_offsets, block_trials,
                                                   lower_config);
      lowered = true;
    } else {
      exec_plan.rebind(slots, yelt_offsets, block_trials, base);
    }
    (void)executor->execute(exec_plan, philox);

    // OEP finalisation, one scenario per task, then telemetry.
    if (config.compute_oep) {
      for_each_run([&](ScenarioRun& run) {
        const std::span<const Money> conditioned =
            run.conditioned_accum.empty()
                ? std::span<const Money>{}
                : std::span<const Money>(run.conditioned_accum)
                      .subspan(block.trial_offset, block_trials);
        core::batch::finalize_oep(run.result.portfolio_occurrence_ylt.mutable_losses()
                                      .subspan(block.trial_offset, block_trials),
                                  {run.occurrence_accum.get(), yelt.entries()}, yelt_offsets,
                                  conditioned);
      });
    }
    for (std::size_t s = 0; s < all.size(); ++s) {
      ScenarioRun& run = runs[s];
      std::uint64_t layer_count = 0;
      for (const std::size_t c : plan.scenario_books()[s]) {
        const std::uint64_t layers = plan.contracts()[c]->layers().size();
        run.result.elt_lookups += plan.resolution().entry(c).hits() * layers;
        layer_count += layers;
      }
      run.result.occurrences_processed += yelt.entries() * layer_count;
    }
  });

  const double engine_seconds = timer.seconds();
  for (ScenarioRun& run : runs) {
    run.result.seconds = engine_seconds;
    run.result.resolve_seconds = resolve_seconds;
  }

  ScenarioSweepResult out;
  out.base = std::move(runs[0].result);
  out.scenarios.reserve(specs.size());
  for (std::size_t s = 1; s < runs.size(); ++s) {
    out.scenarios.push_back(std::move(runs[s].result));
  }
  out.plan = stats;
  out.report = build_report(out.base, out.scenarios,
                            std::span<const ScenarioSpec>(all).subspan(1), pool);
  out.seconds = timer.stop();
  out.obs_report = obs_scope.finish();
  return out;
}

}  // namespace riskan::scenario
