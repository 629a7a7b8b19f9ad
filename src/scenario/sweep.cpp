#include "scenario/sweep.hpp"

#include <iterator>
#include <utility>

#include "data/trial_source.hpp"
#include "obs/obs.hpp"

namespace riskan::scenario {

namespace {

/// The pool that per-scenario report rows run on: none for a pool-free
/// backend, whose sweep stays on the calling thread.
ThreadPool* scenario_pool(const core::EngineConfig& config) {
  if (core::pool_free(config.backend)) {
    return nullptr;
  }
  return config.pool != nullptr ? config.pool : &ThreadPool::shared();
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
  const ScenarioPlan plan = ScenarioPlan::build(portfolio, all);

  // One pass of the engine's runner serves every scenario. A sweep caches
  // compact resolutions of a resident YELT, as run_portfolio_batch does,
  // and gathers streamed blocks by lookup; the sweep's own scope observes
  // the run, and an adaptive run stops every scenario at the base book's
  // trial.
  core::EngineConfig pass = config;
  pass.batch_contracts = true;
  pass.obs = {};
  std::vector<core::EngineResult> results = core::run_books(plan.runs, source, pass);

  ScenarioSweepResult out;
  out.base = std::move(results.front());
  out.scenarios.assign(std::make_move_iterator(results.begin() + 1),
                       std::make_move_iterator(results.end()));
  out.plan = plan.stats;
  out.report = build_report(out.base, out.scenarios,
                            std::span<const ScenarioSpec>(all).subspan(1),
                            scenario_pool(config));
  out.seconds = timer.stop();
  out.obs_report = obs_scope.finish();
  return out;
}

}  // namespace riskan::scenario
