#include "core/adaptive/driver.hpp"

#include <algorithm>
#include <utility>

#include "data/trial_source.hpp"
#include "obs/obs.hpp"
#include "util/require.hpp"

namespace riskan::core::adaptive {

namespace {

/// Shapes `out`'s per-trial tables like `proto`'s (same labels, same
/// contract set, same OEP presence) but sized for `trials` trials.
void init_result_shapes(const EngineResult& proto, TrialId trials, EngineResult& out) {
  out.portfolio_ylt = data::YearLossTable(trials, proto.portfolio_ylt.label());
  out.reinstatement_premium =
      data::YearLossTable(trials, proto.reinstatement_premium.label());
  if (!proto.portfolio_occurrence_ylt.empty()) {
    out.portfolio_occurrence_ylt =
        data::YearLossTable(trials, proto.portfolio_occurrence_ylt.label());
  }
  out.contract_ylts.reserve(proto.contract_ylts.size());
  for (const data::YearLossTable& ylt : proto.contract_ylts) {
    out.contract_ylts.emplace_back(trials, ylt.label());
  }
}

void copy_span(const data::YearLossTable& from, TrialId offset, data::YearLossTable& to) {
  RISKAN_ENSURE(offset + from.trials() <= to.trials(),
                "adaptive block result overflows the preallocated output");
  std::copy(from.losses().begin(), from.losses().end(),
            to.mutable_losses().begin() + offset);
}

/// Copies one block result's per-trial outputs into `out` at trial
/// `offset` and accumulates its counters/telemetry.
void copy_block_result(const EngineResult& block, TrialId offset, EngineResult& out) {
  copy_span(block.portfolio_ylt, offset, out.portfolio_ylt);
  copy_span(block.reinstatement_premium, offset, out.reinstatement_premium);
  if (!block.portfolio_occurrence_ylt.empty()) {
    copy_span(block.portfolio_occurrence_ylt, offset, out.portfolio_occurrence_ylt);
  }
  RISKAN_ENSURE(block.contract_ylts.size() == out.contract_ylts.size(),
                "adaptive block result changed its contract set between blocks");
  for (std::size_t c = 0; c < block.contract_ylts.size(); ++c) {
    copy_span(block.contract_ylts[c], offset, out.contract_ylts[c]);
  }
  out.occurrences_processed += block.occurrences_processed;
  out.elt_lookups += block.elt_lookups;
  out.resolve_seconds += block.resolve_seconds;
}

/// Truncates every per-trial table of `result` to `trials` (the stop).
void truncate_result(EngineResult& result, TrialId trials) {
  result.portfolio_ylt.truncate(trials);
  result.portfolio_occurrence_ylt.truncate(trials);
  result.reinstatement_premium.truncate(trials);
  for (data::YearLossTable& ylt : result.contract_ylts) {
    ylt.truncate(trials);
  }
}

}  // namespace

std::vector<EngineResult> run_adaptive(const BookRuns& runs, data::TrialSource& source,
                                       const EngineConfig& config) {
  const AdaptiveConfig& adaptive = config.adaptive;
  RISKAN_REQUIRE(adaptive.enabled(), "adaptive driver invoked with adaptivity off");
  // The adaptive driver is the outermost scope of its run: the per-block
  // re-entries below carry a cleared obs config, so their spans/counters
  // accumulate into THIS scope's window instead of starting nested ones.
  obs::RunObsScope obs_scope(config.obs);
  obs::Timer timer("adaptive.run");

  data::ReblockedSource grid(source, adaptive.block_trials, adaptive.max_trials);
  ConvergenceController controller(adaptive, grid.trials());

  // Each grid block re-enters the runner: adaptivity cleared (terminating
  // the recursion after exactly one level) and the block's trial offset
  // moved onto trial_base, so sampling streams — and hence every loss —
  // match the same trials of a fixed-budget run bit for bit.
  std::vector<EngineResult> out;
  data::TrialBlock block;
  while (!controller.should_stop() && grid.next(block)) {
    EngineConfig inner = config;
    inner.adaptive = {};
    inner.obs = {};
    inner.trial_base = config.trial_base + block.trial_offset;
    data::SingleBlockSource one(block.yelt);
    const std::vector<EngineResult> r = run_books(runs, one, inner);
    if (out.empty()) {
      out.resize(r.size());
      for (std::size_t i = 0; i < r.size(); ++i) {
        init_result_shapes(r[i], controller.trial_cap(), out[i]);
      }
    }
    for (std::size_t i = 0; i < r.size(); ++i) {
      copy_block_result(r[i], block.trial_offset, out[i]);
    }
    controller.fold(r[0].portfolio_ylt.losses(),
                    config.compute_oep ? r[0].portfolio_occurrence_ylt.losses()
                                       : std::span<const Money>{});
  }

  RISKAN_ENSURE(!out.empty(), "adaptive run stopped before its first decision block");
  const double seconds = timer.stop();
  for (EngineResult& result : out) {
    truncate_result(result, controller.trials_folded());
    result.seconds = seconds;
  }
  out[0].adaptive = controller.report();
  out[0].adaptive.trials_available = source.trials();
  out[0].obs_report = obs_scope.finish();
  return out;
}

}  // namespace riskan::core::adaptive
