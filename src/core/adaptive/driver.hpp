// The adaptive block driver — how a pass runs "until converged".
//
// run_adaptive re-cuts any TrialSource onto the adaptive decision grid
// (data::ReblockedSource), runs each grid block through the engine's block
// runner (core::run_books) with adaptivity cleared and the block's offset
// moved onto EngineConfig::trial_base (so every loss is bit-identical to
// the same trial of a full fixed-budget run), copies every run's block
// result, folds run 0's YLT partials into a ConvergenceController, and
// stops early once the monitored metrics converge. Run 0 is the book of a
// plain engine run, or the base book of a scenario sweep, so every
// scenario stops at the base book's trial and the sweep's deltas stay
// trial-aligned. Outputs are the converged prefix: every run's YLTs are
// truncated to the stopping trial count, and run 0's
// EngineResult::adaptive carries the report.
#pragma once

#include <vector>

#include "core/aggregate_engine.hpp"

namespace riskan::data {
class TrialSource;
}

namespace riskan::core::adaptive {

/// Adaptive counterpart of run_books; called by the runner when
/// config.adaptive is enabled (never call with it disabled). Honours
/// backends, OEP, contract YLTs — each block runs the exact non-adaptive
/// path (its blocks are ephemeral, so every contract gathers by lookup).
std::vector<EngineResult> run_adaptive(const BookRuns& runs, data::TrialSource& source,
                                       const EngineConfig& config);

}  // namespace riskan::core::adaptive
