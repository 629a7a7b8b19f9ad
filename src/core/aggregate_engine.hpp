// Aggregate analysis — the paper's stage-2 Monte Carlo engine.
//
// "An additional Monte Carlo simulation, referred to as aggregate analysis,
// is necessary for generating an alternate view of which events occur and
// in which order they occur within a contractual year... a pre-simulated
// Year-Event-Loss Table containing between several thousand and millions of
// alternative views of a single contractual year is used. The output of
// aggregate analysis is a Year-Loss Table."
//
// For every (contract, trial): walk the trial's YELT occurrences, gather
// each occurrence's ELT row, optionally sample secondary uncertainty (one
// draw per occurrence, shared by every layer of the contract), then per
// layer apply per-occurrence terms, sum, apply annual aggregate terms and
// share, and accumulate into the contract's and the portfolio's YLT.
//
// There is exactly ONE implementation of that loop in the repo:
// core::batch::process_trials (src/core/portfolio_batch.hpp), and exactly
// one block runner around it: run_books below. Every entry point — this
// engine, the scenario sweep, forked dist workers and the pricer's
// run_layer — describes its request as one or more runs over the same
// trial source (BookRuns), and run_books lowers every run's slots into one
// exec::ExecutionPlan (src/core/exec.hpp) per trial block and runs it with
// exec::execute, on two orthogonal axes:
// EngineConfig::backend says where the plan runs —
//   Sequential — single thread, pool-free; the baseline of the paper's
//                "15x" claim (forked dist workers rely on the pool-free
//                contract).
//   Threaded   — parallel trial chunks on the shared-memory pool.
// — and EngineConfig::kernel says which host kernel runs there: Auto (the
// vector kernel on the runtime-dispatched ISA, scalar without one) or
// Scalar (the reference path).
// Outputs are bit-identical across backends, kernels, gathers and
// scheduling (tests enforce). The paper's many-core GPU is modeled, not
// run: with EngineConfig::device_info set, each executed plan also adds
// its modeled device launches, traffic and roofline time
// (core/device_model.hpp) to the caller's DeviceRunInfo.
//
// The runner has one lowering: per trial block, every contract's layer
// tower, in every run, goes into one plan, executed once, so one streamed
// pass serves the whole book and every variant of it. Each contract is one
// gather group. By default it finds each occurrence's ELT row inside the
// kernel, through the ELT's own event→row table
// (data::EventLossTable::row_lookup), or by binary search when the table is
// too sparse to carry one, and builds and caches nothing. A resident YELT
// run with EngineConfig::batch_contracts set (run_portfolio_batch and every
// scenario sweep set it) gathers through compact per-(contract, YELT)
// resolutions (data::CompactResolvedYelt) cached in data::ResolverCache
// instead, which pays off when the same tables are run again. Streamed
// blocks always gather by lookup, transforms included.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/adaptive/adaptive.hpp"
#include "data/resolved_yelt.hpp"
#include "data/yelt.hpp"
#include "data/ylt.hpp"
#include "finance/contract.hpp"
#include "obs/obs.hpp"
#include "parallel/device.hpp"
#include "parallel/thread_pool.hpp"

namespace riskan::data {
class TrialSource;  // data/trial_source.hpp — the engine's data plane
struct TrialBlock;
}

namespace riskan::core {

/// Where a plan runs.
enum class Backend {
  Sequential,
  Threaded,
};

const char* to_string(Backend backend) noexcept;

/// Which host trial kernel a Sequential or Threaded plan runs.
enum class Kernel {
  /// The vector kernel (core/batch_simd.hpp) when exec::simd_dispatch()
  /// finds a usable ISA (AVX2 or NEON), the scalar kernel otherwise.
  /// Never rejects a config: RISKAN_SIMD=off or a host without the ISA
  /// simply runs scalar. Outputs are bit-identical either way.
  Auto,
  /// batch::process_trials, the reference path.
  Scalar,
};

const char* to_string(Kernel kernel) noexcept;

/// Every backend, in to_string order — the shared iteration helper for
/// equivalence-matrix tests and benches (no per-file backend lists).
inline constexpr Backend kAllBackends[] = {Backend::Sequential, Backend::Threaded};
/// Both host kernels — the kernel axis of the equivalence matrices.
inline constexpr Kernel kAllKernels[] = {Kernel::Scalar, Kernel::Auto};

/// Backends bound to the caller's thread (never the pool): resolution
/// builds and block decodes under them must run inline. Dist workers need
/// this, because they are forked processes and a fork carries none of the
/// pool's threads; so does any caller that runs the engine from a pool
/// task, where submitting and blocking can deadlock.
constexpr bool pool_free(Backend backend) noexcept { return backend == Backend::Sequential; }

/// A run's modeled device telemetry (EngineConfig::device_info), for the
/// E2/E4/E10 reports: per-class traffic and the roofline time of the
/// modeled many-core device (core/device_model.hpp, parallel/device.hpp).
/// Every field is a model computed from the executed plans; none is a
/// measurement. Fields accumulate across the plans and runs that share it.
struct DeviceRunInfo {
  double modeled_seconds = 0.0;  ///< performance-model device time
  DeviceCounters counters;
  /// Kernel launches: one per constant-memory residency chunk of each
  /// executed plan.
  int launches = 0;
  /// Device blocks whose column slices all fit the shared-memory arena,
  /// and blocks that spilled at least one slice to global memory.
  std::size_t shared_staged_blocks = 0;
  std::size_t shared_spill_blocks = 0;
};

struct EngineConfig {
  Backend backend = Backend::Threaded;
  /// Host trial kernel the backend runs.
  Kernel kernel = Kernel::Auto;
  /// Master seed for secondary uncertainty streams.
  std::uint64_t seed = 2012;
  /// Sample per-occurrence secondary uncertainty (beta). Off = use ELT
  /// means; the ablation bench measures the cost.
  bool secondary_uncertainty = true;
  /// Trials per parallel chunk (Threaded) — the chunking knob of E4.
  /// 0 = library default.
  std::size_t trial_grain = 0;
  /// Also produce the per-trial maximum occurrence loss (OEP input). The
  /// kernel finishes it per trial block in block-local scratch.
  bool compute_oep = true;
  /// Keep per-contract YLTs in the result. Off saves contracts x trials
  /// doubles when only the portfolio view is needed (large benches).
  bool keep_contract_ylts = true;
  /// Pool for the Threaded backend; nullptr = shared pool.
  ThreadPool* pool = nullptr;
  /// Global id of this YELT's first trial. Secondary-uncertainty streams
  /// are keyed by (trial_base + local trial), so a partition of the YELT
  /// processed separately (dist blocks, adaptive grid blocks) reproduces
  /// the exact losses of a monolithic run.
  TrialId trial_base = 0;
  /// Trials per modeled device block; one thread per trial.
  int device_block_dim = 128;
  /// Cap on ELT rows the device model stages into constant memory per
  /// gather source; 0 = stage as much as the constant segment fits.
  /// Smaller caps pack more contracts' tables into one residency chunk
  /// (fewer launches, more global-memory gather traffic); larger caps give
  /// each table fuller residency at the cost of more launches.
  std::size_t device_elt_chunk_rows = 0;
  /// Hardware the device model prices the run on.
  DeviceSpec device_spec{};
  /// When non-null, the run also models the many-core device: every plan
  /// the backend executes adds its modeled launches, staging, traffic and
  /// roofline time (core/device_model.hpp) here. Outputs do not change.
  DeviceRunInfo* device_info = nullptr;
  /// Cache of the compact resolutions that batch_contracts runs (resident
  /// scenario sweeps included) gather through, shared across runs;
  /// nullptr = the process-wide data::ResolverCache::shared(). Runs that
  /// gather by lookup never touch it.
  data::ResolverCache* resolver_cache = nullptr;
  /// Cache compact resolutions of a resident YELT: each contract gathers
  /// through its (contract, YELT) data::CompactResolvedYelt from
  /// resolver_cache, built on first use, instead of the in-kernel event→row
  /// lookup. A warm cache makes repeated runs over the same tables faster;
  /// a cold run also pays the build. Sources with ephemeral blocks
  /// (streamed files, encoded blocks, re-blocked grids) ignore it and
  /// gather by lookup, since a resolution of a block that dies with the
  /// pass is never reused. Outputs are bit-identical either way.
  bool batch_contracts = false;
  /// Convergence-adaptive stopping (core/adaptive): with
  /// adaptive.target_rel_err > 0 the run consumes trials in decision
  /// blocks, folds streaming estimators after each, and stops once the
  /// monitored metrics' CIs close — returning the (bit-identical) prefix
  /// of the fixed-budget run plus EngineResult::adaptive. The default
  /// (target_rel_err = 0) disables the path entirely.
  adaptive::AdaptiveConfig adaptive;
  /// Per-run observability (src/obs/): end-of-run metrics report and/or
  /// chrome-trace export. Zero-initialized = off; the always-on global
  /// registry and RISKAN_TRACE/RISKAN_OBS env controls work regardless.
  /// Exactly one scope — the outermost entry point — observes a run:
  /// delegating paths (the scenario sweep, batch lowering, dist workers)
  /// clear this on their inner configs.
  obs::ObsConfig obs;
};

/// Validates the cross-field sanity of `config` up front with
/// ContractViolation errors instead of silent misbehavior downstream:
/// positive, bounded device_block_dim; bounded trial_grain and
/// device_elt_chunk_rows; with device_info set, a device spec with
/// constant and shared memory. Every engine entry point calls this before
/// planning.
void validate_engine_config(const EngineConfig& config);

/// Result of one aggregate-analysis run.
struct EngineResult {
  /// Per-trial portfolio net loss (annual aggregate) — the AEP sample.
  data::YearLossTable portfolio_ylt;
  /// Per-trial maximum single-occurrence portfolio net loss — the OEP
  /// sample. Empty when compute_oep is off.
  data::YearLossTable portfolio_occurrence_ylt;
  /// Per-contract aggregate YLTs, indexed as the portfolio's contracts.
  std::vector<data::YearLossTable> contract_ylts;
  /// Per-trial reinstatement premium earned back by the portfolio.
  data::YearLossTable reinstatement_premium;

  double seconds = 0.0;
  std::uint64_t occurrences_processed = 0;
  std::uint64_t elt_lookups = 0;
  /// Wall-clock spent looking up and building compact resolutions
  /// (batch_contracts runs over a resident YELT, resident scenario sweeps
  /// included); included in `seconds`. 0 when every group gathered by
  /// lookup, as every streamed run does.
  double resolve_seconds = 0.0;
  /// Convergence report of an adaptive run (enabled = false otherwise):
  /// stopping trial count, stop reason, per-metric estimates and CIs.
  adaptive::AdaptiveReport adaptive;
  /// End-of-run observability report (EngineConfig::obs.collect_report /
  /// report_path); nullptr when not requested.
  std::shared_ptr<const obs::ObsReport> obs_report;
};

/// Runs aggregate analysis for `portfolio` over `yelt` with `config`.
/// Deterministic in (portfolio, yelt, seed) — backend and scheduling do not
/// change a single bit of the YLTs.
EngineResult run_aggregate_analysis(const finance::Portfolio& portfolio,
                                    const data::YearEventLossTable& yelt,
                                    const EngineConfig& config = {});

/// The same analysis over any data::TrialSource — the one data plane behind
/// every entry point. The in-memory overload wraps its table in a one-block
/// InMemorySource and calls this; an out-of-core run passes a
/// ChunkedFileSource and streams trial blocks through the *same* lowering
/// (one plan per block, holding every contract, with each block's trial
/// offset keying the sampling streams), so the outputs are bit-identical to
/// the in-memory run across every backend, with per-contract YLTs and OEP
/// available. This is run_books over BookRuns::single(portfolio).
EngineResult run_aggregate_analysis(const finance::Portfolio& portfolio,
                                    data::TrialSource& source,
                                    const EngineConfig& config = {});

/// One planned (run, contract, layer) slot of a pass, before any trial
/// block or output buffer exists: the layer's terms with the run's
/// overrides applied, and the run's transforms.
struct SlotBlueprint {
  std::size_t run = 0;              ///< index into BookRuns::runs
  std::size_t contract = 0;         ///< index into BookRuns::contracts
  std::size_t contract_in_run = 0;  ///< position in the run's own book
  finance::LayerTerms terms;
  finance::Reinstatements reinstatements;
  Money upfront_premium = 0.0;
  double loss_scale = 1.0;
  int mask = -1;                       ///< index into BookRuns::exclusions, -1 = none
  Money conditioned_ground_up = -1.0;  ///< pre-scaled; < 0 = no conditioning
};

/// What one pass over a trial source computes: one or more runs (books)
/// over a shared universe of contracts. The engine's description is one
/// run with inert transforms; a scenario sweep's is the base book plus one
/// run per scenario (scenario::ScenarioPlan builds it).
struct BookRuns {
  struct Run {
    /// Indices into `contracts`, in the run's book order (its contract
    /// YLTs come out in this order).
    std::vector<std::size_t> book;
  };

  /// The distinct contracts of every run, in gather-group order.
  std::vector<const finance::Contract*> contracts;
  std::vector<Run> runs;
  /// Distinct excluded-event sets, each sorted; blueprints index them.
  std::vector<std::vector<EventId>> exclusions;
  /// One blueprint per (run, contract, layer), in pass order:
  /// contract-major, then layer, runs innermost, so each contract's slots
  /// are contiguous and form one gather group.
  std::vector<SlotBlueprint> blueprints;

  /// One run of `portfolio` (which must outlive the description) with
  /// inert transforms.
  static BookRuns single(const finance::Portfolio& portfolio);
};

/// The one stage-2 block runner: runs every run of `runs` over `source` in
/// one pass and returns one EngineResult per run, indexed as runs.runs.
/// Per trial block it gathers compact (config.batch_contracts over a
/// resident source: cached resolutions) or by lookup (everything else,
/// building nothing), builds one MaskColumn per distinct exclusion set,
/// fills the slots from the blueprints, and lowers and executes one plan
/// (exec::execute) whose kernel also finishes each run's OEP slice of the
/// block. A run's elt_lookups
/// credits the rows each of its groups found once per slot it has in the
/// group. With config.adaptive enabled the pass walks the decision grid
/// (data::ReblockedSource over `source`, capped at max_trials), folds run
/// 0's AEP slice (and its OEP slice when OEP is on) into one
/// adaptive::ConvergenceController after each block, stops taking blocks
/// once it says stop, and truncates every run's tables to the trials it
/// folded; run 0's EngineResult::adaptive carries the report. A stopped
/// pass leaves `source` mid-pass: reset() it before another.
std::vector<EngineResult> run_books(const BookRuns& runs, data::TrialSource& source,
                                    const EngineConfig& config);

/// Single-layer convenience used by the pricer and micro-benches: returns
/// the layer's per-trial net losses (a 1-slot execution plan).
std::vector<Money> run_layer(const finance::Contract& contract, const finance::Layer& layer,
                             const data::YearEventLossTable& yelt, const EngineConfig& config);

}  // namespace riskan::core
