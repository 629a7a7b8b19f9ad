// The trial kernel of aggregate analysis — core::batch::process_trials —
// and the batched convenience entry over it.
//
// This file holds the repo's ONE stage-2 trial loop. Every entry point
// (run_aggregate_analysis, the scenario sweep, forked dist workers, the
// pricer's run_layer) reaches it through the engine's block runner
// (core::run_books), which lowers its runs to a list of Slots, shapes them
// into one exec::ExecutionPlan per trial block and runs that with
// exec::execute (Sequential / Threaded) — see src/core/exec.hpp for the
// plan layer. The kernel walks trials in blocks and finishes each run's OEP
// per block (OepSink), so no OEP scratch outlives a block.
//
// A Slot is one consumer of the streamed pass — a (run, contract, layer),
// with one of two gather modes (a contract's layers, in every run, share
// one gather group and one secondary-uncertainty draw per occurrence; see
// Group):
//   lookup  — the YELT event column, each occurrence's row found in the
//             kernel through the ELT's event→row table, or by binary search
//             when the table is too sparse to carry one (the choice is made
//             once per group from the table): the engine's default, and the
//             only mode of streamed blocks; the pass touches 4 bytes and
//             branches per *occurrence*.
//   compact — hit-compacted CSR columns (data::CompactResolvedYelt) kept in
//             the ResolverCache: runs with batch_contracts set over a
//             resident YELT, resident scenario sweeps included; the pass
//             touches 8 bytes per *hit*, which is what E10's
//             batched-vs-per-contract ratio measures.
// Both modes take every slot transform, and both run through the same
// per-trial loop structure, so outputs are bit-identical across modes,
// backends and scheduling (tests enforce).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "core/secondary.hpp"
#include "data/elt.hpp"
#include "data/yelt.hpp"
#include "finance/contract.hpp"
#include "parallel/parallel_for.hpp"
#include "util/aligned.hpp"

namespace riskan::core::batch {

/// Sentinel in a mask's adjusted-seq column: the occurrence is excluded.
inline constexpr std::uint32_t kMaskedOut = ~std::uint32_t{0};

/// Adjusted-sequence column of one distinct exclusion set: slot i (aligned
/// with yelt.events()) holds the sequence number occurrence i would have in
/// the physically filtered YELT, or kMaskedOut when the occurrence's event
/// is excluded. Using the filtered-table sequence as the
/// secondary-uncertainty stream key is what makes a mask scenario
/// bit-identical to running on the filtered table. The column is
/// contract-independent and YELT-position-aligned, so one build per trial
/// block serves every slot of every run using the set, whichever gather the
/// slot's group uses (both give an occurrence its YELT position as its
/// cell).
struct MaskColumn {
  util::AlignedVector<std::uint32_t> adjusted_seq;  // gather column — 64-byte aligned
  std::uint64_t excluded_occurrences = 0;

  /// One streamed pass over the YELT, parallel over trial slabs (each
  /// trial's slots are written independently of scheduling).
  /// `excluded_events` must be sorted.
  static MaskColumn build(const data::YearEventLossTable& yelt,
                          std::span<const EventId> excluded_events,
                          ParallelConfig cfg = {});
};

/// Slot::oep_run of a slot that feeds no OEP table.
inline constexpr std::uint32_t kNoOep = ~std::uint32_t{0};

/// How a slot reaches its ELT rows (see the file header).
enum class Gather : std::uint8_t {
  Compact,  ///< hit-compacted CSR columns (cached resolutions)
  Lookup,   ///< in-kernel event→row lookup per occurrence (the default)
};

/// One consumer of the streamed pass: a (run, contract, layer) with its
/// gather inputs, optional per-slot transforms, financial terms and output
/// sinks.
///
/// run_aggregate_analysis uses inert transforms; the scenario engine
/// (src/scenario) rides the same kernel with one slot per
/// (scenario, contract, layer), each slot carrying its scenario's transform
/// parameters, under either gather:
///   loss_scale            — multiplies the sampled/mean ground-up loss
///                           (demand-surge inflation); 1.0 is an exact
///                           no-op.
///   mask_seq              — YELT-entry-aligned adjusted occurrence-sequence
///                           column (MaskColumn): kMaskedOut drops
///                           the occurrence, any other value is the sequence
///                           number the occurrence would have in a physically
///                           filtered YELT (the secondary-uncertainty stream
///                           key, which is what makes mask scenarios
///                           bit-identical to filtered tables).
///   conditioned_ground_up — when >= 0, an extra deterministic occurrence of
///                           this ground-up loss is injected at the start of
///                           every trial (post-event conditioning; the value
///                           arrives pre-scaled by intensity and loss_scale).
struct Slot {
  // Gather inputs — shared by every slot of a gather group. `gather`
  // selects the mode; the mode's columns must be set (they may be null
  // only when the YELT/hit span is empty). `elt` is always required (the
  // device model sizes constant-memory residency from it; lookup mode
  // finds its rows in it).
  Gather gather = Gather::Compact;
  const std::uint64_t* hit_offsets = nullptr;  // compact CSR index, by trial
  const std::uint32_t* seqs = nullptr;         // in-trial occurrence sequence
  const std::uint32_t* rows = nullptr;         // ELT rows, parallel to seqs
  /// Lookup mode: the YELT event column; each occurrence's row is
  /// `elt`'s row_lookup() entry, or elt->find() when the table has none.
  const EventId* events = nullptr;
  const data::EventLossTable* elt = nullptr;
  const Money* means = nullptr;
  const SecondarySampler* sampler = nullptr;  // null = use ELT means
  ContractId contract_id = 0;  // keys the occurrence streams (secondary.hpp)

  // Per-slot transform hooks; defaults are inert (run_aggregate_analysis).
  double loss_scale = 1.0;
  const std::uint32_t* mask_seq = nullptr;
  Money conditioned_ground_up = -1.0;

  // Financial terms.
  finance::LayerTerms terms;
  finance::Reinstatements reinstatements;
  Money upfront_premium = 0.0;

  // Outputs. Spans belong to this slot's analysis (scenario).
  std::span<Money> contract_losses;     // empty when contract YLTs are off
  std::span<Money> portfolio_losses;
  std::span<Money> reinstatement_prem;
  /// The OEP table this slot's occurrences feed: an index into the
  /// kernel's OepSink::tables (one per run); kNoOep = none.
  std::uint32_t oep_run = kNoOep;
};

/// Contiguous run of slots sharing gather inputs and sampling identity
/// (the contract — streams are keyed by (contract, trial, occurrence), see
/// kStreamKeyVersion): the kernel computes each occurrence's ground-up loss
/// once per group and feeds it to every slot. That is what makes a tower's
/// layers agree about each occurrence, and where both the per-layer and
/// an S-scenario sweep's sampling dedupe come from.
struct Group {
  std::uint32_t begin = 0;
  std::uint32_t size = 0;
  /// Where the kernel counts the rows the group finds, once per occurrence
  /// under either gather (a compact group's hits; a masked occurrence
  /// still counts); null = not counted. The chunks of one execution share
  /// the counter, so the kernel adds to it atomically, once per (group,
  /// trial block).
  std::uint64_t* found = nullptr;
};

/// Splits `slots` into maximal shared-gather groups (consecutive slots with
/// identical hit columns, mean/sampler sources and contract ids — the layer
/// id is not compared), with no found counters.
std::vector<Group> group_slots(std::span<const Slot> slots);

/// Trials per block of the scalar kernel's outer loop.
inline constexpr TrialId kTrialBlock = 256;

/// Running max of values[0..n) seeded with `init`: the per-trial OEP scan.
using MaxRangeFn = Money (*)(const Money* values, std::size_t n, Money init);

/// Where one kernel call accumulates and finishes OEP, one trial block at a
/// time. Each table is one run's OEP over the plan's trials; Slot::oep_run
/// indexes them. Every kernel block accumulates each table's occurrence
/// cells and conditioned cells in block-local scratch — run r's occurrence
/// cells are scratch[r * stride() + (YELT position − the block's first
/// position)], its conditioned cells scratch[r * stride() + cells +
/// (trial − the block's first trial)] — and after the block's last group
/// writes each trial's maximum into the table. No tables = OEP off.
struct OepSink {
  std::span<const std::span<Money>> tables;
  Money* scratch = nullptr;
  /// Occurrence cells per table: at least the YELT span of any block of
  /// the call.
  std::size_t cells = 0;
  /// Conditioned cells per table: at least the trials of any block.
  std::size_t trials = 0;
  /// The lane max scan; null = a scalar loop.
  MaxRangeFn max_range = nullptr;

  std::size_t stride() const noexcept { return cells + trials; }
  /// Slot s's occurrence cells in the open block, or null when s feeds no
  /// table.
  Money* occurrence_cells(const Slot& s) const noexcept {
    return s.oep_run == kNoOep ? nullptr : scratch + s.oep_run * stride();
  }
  /// Slot s's conditioned cells in the open block, or null.
  Money* conditioned_cells(const Slot& s) const noexcept {
    return s.oep_run == kNoOep ? nullptr : scratch + s.oep_run * stride() + cells;
  }
};

/// Processes trials [lo, hi) for every slot, group by group. Each
/// occurrence's ground-up loss is resolved once per group (sample or ELT
/// mean) and every slot of the group applies its own transforms and terms;
/// a masked slot whose adjusted sequence differs re-samples under the
/// filtered-table stream key. Accumulation order per output cell matches a
/// trial-major walk in slot order (annual sums in occurrence order; shared
/// OEP cells in slot order), which is what keeps every lowering
/// bit-identical to every other. State is indexed by trial (or the trial's
/// occurrence range), so disjoint chunks never race. `annual_scratch`
/// needs one entry per slot of the largest group. Trials run in blocks of
/// kTrialBlock, and each block finishes its OEP into `oep`'s tables after
/// its last group.
///
/// Adds the rows each group finds in [lo, hi) to its Group::found
/// counter, when it has one. The runner credits each run with its slots ×
/// its groups' counts, which is EngineResult::elt_lookups.
void process_trials(std::span<const Slot> slots, std::span<const Group> groups,
                    std::span<const std::uint64_t> yelt_offsets, const Philox4x32& philox,
                    bool secondary, TrialId trial_base, TrialId lo, TrialId hi,
                    std::span<Money> annual_scratch, const OepSink& oep);

}  // namespace riskan::core::batch

namespace riskan::core {

/// run_aggregate_analysis with batch_contracts set: the same bit-identical
/// EngineResult, with every contract gathering through a compact
/// resolution of `yelt` kept in config.resolver_cache, so repeated runs
/// over the same tables reuse it.
EngineResult run_portfolio_batch(const finance::Portfolio& portfolio,
                                 const data::YearEventLossTable& yelt,
                                 const EngineConfig& config = {});

}  // namespace riskan::core
