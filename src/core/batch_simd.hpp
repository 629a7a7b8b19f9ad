// The vectorized twin of core::batch::process_trials.
//
// One kernel per compiled ISA (AVX2: 4 Money lanes, NEON: 2), all stamped
// from the width-generic template in batch_simd_impl.hpp. exec::execute
// runs it on either backend under Kernel::Auto whenever
// exec::simd_dispatch() finds an ISA (core/simd.hpp); a plan none of whose
// groups vectorize runs batch::process_trials directly. The kernel walks
// trials in blocks (so the scalar per-trial bookkeeping amortizes over a
// long contiguous occurrence range instead of re-starting the vector loop
// every ~dozen hits) and classifies each gather group (vectorizable()):
//
//   vector-compact — compact-CSR group (a contract's layer tower, alone or
//       with its scenario variants) without a mask column: the block's whole
//       hit range is walked in W-wide chunks. Each chunk's ground-up
//       losses are resolved once for the group — the pre-sampled buffer
//       (secondary on) or a means gather (multi-slot groups) — then each
//       slot in turn applies its loss_scale and the LayerTerms occurrence
//       algebra lane-parallel into an occurrence-loss chunk, and a scalar
//       fold pass consumes that chunk IN OCCURRENCE ORDER, advancing a
//       trial cursor over the CSR offsets, which is what keeps the annual
//       sums and the OEP cells bit-identical to the scalar kernel.
//       The sub-width remainder of each chunk runs the scalar ops in the
//       same order (the lane-tail contract).
//   vector-dense — lookup group (likewise a tower with its scenario
//       variants) without a mask column, over a table with an event→row
//       table, walking hits only: the pass that resolves ground-up losses
//       (detail::collect_dense_hits — the batched sampler fill, or the row
//       compaction ahead of the means gather) reads each occurrence's row
//       from the table, skips the misses and records each found
//       occurrence's position and loss with its trial segment, and the
//       per-slot lanes and folds run over that list. Skipping a miss is
//       exactly the scalar kernel's `continue`.
//   scalar — everything else (mask columns under either gather, lookups
//       over tables too sparse to carry an event→row table) falls back to
//       the scalar kernel's own group pass (detail::process_group_scalar)
//       for the (group, block) — same code, so equality across the full
//       feature matrix holds by construction.
//
// Each block of kVectorTrialBlock trials accumulates every run's OEP cells
// in block-local scratch (OepSink) and finishes them into the runs' OEP
// tables after its last group, vector and fallback groups alike.
//
// Shared outputs (the portfolio roll-up, a run's OEP cells) see the
// same per-cell addition order as the scalar kernel: the block loop is
// outermost and groups run in plan order within it, so for any fixed trial
// the groups touch that trial's cells in the scalar kernel's group order;
// within a group the slots fold and finish in slot order, and within a
// (slot, trial) the fold is in occurrence order.
//
// Secondary uncertainty on vector slots samples each chunk's hits into a
// scratch buffer first (detail::fill_ground_up_compact_range and
// detail::collect_dense_hits below, compiled in the portable TU) and
// vectorizes everything downstream of the sample. The fill itself is
// batched: SecondarySampler::sample_lanes draws every occurrence's Philox
// blocks lane-parallel (util::PhiloxLanes) and decodes the common case —
// degenerate rows and gamma pairs that accept on the first Marsaglia–Tsang
// attempt — W lanes per instruction (the AVX2 stamp below,
// decode_first_attempts_avx2), falling back to the width-1 sampler on a
// fresh stream for the rejection tail. Each occurrence's stream is keyed
// exactly as the scalar kernel keys it, and both widths run the same lane
// math (util/lane_math.hpp), so the draws are identical;
// docs/architecture.md carries the full bit-identity argument.
#pragma once

#include <cstdint>
#include <span>

#include "core/portfolio_batch.hpp"

namespace riskan::core::batch {

/// Lane-utilization telemetry of Kernel::Auto executions, published by
/// exec::execute as exec.simd.* counters.
struct SimdStats {
  // Occurrence counts are per slot (occurrence × layer evaluations), like
  // EngineResult::occurrences_processed; sampler counts are per draw.
  std::uint64_t vector_occurrences = 0;  ///< processed in full W-wide chunks
  std::uint64_t tail_occurrences = 0;    ///< scalar sub-width remainders
  std::uint64_t scalar_occurrences = 0;  ///< scalar-fallback groups
  std::uint64_t sampler_fast = 0;        ///< secondary draws: lane fast path
  std::uint64_t sampler_tail = 0;        ///< secondary draws: scalar rejection tail

  SimdStats& operator+=(const SimdStats& o) noexcept {
    vector_occurrences += o.vector_occurrences;
    tail_occurrences += o.tail_occurrences;
    scalar_occurrences += o.scalar_occurrences;
    sampler_fast += o.sampler_fast;
    sampler_tail += o.sampler_tail;
    return *this;
  }
};

/// Trials per block of the vector kernel's outer loop: each block finishes
/// its OEP after its last group, like process_trials' kTrialBlock.
inline constexpr TrialId kVectorTrialBlock = 1024;

/// Shared signature of the per-ISA kernels: process_trials' arguments plus
/// the stats sink (chunk scratch lives on the kernel's own stack). Like
/// process_trials, they count each group's found rows into Group::found
/// and finish each block's OEP into the sink's tables.
using SimdKernelFn = void (*)(std::span<const Slot> slots, std::span<const Group> groups,
                              std::span<const std::uint64_t> yelt_offsets,
                              const Philox4x32& philox, bool secondary, TrialId trial_base,
                              TrialId lo, TrialId hi, std::span<Money> annual_scratch,
                              const OepSink& oep, SimdStats& stats);

// Per-ISA kernels; each is defined only when its RISKAN_SIMD_* macro is
// compiled in (exec::simd_dispatch() is the only referent).
void process_trials_simd_avx2(std::span<const Slot> slots, std::span<const Group> groups,
                              std::span<const std::uint64_t> yelt_offsets,
                              const Philox4x32& philox, bool secondary, TrialId trial_base,
                              TrialId lo, TrialId hi, std::span<Money> annual_scratch,
                              const OepSink& oep, SimdStats& stats);
void process_trials_simd_neon(std::span<const Slot> slots, std::span<const Group> groups,
                              std::span<const std::uint64_t> yelt_offsets,
                              const Philox4x32& philox, bool secondary, TrialId trial_base,
                              TrialId lo, TrialId hi, std::span<Money> annual_scratch,
                              const OepSink& oep, SimdStats& stats);

/// The functions of util/lane_math.hpp, for lane_math_lanes.
enum class LaneFn { Log, Exp, Cos2Pi };

/// out[i] = f(in[i]) through util/lane_math.hpp at the dispatched width
/// (the AVX2 stamp's 4 lanes; width 1 when no ISA is active). The property
/// surface of the lane math's width independence: tests compare every
/// element with the width-1 template bit for bit.
void lane_math_lanes(LaneFn f, const double* in, std::size_t n, double* out);

// Per-ISA body of lane_math_lanes, defined with its kernel.
void lane_math_lanes_avx2(LaneFn f, const double* in, std::size_t n, double* out);

/// The AVX2 stamp of SecondarySampler's first-attempt decode (4 lanes),
/// defined with the AVX2 kernel; exec::simd_dispatch() hands it out.
void decode_first_attempts_avx2(unsigned cls, std::size_t begin, std::size_t n,
                                const std::uint64_t* words,
                                SecondarySampler::LaneStage& stage);

/// Widest group the vector kernel takes: one pass keeps slots × trials
/// annual sums in a 32 KiB stack buffer, so a group wider than this cannot
/// fit even one trial and runs the scalar kernel.
inline constexpr std::size_t kVectorAnnuals = 4096;

/// Whether the vector kernel runs gather group `gs` itself: a group of at
/// most kVectorAnnuals slots without mask columns (a mask re-keys sampling
/// per lane, whatever the gather), gathering compact or by lookup through a
/// table that carries an event→row lookup. The rest go to
/// batch::process_trials.
bool vectorizable(const Slot* gs, std::uint32_t gsize) noexcept;

/// Occurrence × slot evaluations of group `gs` over trials [t0, t1): its
/// hits (compact) or YELT entries (lookup) — the unit of the
/// exec.simd.*_occurrences counters.
std::uint64_t group_occurrences(const Slot* gs, std::uint32_t gsize,
                                std::span<const std::uint64_t> yelt_offsets, TrialId t0,
                                TrialId t1) noexcept;

/// Vectorized finance::apply_occurrence over a contiguous ground-up buffer,
/// dispatched like the kernel (scalar loop when no ISA is active). The
/// kernel-level micro-surface: property tests assert bitwise equality with
/// the scalar call per element, bench_micro_kernels times it against the
/// scalar loop.
void apply_occurrence_lanes(const finance::LayerTerms& terms, const Money* ground_up,
                            std::size_t n, Money* occ);

// Per-ISA bodies of apply_occurrence_lanes, defined with their kernels.
void apply_occurrence_lanes_avx2(const finance::LayerTerms& terms, const Money* ground_up,
                                 std::size_t n, Money* occ);
void apply_occurrence_lanes_neon(const finance::LayerTerms& terms, const Money* ground_up,
                                 std::size_t n, Money* occ);

/// Vectorized running max of values[0..n) seeded with `init`, dispatched
/// like apply_occurrence_lanes (scalar loop when no ISA is active). Bitwise
/// order-invariant for this input class — OEP cells are non-NaN and
/// >= +0.0 (sums of non-negative contributions seeded with 0.0), so no
/// -0.0/NaN tie can make the lane max pick differently from the scalar
/// scan. The kernels' per-block OEP finish runs the dispatched ISA's body
/// (OepSink::max_range).
Money max_range_lanes(const Money* values, std::size_t n, Money init);

// Per-ISA bodies of max_range_lanes, defined with their kernels.
Money max_range_lanes_avx2(const Money* values, std::size_t n, Money init);
Money max_range_lanes_neon(const Money* values, std::size_t n, Money init);

namespace detail {

// Scalar helpers the wide TUs link against instead of instantiating —
// compiled in portfolio_batch.cpp with the portable baseline flags, so a
// per-file -mavx2 TU never emits comdat PRNG/beta/finish code that could
// be picked for a pre-AVX2 host.

/// batch-internal conditioned_annual of one (slot, trial): adds the
/// conditioned occurrence's share to cond[i] when `cond` is non-null (the
/// slot's OepSink::conditioned_cells, i the trial's index in the block).
Money conditioned_annual_slot(const Slot& s, Money* cond, std::size_t i);

/// The scalar kernel's pass of one group over the kernel block [b0, b1),
/// of any length, without finishing the block's OEP: the vector kernel's
/// fallback for a group it does not vectorize. Returns the rows found.
std::uint64_t process_group_scalar(const Slot* gs, std::size_t gsize, const Philox4x32& philox,
                                   bool secondary, TrialId trial_base, TrialId b0, TrialId b1,
                                   std::span<const std::uint64_t> yelt_offsets, Money* annuals,
                                   const OepSink& oep);

/// Zeroes the OEP scratch of the kernel block [b0, b1) (no-op when `oep`
/// has no tables).
void open_oep_block(const OepSink& oep, std::span<const std::uint64_t> yelt_offsets,
                    TrialId b0, TrialId b1);

/// Writes each table's per-trial maximum of the kernel block [b0, b1) —
/// the trial's occurrence cells, seeded with its conditioned cell — once
/// the block's last group has run.
void finish_oep_block(const OepSink& oep, std::span<const std::uint64_t> yelt_offsets,
                      TrialId b0, TrialId b1);

/// Adds `rows` to the group's found counter, atomically, when it has one.
void add_found(const Group& group, std::uint64_t rows);

/// batch-internal finish_slot_trial (aggregate terms, share, output sinks)
/// over a block of trials: annuals[t - t0] is trial t's occurrence sum.
void finish_slot_trials_out(const Slot& s, TrialId t0, TrialId t1, const Money* annuals);

/// Samples the ground-up losses of the compact hit range [k_begin, k_end)
/// of slot `s` into `out`, under the exact per-occurrence streams the
/// scalar kernel keys (contract, trial_base + t, seq) — once for the whole
/// gather group, since the layer is not part of the key. `t_first` is
/// any trial at or before the one containing k_begin; the walk advances it
/// across the slot's hit offsets. Sampling goes through the batched
/// SecondarySampler::sample_lanes path; `stats` collects its fast/tail
/// split.
void fill_ground_up_compact_range(const Slot& s, const Philox4x32& philox,
                                  TrialId trial_base, TrialId t_first,
                                  std::uint64_t k_begin, std::uint64_t k_end, Money* out,
                                  SimdStats& stats);

/// Found occurrences one dense (lookup-group) vector chunk buffers.
inline constexpr std::size_t kDenseHits = 2048;

/// One chunk of a lookup group's found occurrences, in occurrence order:
/// per hit its global YELT position (the OEP cell), ELT row and ground-up
/// loss; per trial segment its trial and the end of its hits, so segment q
/// holds hits [seg_end[q - 1], seg_end[q]) (from 0 for q = 0). Trials
/// without hits have no segment.
struct DenseHits {
  Money gu[kDenseHits];
  std::uint64_t pos[kDenseHits];
  std::uint32_t rows[kDenseHits];
  TrialId seg_trial[kDenseHits];
  std::uint32_t seg_end[kDenseHits];
  std::size_t hits = 0;
  std::size_t segs = 0;
};

/// Collects the found occurrences of the YELT range [i_begin, i_end) of
/// lookup slot `s` into `out` — each occurrence's row read from the
/// table's event→row lookup (which `s.elt` must carry), misses skipped —
/// and stops once kDenseHits are buffered; returns the position to resume
/// from. `t` is the trial holding i_begin (or any trial before it) and is
/// advanced with the walk. With `secondary` the hits are sampled through
/// the batched SecondarySampler::sample_lanes path under the scalar
/// lookup walk's stream keys (contract, trial_base + t,
/// i − yelt_offsets[t]); without it `out.gu` is left for the caller's
/// means gather over `out.rows`.
std::uint64_t collect_dense_hits(const Slot& s, const Philox4x32& philox, bool secondary,
                                 TrialId trial_base, TrialId& t,
                                 std::span<const std::uint64_t> yelt_offsets,
                                 std::uint64_t i_begin, std::uint64_t i_end, DenseHits& out,
                                 SimdStats& stats);

}  // namespace detail

}  // namespace riskan::core::batch
