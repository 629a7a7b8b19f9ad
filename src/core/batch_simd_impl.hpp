// Width-generic body of the vectorized trial kernel — included by the
// per-ISA TUs (batch_simd_avx2.cpp / batch_simd_neon.cpp), which each
// supply a VecOps policy and stamp one kernel.
//
// A VecOps policy provides:
//   static constexpr std::size_t kWidth;     Money lanes per vector
//   using Vec;                               the vector type
//   Vec broadcast(Money) / load(const Money*) / store(Money*, Vec)
//   Vec mul / sub / min(Vec, Vec)
//   Vec gt_mask(Vec, Vec)                    all-ones lanes where a > b
//   Vec mask_and(Vec, Vec)                   bitwise and (value ∧ mask)
//   Vec gather(const Money* base, const std::uint32_t* idx)
//
// Shape: trials are walked in blocks of kVectorTrialBlock; per (group, block)
// the vector paths resolve the ground-up losses of the block's hits once
// per stack chunk (sampled or gathered, shared by every slot of the
// group), then per slot a pure vector pass (scale, terms, store) and a
// scalar fold pass that consumes the chunk in occurrence order, one trial
// at a time. Compact groups chunk their contiguous CSR hit range; lookup
// groups chunk the hit list detail::collect_dense_hits compacts out of the
// YELT range, so misses cost one table read and no lane or fold work.
// One extern finish call per (slot, block) flushes the annual sums. This
// keeps the hot loops long (the per-trial hit count is typically ~a dozen)
// and the portable-TU call overhead off the per-trial path.
//
// Bit-identity contract (tests enforce; docs/architecture.md documents):
// every lane computes exactly the scalar finance::apply_occurrence —
//   Deductible: excess = gu - ret; excess > 0 ? min(excess, lim) : 0
//   Franchise:  gu > ret ? min(gu, lim) : 0
// via sub/min/compare-mask on the same operands (IEEE ops are correctly
// rounded, min of distinct positives picks the same value, the masked-out
// lanes are exact +0.0), and the fold pass consumes the occurrence losses
// in occurrence order per (slot, trial), so every reduction order is the
// scalar kernel's. No FMA (riskan compiles with -ffp-contract=off), no
// reassociation, no reduced precision anywhere. Sampled ground-up losses
// obey the same rule: the sampler's lane math (util/lane_math.hpp) is one
// IEEE operation sequence at every width.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "core/batch_simd.hpp"
#include "finance/terms.hpp"

namespace riskan::core::batch {

namespace impl {

/// Occurrences per compact vector chunk (bounds the stack occ/ground-up
/// buffers; 2048 Money = 16 KiB each, L1/L2-resident with the gather
/// sources).
inline constexpr std::size_t kOccChunk = 2048;

/// The occurrence algebra on W lanes; see the header contract above.
template <typename V>
inline typename V::Vec occurrence_lanes(const finance::LayerTerms& terms,
                                        typename V::Vec gu) noexcept {
  const auto ret = V::broadcast(terms.occ_retention);
  const auto lim = V::broadcast(terms.occ_limit);
  if (terms.retention_kind == finance::RetentionKind::Deductible) {
    const auto excess = V::sub(gu, ret);
    return V::mask_and(V::min(excess, lim), V::gt_mask(excess, V::broadcast(0.0)));
  }
  return V::mask_and(V::min(gu, lim), V::gt_mask(gu, ret));
}

/// Gathers the ELT means of `n` rows into `out` — once for the whole group.
template <typename V>
inline void gather_means(const Money* means, const std::uint32_t* rows, std::size_t n,
                         Money* out) {
  constexpr std::size_t W = V::kWidth;
  std::size_t k = 0;
  for (; k + W <= n; k += W) {
    V::store(out + k, V::gather(means, rows + k));
  }
  for (; k < n; ++k) {
    out[k] = means[rows[k]];
  }
}

/// Slot `s`'s occurrence losses of `n` ground-up losses into `occ`: loss
/// scale and terms lane-parallel, the sub-width remainder scalar.
template <typename V>
inline void slot_lanes(const Slot& s, const Money* gu, std::size_t n, Money* occ,
                       SimdStats& stats) {
  constexpr std::size_t W = V::kWidth;
  const Money scale = s.loss_scale;
  const bool scaled = scale != 1.0;
  const auto vscale = V::broadcast(scale);
  std::size_t k = 0;
  for (; k + W <= n; k += W) {
    auto v = V::load(gu + k);
    if (scaled) {
      v = V::mul(v, vscale);
    }
    V::store(occ + k, occurrence_lanes<V>(s.terms, v));
  }
  stats.vector_occurrences += k;
  stats.tail_occurrences += n - k;
  for (; k < n; ++k) {
    occ[k] = finance::apply_occurrence(s.terms, scaled ? gu[k] * scale : gu[k]);
  }
}

/// The compact pass of one vector (group, trial range [a0, a1)): the
/// group's CSR hits in kOccChunk chunks, each chunk's ground-up losses
/// resolved once (the batched sampler fill, or a means gather), then per
/// slot the lanes and an occurrence-order fold with a trial cursor over the
/// hit offsets. `annuals` holds gsize rows of (a1 − a0) trial sums; OEP
/// cells are indexed from `origin`, the kernel block's first position.
template <typename V>
inline void vec_compact_pass(const Slot* gs, std::size_t gsize, const Philox4x32& philox,
                             bool secondary, TrialId trial_base, TrialId a0, TrialId a1,
                             std::span<const std::uint64_t> yelt_offsets, Money* annuals,
                             const OepSink& oep, std::uint64_t origin, SimdStats& stats) {
  alignas(64) Money occ_chunk[kOccChunk];
  alignas(64) Money gu_chunk[kOccChunk];
  const Slot& lead = gs[0];
  const std::size_t nt = a1 - a0;
  const std::uint64_t* offsets = lead.hit_offsets;
  const std::uint64_t h1 = offsets[a1];

  TrialId tc = a0;  // the trial holding the chunk's first hit
  for (std::uint64_t c0 = offsets[a0]; c0 < h1; c0 += kOccChunk) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(kOccChunk, h1 - c0));
    while (c0 >= offsets[tc + 1]) {
      ++tc;
    }
    if (secondary) {
      detail::fill_ground_up_compact_range(lead, philox, trial_base, tc, c0, c0 + n, gu_chunk,
                                           stats);
    } else {
      gather_means<V>(lead.means, lead.rows + c0, n, gu_chunk);
    }

    for (std::size_t i = 0; i < gsize; ++i) {
      const Slot& s = gs[i];
      slot_lanes<V>(s, gu_chunk, n, occ_chunk, stats);

      // Occurrence-order fold, one trial segment at a time: the annual
      // sums and the OEP cells see the losses exactly as the scalar loop
      // would, with the annual in a register per segment. Zero losses join
      // their OEP cells too — adding +0.0 to a sum of non-negative
      // contributions changes no bit — so no loss value steers a branch.
      Money* const an = annuals + i * nt;
      Money* const accum = oep.occurrence_cells(s);
      const Money share = s.terms.share;
      const std::uint32_t* seqs = lead.seqs + c0;
      TrialId t = tc;
      std::size_t j = 0;
      while (j < n) {
        while (c0 + j >= offsets[t + 1]) {
          ++t;
        }
        const std::size_t seg_end =
            static_cast<std::size_t>(std::min<std::uint64_t>(offsets[t + 1] - c0, n));
        Money a = an[t - a0];
        if (accum != nullptr) {
          const std::uint64_t trial_begin = yelt_offsets[t] - origin;
          for (; j < seg_end; ++j) {
            const Money occ = occ_chunk[j];
            a += occ;
            accum[trial_begin + seqs[j]] += occ * share;
          }
        } else {
          for (; j < seg_end; ++j) {
            a += occ_chunk[j];
          }
        }
        an[t - a0] = a;
      }
    }
  }
}

/// The dense pass of one vector lookup (group, trial range [a0, a1)):
/// walks hits only. Each chunk is the next kDenseHits found occurrences of
/// the range, collected with their ground-up losses (sampled in the
/// collection, or gathered from the means here) and trial segments; then
/// per slot the lanes and a fold over the segments. A skipped miss is
/// exactly the scalar kernel's `continue`. Returns the rows found, once per
/// occurrence.
template <typename V>
inline std::uint64_t vec_dense_pass(const Slot* gs, std::size_t gsize,
                                    const Philox4x32& philox, bool secondary,
                                    TrialId trial_base, TrialId a0, TrialId a1,
                                    std::span<const std::uint64_t> yelt_offsets,
                                    Money* annuals, const OepSink& oep, std::uint64_t origin,
                                    SimdStats& stats) {
  alignas(64) Money occ_chunk[detail::kDenseHits];
  detail::DenseHits hits;
  const Slot& lead = gs[0];
  const std::size_t nt = a1 - a0;
  const std::uint64_t i_end = yelt_offsets[a1];
  std::uint64_t found = 0;

  TrialId t = a0;
  for (std::uint64_t i = yelt_offsets[a0]; i < i_end;) {
    i = detail::collect_dense_hits(lead, philox, secondary, trial_base, t, yelt_offsets, i,
                                   i_end, hits, stats);
    const std::size_t n = hits.hits;
    if (!secondary) {
      gather_means<V>(lead.means, hits.rows, n, hits.gu);
    }
    found += n;

    for (std::size_t k = 0; k < gsize; ++k) {
      const Slot& s = gs[k];
      slot_lanes<V>(s, hits.gu, n, occ_chunk, stats);

      // Segment-order fold: each trial's hits in occurrence order, the
      // annual in a register per segment; a trial split across chunks
      // resumes from its stored sum.
      Money* const an = annuals + k * nt;
      Money* const accum = oep.occurrence_cells(s);
      const Money share = s.terms.share;
      std::size_t j = 0;
      for (std::size_t q = 0; q < hits.segs; ++q) {
        const std::size_t seg_end = hits.seg_end[q];
        Money& cell = an[hits.seg_trial[q] - a0];
        Money a = cell;
        if (accum != nullptr) {
          for (; j < seg_end; ++j) {
            const Money occ = occ_chunk[j];
            a += occ;
            accum[hits.pos[j] - origin] += occ * share;
          }
        } else {
          for (; j < seg_end; ++j) {
            a += occ_chunk[j];
          }
        }
        cell = a;
      }
    }
  }
  return found;
}

/// One vector (group, trial range [a0, a1)) of the kernel block that starts
/// at trial b0, gsize × (a1 − a0) ≤ kVectorAnnuals: seeds the annual sums
/// (conditioned occurrences first), runs the compact or dense pass, and
/// finishes the range slot by slot — per OEP cell the slots add in slot
/// order and the slots finish in slot order, the scalar kernel's per-cell
/// order. Returns the rows found, once per occurrence (a compact range's
/// hits).
template <typename V, bool kDense>
inline std::uint64_t vec_group_range(const Slot* gs, std::size_t gsize,
                                     const Philox4x32& philox, bool secondary,
                                     TrialId trial_base, TrialId a0, TrialId a1,
                                     std::span<const std::uint64_t> yelt_offsets,
                                     const OepSink& oep, TrialId b0, SimdStats& stats) {
  Money annuals[kVectorAnnuals];
  const std::size_t nt = a1 - a0;
  for (std::size_t i = 0; i < gsize; ++i) {
    Money* an = annuals + i * nt;
    if (gs[i].conditioned_ground_up >= 0.0) {
      Money* const cond = oep.conditioned_cells(gs[i]);
      for (TrialId t = a0; t < a1; ++t) {
        an[t - a0] = detail::conditioned_annual_slot(gs[i], cond, t - b0);
      }
    } else {
      std::fill(an, an + nt, 0.0);
    }
  }
  const std::uint64_t origin = yelt_offsets[b0];
  std::uint64_t found = 0;
  if constexpr (kDense) {
    found = vec_dense_pass<V>(gs, gsize, philox, secondary, trial_base, a0, a1, yelt_offsets,
                              annuals, oep, origin, stats);
  } else {
    vec_compact_pass<V>(gs, gsize, philox, secondary, trial_base, a0, a1, yelt_offsets,
                        annuals, oep, origin, stats);
    found = gs[0].hit_offsets[a1] - gs[0].hit_offsets[a0];
  }
  for (std::size_t i = 0; i < gsize; ++i) {
    detail::finish_slot_trials_out(gs[i], a0, a1, annuals + i * nt);
  }
  return found;
}

/// One vector (group, block): sub-blocks the block's trials so every
/// slot's annuals fit the stack buffer. Sub-blocking keeps the per-cell
/// order — for any trial, the group's slots still add in slot order, all
/// before the next group runs. Returns the rows found, once per occurrence.
template <typename V, bool kDense>
inline std::uint64_t vec_group_block(const Slot* gs, std::size_t gsize,
                                     const Philox4x32& philox, bool secondary,
                                     TrialId trial_base, TrialId t0, TrialId t1,
                                     std::span<const std::uint64_t> yelt_offsets,
                                     const OepSink& oep, SimdStats& stats) {
  const auto span = static_cast<TrialId>(
      std::min<std::size_t>(kVectorTrialBlock, kVectorAnnuals / gsize));
  std::uint64_t found = 0;
  for (TrialId a0 = t0; a0 < t1; a0 += span) {
    found += vec_group_range<V, kDense>(gs, gsize, philox, secondary, trial_base, a0,
                                        std::min<TrialId>(t1, a0 + span), yelt_offsets, oep,
                                        t0, stats);
  }
  return found;
}

/// The kernel: per (group, trial-block) classification, vector paths for
/// compact and lookup groups, the scalar kernel's group pass for the rest.
/// The block loop is outermost and groups run in plan order, so shared
/// output cells accumulate in the scalar kernel's order, and each block's
/// OEP is finished after its last group. Counts each group's found rows as
/// process_trials does.
template <typename V>
void process_trials_simd(std::span<const Slot> slots, std::span<const Group> groups,
                         std::span<const std::uint64_t> yelt_offsets, const Philox4x32& philox,
                         bool secondary, TrialId trial_base, TrialId lo, TrialId hi,
                         std::span<Money> annual_scratch, const OepSink& oep,
                         SimdStats& stats) {
  for (TrialId b0 = lo; b0 < hi; b0 += kVectorTrialBlock) {
    const TrialId b1 = std::min<TrialId>(hi, b0 + kVectorTrialBlock);
    detail::open_oep_block(oep, yelt_offsets, b0, b1);
    for (const Group& group : groups) {
      const Slot* gs = slots.data() + group.begin;
      if (!vectorizable(gs, group.size)) {
        // Bit-identical by construction: the scalar kernel's own group
        // pass over the block, which leaves the block's OEP open for the
        // groups after it.
        detail::add_found(group, detail::process_group_scalar(
                                     gs, group.size, philox, secondary, trial_base, b0, b1,
                                     yelt_offsets, annual_scratch.data(), oep));
        stats.scalar_occurrences += group_occurrences(gs, group.size, yelt_offsets, b0, b1);
      } else if (gs[0].gather == Gather::Lookup) {
        detail::add_found(group, vec_group_block<V, true>(gs, group.size, philox, secondary,
                                                          trial_base, b0, b1, yelt_offsets,
                                                          oep, stats));
      } else {
        detail::add_found(group, vec_group_block<V, false>(gs, group.size, philox, secondary,
                                                           trial_base, b0, b1, yelt_offsets,
                                                           oep, stats));
      }
    }
    detail::finish_oep_block(oep, yelt_offsets, b0, b1);
  }
}

/// Generic body of apply_occurrence_lanes for one ISA: full-width chunks
/// through the vector algebra, scalar remainder.
template <typename V>
void apply_occurrence_lanes_impl(const finance::LayerTerms& terms, const Money* ground_up,
                                 std::size_t n, Money* occ) {
  constexpr std::size_t W = V::kWidth;
  std::size_t k = 0;
  for (; k + W <= n; k += W) {
    V::store(occ + k, occurrence_lanes<V>(terms, V::load(ground_up + k)));
  }
  for (; k < n; ++k) {
    occ[k] = finance::apply_occurrence(terms, ground_up[k]);
  }
}

}  // namespace impl

}  // namespace riskan::core::batch
