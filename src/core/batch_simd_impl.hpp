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
//   MaskedGather gather_masked(const Money* base, const std::uint32_t* rows)
//       — kNoLoss rows become 0.0 lanes without touching memory; returns
//         {Vec values, unsigned found}.
//
// Shape: trials are walked in blocks of kTrialBlock; per (group, block)
// the vector paths resolve the ground-up losses of the block's contiguous
// hit range once per kOccChunk-sized stack chunk (sampled or gathered,
// shared by every slot of the group), then per slot a pure vector pass
// (scale, terms, store) and a scalar fold pass that consumes the chunk in
// occurrence order, advancing a trial cursor over the CSR offsets. One
// extern finish call per (slot, block) flushes the annual sums. This keeps
// the hot loops long (the per-trial hit count is typically ~a dozen) and
// the portable-TU call overhead off the per-trial path.
//
// Bit-identity contract (tests enforce; docs/architecture.md documents):
// every lane computes exactly the scalar finance::apply_occurrence —
//   Deductible: excess = gu - ret; excess > 0 ? min(excess, lim) : 0
//   Franchise:  gu > ret ? min(gu, lim) : 0
// via sub/min/compare-mask on the same operands (IEEE ops are correctly
// rounded, min of distinct positives picks the same value, the masked-out
// lanes are exact +0.0), and the fold pass consumes the occurrence losses
// in occurrence order per (slot, trial), so every reduction order is the
// scalar kernel's. No FMA, no reassociation, no reduced precision
// anywhere.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "core/batch_simd.hpp"
#include "data/elt.hpp"
#include "finance/terms.hpp"

namespace riskan::core::batch {

namespace impl {

/// Trials per finish batch (bounds the stack annuals buffer).
inline constexpr std::size_t kTrialBlock = 1024;
/// Occurrences per vector chunk (bounds the stack occ/ground-up buffers;
/// 2048 Money = 16 KiB each, L1/L2-resident with the gather sources).
inline constexpr std::size_t kOccChunk = 2048;

/// Trial × slot annual sums one vector group pass keeps on the stack
/// (32 KiB): groups wider than kGroupAnnuals / kTrialBlock slots walk
/// their trial block in shorter sub-blocks.
inline constexpr std::size_t kGroupAnnuals = 4096;

/// How the kernel runs one (group, block).
enum class GroupClass : std::uint8_t {
  VecCompact,  ///< compact group (any size) without mask columns
  VecDense,    ///< dense group (any size; transform-inert by plan contract)
  Scalar,      ///< search gather or a mask column → batch::process_trials
};

inline GroupClass classify(const Slot* gs, std::uint32_t gsize) noexcept {
  if (gsize > kGroupAnnuals) {
    return GroupClass::Scalar;  // not even one trial's annuals fit the buffer
  }
  switch (gs[0].gather) {
    case Gather::Dense:
      return GroupClass::VecDense;
    case Gather::Search:
      return GroupClass::Scalar;
    case Gather::Compact:
      break;
  }
  // loss_scale / conditioned_ground_up vectorize; a mask column re-keys
  // sampling per lane and stays scalar.
  for (std::uint32_t i = 0; i < gsize; ++i) {
    if (gs[i].mask_seq != nullptr) {
      return GroupClass::Scalar;
    }
  }
  return GroupClass::VecCompact;
}

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

/// Gathers a chunk's ELT means into `out` — once for the whole group.
/// Dense rows map kNoLoss to exact +0.0 (masked lanes). Returns the rows
/// found (dense; 0 for compact).
template <typename V, bool kDense>
inline std::uint64_t gather_means(const Money* means, const std::uint32_t* rows,
                                  std::size_t n, Money* out) {
  constexpr std::size_t W = V::kWidth;
  std::uint64_t found = 0;
  std::size_t k = 0;
  for (; k + W <= n; k += W) {
    if constexpr (kDense) {
      const auto mg = V::gather_masked(means, rows + k);
      found += mg.found;
      V::store(out + k, mg.values);
    } else {
      V::store(out + k, V::gather(means, rows + k));
    }
  }
  for (; k < n; ++k) {
    if constexpr (kDense) {
      if (rows[k] == data::ResolvedYelt::kNoLoss) {
        out[k] = 0.0;
        continue;
      }
      ++found;
    }
    out[k] = means[rows[k]];
  }
  return found;
}

/// One vector (group, trial range [a0, a1)), gsize × (a1 − a0) ≤
/// kGroupAnnuals. The range's occurrences — compact: the group's CSR hits;
/// dense: every occurrence, kNoLoss rows as exact +0.0 lanes — are walked
/// in kOccChunk chunks. Per chunk the ground-up losses are resolved ONCE
/// for the group (the batched sampler fill, or a means gather), then each
/// slot in turn applies its loss scale and terms lane-parallel and folds
/// the chunk in occurrence order with a trial cursor. Per OEP cell the slots add in slot order, and the slots finish
/// the range in slot order — the scalar kernel's per-cell order. Returns
/// the rows found (dense), once per occurrence.
template <typename V, bool kDense>
inline std::uint64_t vec_group_range(const Slot* gs, std::size_t gsize,
                                     const Philox4x32& philox, bool secondary,
                                     TrialId trial_base, TrialId a0, TrialId a1,
                                     std::span<const std::uint64_t> yelt_offsets,
                                     SimdStats& stats) {
  constexpr std::size_t W = V::kWidth;
  alignas(64) Money occ_chunk[kOccChunk];
  alignas(64) Money gu_chunk[kOccChunk];
  Money annuals[kGroupAnnuals];
  const Slot& lead = gs[0];
  const std::size_t nt = a1 - a0;
  for (std::size_t i = 0; i < gsize; ++i) {
    Money* an = annuals + i * nt;
    if (gs[i].conditioned_ground_up >= 0.0) {
      for (TrialId t = a0; t < a1; ++t) {
        an[t - a0] = detail::conditioned_annual_slot(gs[i], t);
      }
    } else {
      std::fill(an, an + nt, 0.0);
    }
  }

  const std::uint64_t* offsets = kDense ? yelt_offsets.data() : lead.hit_offsets;
  const std::uint64_t h0 = offsets[a0];
  const std::uint64_t h1 = offsets[a1];
  std::uint64_t found = 0;

  TrialId tc = a0;  // the trial holding the chunk's first occurrence
  for (std::uint64_t c0 = h0; c0 < h1; c0 += kOccChunk) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(kOccChunk, h1 - c0));
    const std::uint32_t* rows = (kDense ? lead.dense_rows : lead.rows) + c0;
    while (c0 >= offsets[tc + 1]) {
      ++tc;
    }
    if (secondary) {
      if constexpr (kDense) {
        found += detail::fill_ground_up_dense_range(lead, philox, trial_base, tc,
                                                    yelt_offsets, c0, c0 + n, gu_chunk, stats);
      } else {
        detail::fill_ground_up_compact_range(lead, philox, trial_base, tc, c0, c0 + n,
                                             gu_chunk, stats);
      }
    } else {
      found += gather_means<V, kDense>(lead.means, rows, n, gu_chunk);
    }

    for (std::size_t i = 0; i < gsize; ++i) {
      const Slot& s = gs[i];
      const Money scale = s.loss_scale;
      const bool scaled = scale != 1.0;
      const auto vscale = V::broadcast(scale);

      // Vector pass. Masked-out dense lanes gather (or fill as) exact
      // +0.0; apply_occurrence(terms, 0) is +0.0 for both retention kinds
      // (retention ≥ 0 by terms.validate), and the annual sum is a sum of
      // non-negatives, so adding those lanes in place of the scalar
      // `continue` never changes a bit.
      std::size_t k = 0;
      for (; k + W <= n; k += W) {
        auto v = V::load(gu_chunk + k);
        if (scaled) {
          v = V::mul(v, vscale);
        }
        V::store(occ_chunk + k, occurrence_lanes<V>(s.terms, v));
      }
      stats.vector_occurrences += k;
      stats.tail_occurrences += n - k;
      for (; k < n; ++k) {
        occ_chunk[k] = finance::apply_occurrence(s.terms, scaled ? gu_chunk[k] * scale
                                                                 : gu_chunk[k]);
      }

      // Occurrence-order fold, one trial segment at a time: the annual
      // sums and the OEP accumulator see the losses exactly as the scalar
      // loop would, with the annual in a register per segment. Zero losses
      // join their OEP cells too — adding +0.0 to a sum of non-negative
      // contributions changes no bit — so no loss value steers a branch.
      Money* const an = annuals + i * nt;
      Money* const accum = s.occurrence_accum;
      const Money share = s.terms.share;
      const std::uint32_t* seqs = kDense ? nullptr : lead.seqs + c0;
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
          const std::uint64_t trial_begin = yelt_offsets[t];
          for (; j < seg_end; ++j) {
            const Money occ = occ_chunk[j];
            a += occ;
            accum[kDense ? c0 + j : trial_begin + seqs[j]] += occ * share;
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
  for (std::size_t i = 0; i < gsize; ++i) {
    detail::finish_slot_trials_out(gs[i], a0, a1, annuals + i * nt);
  }
  return found;
}

/// One vector (group, block): sub-blocks the block's trials so every
/// slot's annuals fit the stack buffer. Sub-blocking keeps the per-cell
/// order — for any trial, the group's slots still add in slot order, all
/// before the next group runs. Returns the found-lookup count per slot
/// (dense; scalar parity).
template <typename V, bool kDense>
inline std::uint64_t vec_group_block(const Slot* gs, std::size_t gsize,
                                     const Philox4x32& philox, bool secondary,
                                     TrialId trial_base, TrialId t0, TrialId t1,
                                     std::span<const std::uint64_t> yelt_offsets,
                                     SimdStats& stats) {
  const auto span = static_cast<TrialId>(std::min(kTrialBlock, kGroupAnnuals / gsize));
  std::uint64_t found = 0;
  for (TrialId a0 = t0; a0 < t1; a0 += span) {
    found += vec_group_range<V, kDense>(gs, gsize, philox, secondary, trial_base, a0,
                                        std::min<TrialId>(t1, a0 + span), yelt_offsets,
                                        stats);
  }
  return found * gsize;
}

/// The kernel: per (group, trial-block) classification, vector paths for
/// compact and dense groups, batch::process_trials for the rest. The block
/// loop is outermost and groups run in plan order, so shared output cells
/// accumulate in the scalar kernel's order.
template <typename V>
std::uint64_t process_trials_simd(std::span<const Slot> slots, std::span<const Group> groups,
                                  std::span<const std::uint64_t> yelt_offsets,
                                  const Philox4x32& philox, bool secondary,
                                  TrialId trial_base, TrialId lo, TrialId hi,
                                  std::span<Money> annual_scratch, SimdStats& stats) {
  std::uint64_t found = 0;
  for (TrialId b0 = lo; b0 < hi; b0 += static_cast<TrialId>(kTrialBlock)) {
    const TrialId b1 = std::min<TrialId>(hi, b0 + static_cast<TrialId>(kTrialBlock));
    for (const Group& group : groups) {
      const Slot* gs = slots.data() + group.begin;
      switch (classify(gs, group.size)) {
        case GroupClass::VecCompact:
          (void)vec_group_block<V, false>(gs, group.size, philox, secondary, trial_base, b0,
                                          b1, yelt_offsets, stats);
          break;
        case GroupClass::VecDense:
          found += vec_group_block<V, true>(gs, group.size, philox, secondary, trial_base,
                                            b0, b1, yelt_offsets, stats);
          break;
        case GroupClass::Scalar: {
          // Bit-identical by construction: the scalar kernel itself, one
          // (group, block) at a time (trial-major group order within the
          // block preserved per shared output cell — see the header).
          const Group local{0, group.size};
          found += process_trials(std::span<const Slot>(gs, group.size), {&local, 1},
                                  yelt_offsets, philox, secondary, trial_base, b0, b1,
                                  annual_scratch);
          stats.scalar_occurrences +=
              group.size * (gs[0].gather == Gather::Compact
                                ? gs[0].hit_offsets[b1] - gs[0].hit_offsets[b0]
                                : yelt_offsets[b1] - yelt_offsets[b0]);
          break;
        }
      }
    }
  }
  return found;
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
