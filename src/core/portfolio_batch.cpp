#include "core/portfolio_batch.hpp"

#include <algorithm>
#include <atomic>

#include "core/batch_simd.hpp"
#include "core/secondary.hpp"
#include "finance/terms.hpp"
#include "util/require.hpp"

namespace riskan::core::batch {

namespace {

/// Slots share a gather group when they read the same columns and draw
/// the same samples. The layer is deliberately not compared: occurrence
/// streams are keyed by contract (kStreamKeyVersion in secondary.hpp), so
/// a contract's whole layer tower — and every scenario variant of it —
/// shares one draw per occurrence.
bool same_gather(const Slot& a, const Slot& b) noexcept {
  return a.gather == b.gather && a.hit_offsets == b.hit_offsets && a.seqs == b.seqs &&
         a.rows == b.rows && a.events == b.events && a.elt == b.elt && a.means == b.means &&
         a.sampler == b.sampler && a.contract_id == b.contract_id;
}

/// The ground-up loss of one occurrence of `s`'s contract: a draw from the
/// contract's occurrence stream, or the ELT mean with sampling off.
inline Money ground_up_of(const Slot& s, const Philox4x32& philox, bool secondary,
                          TrialId trial, std::uint32_t seq, std::size_t row) {
  if (secondary) {
    auto stream = occurrence_stream(philox, s.contract_id, trial, seq);
    return s.sampler->sample(row, stream);
  }
  return s.means[row];
}

/// The conditioned occurrence of one (slot, trial), if any: applied before
/// the trial's own occurrences. Returns its contribution to the annual sum,
/// and adds its share to the trial's conditioned OEP cell, cond[i] (cond
/// null = no OEP).
inline Money conditioned_annual(const Slot& s, Money* cond, std::size_t i) {
  if (s.conditioned_ground_up < 0.0) {
    return 0.0;
  }
  const Money occ = finance::occurrence_loss(s.terms, s.conditioned_ground_up);
  if (cond != nullptr && occ > 0.0) {
    cond[i] += occ * s.terms.share;
  }
  return occ;
}

/// Annual terms + output accumulation of one (slot, trial).
inline void finish_slot_trial(const Slot& s, TrialId t, Money annual) {
  const Money consumed = finance::aggregate_loss(s.terms, annual);
  const Money net = consumed * s.terms.share;
  if (net > 0.0) {
    if (!s.contract_losses.empty()) {
      s.contract_losses[t] += net;
    }
    s.portfolio_losses[t] += net;
    s.reinstatement_prem[t] +=
        s.reinstatements.premium_due(consumed, s.terms.occ_limit, s.upfront_premium);
  }
}

/// Occurrences per ground-up buffer of a sub-block; distinct mask columns a
/// sub-block keeps resolved.
constexpr std::size_t kChunk = 512;
constexpr std::size_t kMaskViews = 4;

/// Ground-up marker of a masked-out occurrence in a mask view. Any negative
/// loss works: occurrence_loss of it is +0.0 for both retention kinds
/// (retentions are non-negative), and so is any positive loss_scale of it.
constexpr Money kNoGroundUp = -1.0;

/// One gather group — a contract's layer tower, with every scenario
/// variant of it — over trials [t0, t1), t1 − t0 ≤ kTrialBlock, inside the
/// OEP block that starts at trial b0.
///
/// Whole trials are collected into sub-blocks of at most kChunk positions,
/// resolving each found occurrence's ground-up loss ONCE — sampled from the
/// contract's stream, or the ELT mean — with its OEP cell and its trial's
/// index in the sub-block. Then every slot in turn, in slot order, applies
/// its transforms and occurrence terms over the whole sub-block in one
/// branch-free pass, adding each loss to its trial's annual sum (kept per
/// trial, so no trial's hit count steers a branch) and to its OEP cell,
/// and finishes the sub-block's trials. An OEP cell is the slot's table's
/// cell of the occurrence's YELT position, indexed from the block's first
/// position.
///
/// Transforms: a conditioned occurrence seeds each trial's annual sum
/// before the trial's own occurrences; loss_scale multiplies the ground-up
/// (× 1.0 is exact); a mask column reads a view of the sub-block in which
/// excluded occurrences carry kNoGroundUp and shifted ones are re-sampled
/// under the sequence they have in the physically filtered table. A view
/// depends only on the column, so scenarios sharing a (deduped) column
/// share it.
///
/// Per output cell the additions keep the trial-major kernel's order: each
/// OEP cell and each (contract or portfolio, trial) cell sees the group's
/// slots in slot order, and each annual sum sees its trial's occurrences in
/// occurrence order. Zero losses join their sums and cells too — adding
/// +0.0 to a sum of non-negative contributions changes no bit.
///
/// `offsets` delimits each trial's positions (hit_offsets for compact,
/// the YELT offsets for lookup); `row_at(j)` maps a position to an
/// ELT row or npos and `seq_at(j, trial_begin)` to its in-trial sequence.
/// A trial with more than kChunk positions runs alone, chunked, with each
/// slot's annual sum carried in `annuals` (gsize entries). Returns the rows
/// found (once per occurrence, not per slot).
template <typename RowAt, typename SeqAt>
std::uint64_t process_group_block(const Slot* gs, std::size_t gsize, const Philox4x32& philox,
                                  bool secondary, TrialId trial_base, TrialId t0, TrialId t1,
                                  const std::uint64_t* offsets,
                                  std::span<const std::uint64_t> yelt_offsets,
                                  const RowAt& row_at, const SeqAt& seq_at, Money* annuals,
                                  const OepSink& oep, TrialId b0) {
  const Slot& lead = gs[0];
  const std::uint64_t origin = yelt_offsets[b0];
  Money gu[kChunk];
  std::uint64_t cell[kChunk];
  std::uint32_t seqs[kChunk];
  std::uint32_t rows[kChunk];
  std::uint32_t tix[kChunk];
  Money sums[kTrialBlock];
  struct MaskView {
    const std::uint32_t* mask = nullptr;
    Money gu[kChunk];
  };
  MaskView views[kMaskViews];
  std::size_t next_view = 0;

  // Resolves positions [j, j_end) of trial t into the buffers from index
  // n; tb is the sub-block's first trial.
  const auto collect = [&](TrialId t, TrialId tb, std::uint64_t j, std::uint64_t j_end,
                           std::size_t n) {
    const std::uint64_t trial_begin = yelt_offsets[t];
    for (; j < j_end; ++j) {
      const std::size_t row = row_at(j);
      if (row == data::EventLossTable::npos) {
        continue;
      }
      const std::uint32_t seq = seq_at(j, trial_begin);
      gu[n] = ground_up_of(lead, philox, secondary, trial_base + t, seq, row);
      cell[n] = trial_begin + seq;
      seqs[n] = seq;
      rows[n] = static_cast<std::uint32_t>(row);
      tix[n] = static_cast<std::uint32_t>(t - tb);
      ++n;
    }
    return n;
  };
  // The sub-block's ground-up losses as a mask column sees them.
  const auto mask_view = [&](const std::uint32_t* mask, TrialId tb, std::size_t n) {
    for (const MaskView& view : views) {
      if (view.mask == mask) {
        return static_cast<const Money*>(view.gu);
      }
    }
    MaskView& view = views[next_view];
    next_view = (next_view + 1) % kMaskViews;
    view.mask = mask;
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t adjusted = mask[cell[k]];
      if (adjusted == kMaskedOut) {
        view.gu[k] = kNoGroundUp;
      } else if (adjusted == seqs[k] || !secondary) {
        view.gu[k] = gu[k];
      } else {
        view.gu[k] = ground_up_of(lead, philox, true, trial_base + tb + tix[k], adjusted,
                                  rows[k]);
      }
    }
    return static_cast<const Money*>(view.gu);
  };
  // Adds slot s's occurrence losses of the n buffered occurrences to
  // trial_sums[tix[k]] and to their OEP cells.
  const auto apply = [&](const Slot& s, const Money* ground_up, std::size_t n,
                         Money* trial_sums) {
    const finance::LayerTerms terms = s.terms;
    const Money scale = s.loss_scale;
    Money* const accum = oep.occurrence_cells(s);
    for (std::size_t k = 0; k < n; ++k) {
      const Money occ = finance::occurrence_loss(terms, ground_up[k] * scale);
      trial_sums[tix[k]] += occ;
      if (accum != nullptr) {
        accum[cell[k] - origin] += occ * terms.share;
      }
    }
  };
  const auto slot_ground_up = [&](const Slot& s, TrialId tb, std::size_t n) {
    return s.mask_seq == nullptr ? static_cast<const Money*>(gu) : mask_view(s.mask_seq, tb, n);
  };

  std::uint64_t found = 0;
  TrialId t = t0;
  while (t < t1) {
    for (MaskView& view : views) {
      view.mask = nullptr;
    }
    if (offsets[t + 1] - offsets[t] > kChunk) {
      for (std::size_t i = 0; i < gsize; ++i) {
        annuals[i] = conditioned_annual(gs[i], oep.conditioned_cells(gs[i]), t - b0);
      }
      for (std::uint64_t j = offsets[t]; j < offsets[t + 1]; j += kChunk) {
        const std::size_t n =
            collect(t, t, j, std::min<std::uint64_t>(j + kChunk, offsets[t + 1]), 0);
        found += n;
        for (MaskView& view : views) {
          view.mask = nullptr;
        }
        for (std::size_t i = 0; i < gsize; ++i) {
          apply(gs[i], slot_ground_up(gs[i], t, n), n, annuals + i);
        }
      }
      for (std::size_t i = 0; i < gsize; ++i) {
        finish_slot_trial(gs[i], t, annuals[i]);
      }
      ++t;
      continue;
    }
    const TrialId tb = t;
    std::size_t n = 0;
    while (t < t1 && n + (offsets[t + 1] - offsets[t]) <= kChunk) {
      n = collect(t, tb, offsets[t], offsets[t + 1], n);
      ++t;
    }
    found += n;
    for (std::size_t i = 0; i < gsize; ++i) {
      const Slot& s = gs[i];
      // Conditioned occurrences come first: the event has already happened
      // when the trial year's own occurrences play out.
      Money* const cond = oep.conditioned_cells(s);
      for (TrialId tt = tb; tt < t; ++tt) {
        sums[tt - tb] = conditioned_annual(s, cond, tt - b0);
      }
      apply(s, slot_ground_up(s, tb, n), n, sums);
      for (TrialId tt = tb; tt < t; ++tt) {
        finish_slot_trial(s, tt, sums[tt - tb]);
      }
    }
  }
  return found;
}

/// process_group_block over the group's gather mode. Returns the rows
/// found, once per occurrence (a compact group's hits).
std::uint64_t process_group(const Slot* gs, std::size_t gsize, const Philox4x32& philox,
                            bool secondary, TrialId trial_base, TrialId t0, TrialId t1,
                            std::span<const std::uint64_t> yelt_offsets, Money* annuals,
                            const OepSink& oep, TrialId b0) {
  const Slot& lead = gs[0];
  const auto full_range_seq = [](std::uint64_t i, std::uint64_t trial_begin) {
    return static_cast<std::uint32_t>(i - trial_begin);
  };
  switch (lead.gather) {
    case Gather::Compact: {
      const std::uint32_t* rows = lead.rows;
      const std::uint32_t* seqs = lead.seqs;
      return process_group_block(
          gs, gsize, philox, secondary, trial_base, t0, t1, lead.hit_offsets, yelt_offsets,
          [rows](std::uint64_t k) { return static_cast<std::size_t>(rows[k]); },
          [seqs](std::uint64_t k, std::uint64_t) { return seqs[k]; }, annuals, oep, b0);
    }
    case Gather::Lookup: {
      // The table decides once per group: O(1) through its event→row
      // lookup, or a binary search when its ids are too sparse for one.
      // Both find the same row for every occurrence.
      const EventId* events = lead.events;
      const auto lookup = lead.elt->row_lookup();
      if (!lookup.empty()) {
        return process_group_block(
            gs, gsize, philox, secondary, trial_base, t0, t1, yelt_offsets.data(),
            yelt_offsets,
            [events, lookup](std::uint64_t i) {
              const std::uint32_t row = data::EventLossTable::lookup_row(lookup, events[i]);
              return row == data::EventLossTable::kNoRow ? data::EventLossTable::npos
                                                          : static_cast<std::size_t>(row);
            },
            full_range_seq, annuals, oep, b0);
      }
      const data::EventLossTable* elt = lead.elt;
      return process_group_block(
          gs, gsize, philox, secondary, trial_base, t0, t1, yelt_offsets.data(), yelt_offsets,
          [elt, events](std::uint64_t i) { return elt->find(events[i]); }, full_range_seq,
          annuals, oep, b0);
    }
  }
  return 0;
}

}  // namespace

MaskColumn MaskColumn::build(const data::YearEventLossTable& yelt,
                             std::span<const EventId> excluded_events, ParallelConfig cfg) {
  MaskColumn mask;
  mask.adjusted_seq.resize(yelt.entries());
  const auto offsets = yelt.offsets();
  const auto events = yelt.events();
  const auto excluded_begin = excluded_events.begin();
  const auto excluded_end = excluded_events.end();

  std::uint32_t* out = mask.adjusted_seq.data();
  RISKAN_DEBUG_ASSERT_ALIGNED(out);
  mask.excluded_occurrences = parallel_reduce<std::uint64_t>(
      0, yelt.trials(), 0,
      [&](std::size_t lo, std::size_t hi) {
        std::uint64_t excluded = 0;
        for (std::size_t t = lo; t < hi; ++t) {
          std::uint32_t excluded_before = 0;
          for (std::uint64_t i = offsets[t]; i < offsets[t + 1]; ++i) {
            if (std::binary_search(excluded_begin, excluded_end, events[i])) {
              out[i] = kMaskedOut;
              ++excluded_before;
            } else {
              out[i] = static_cast<std::uint32_t>(i - offsets[t]) - excluded_before;
            }
          }
          excluded += excluded_before;
        }
        return excluded;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; }, cfg);
  return mask;
}

std::vector<Group> group_slots(std::span<const Slot> slots) {
  std::vector<Group> groups;
  std::size_t i = 0;
  while (i < slots.size()) {
    std::size_t j = i + 1;
    while (j < slots.size() && same_gather(slots[i], slots[j])) {
      ++j;
    }
    groups.push_back(Group{static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j - i)});
    i = j;
  }
  return groups;
}

void process_trials(std::span<const Slot> slots, std::span<const Group> groups,
                    std::span<const std::uint64_t> yelt_offsets, const Philox4x32& philox,
                    bool secondary, TrialId trial_base, TrialId lo, TrialId hi,
                    std::span<Money> annual_scratch, const OepSink& oep) {
  // Trial blocks outermost, groups in plan order within a block: for any
  // trial, the groups touch its shared output cells in plan order, as a
  // trial-major loop would. The block's OEP is finished after its last
  // group, once every cell has all its additions.
  for (TrialId b0 = lo; b0 < hi; b0 += std::min(kTrialBlock, hi - b0)) {
    const TrialId b1 = b0 + std::min(kTrialBlock, hi - b0);
    detail::open_oep_block(oep, yelt_offsets, b0, b1);
    for (const Group& group : groups) {
      detail::add_found(group, detail::process_group_scalar(
                                   slots.data() + group.begin, group.size, philox, secondary,
                                   trial_base, b0, b1, yelt_offsets, annual_scratch.data(), oep));
    }
    detail::finish_oep_block(oep, yelt_offsets, b0, b1);
  }
}

bool vectorizable(const Slot* gs, std::uint32_t gsize) noexcept {
  if (gsize > kVectorAnnuals) {
    return false;  // not even one trial's annuals fit the vector pass's buffer
  }
  // loss_scale / conditioned_ground_up vectorize on either gather; a mask
  // column re-keys sampling per lane and stays scalar.
  if (std::any_of(gs, gs + gsize, [](const Slot& s) { return s.mask_seq != nullptr; })) {
    return false;
  }
  // The dense pass reads the table's event→row lookup; a table too sparse
  // to carry one binary-searches in the scalar kernel.
  return gs[0].gather == Gather::Compact || !gs[0].elt->row_lookup().empty();
}

std::uint64_t group_occurrences(const Slot* gs, std::uint32_t gsize,
                                std::span<const std::uint64_t> yelt_offsets, TrialId t0,
                                TrialId t1) noexcept {
  const std::uint64_t* offsets =
      gs[0].gather == Gather::Compact ? gs[0].hit_offsets : yelt_offsets.data();
  return gsize * (offsets[t1] - offsets[t0]);
}

namespace detail {

// Out-of-line exports of the kernel's scalar helpers for the per-ISA SIMD
// TUs (core/batch_simd*.cpp): sampling and the trial finish stay compiled
// with the portable baseline flags, so a wide TU links them instead of
// re-instantiating PRNG/beta templates under its own ISA.

Money conditioned_annual_slot(const Slot& s, Money* cond, std::size_t i) {
  return conditioned_annual(s, cond, i);
}

std::uint64_t process_group_scalar(const Slot* gs, std::size_t gsize, const Philox4x32& philox,
                                   bool secondary, TrialId trial_base, TrialId b0, TrialId b1,
                                   std::span<const std::uint64_t> yelt_offsets, Money* annuals,
                                   const OepSink& oep) {
  std::uint64_t found = 0;
  for (TrialId a0 = b0; a0 < b1; a0 += std::min(kTrialBlock, b1 - a0)) {
    found += process_group(gs, gsize, philox, secondary, trial_base, a0,
                           a0 + std::min(kTrialBlock, b1 - a0), yelt_offsets, annuals, oep, b0);
  }
  return found;
}

void open_oep_block(const OepSink& oep, std::span<const std::uint64_t> yelt_offsets,
                    TrialId b0, TrialId b1) {
  if (oep.tables.empty()) {
    return;
  }
  const std::uint64_t span = yelt_offsets[b1] - yelt_offsets[b0];
  RISKAN_ENSURE(span <= oep.cells && b1 - b0 <= oep.trials,
                "a kernel block outgrows its OEP scratch");
  for (std::size_t r = 0; r < oep.tables.size(); ++r) {
    Money* cells = oep.scratch + r * oep.stride();
    std::fill_n(cells, span, 0.0);
    std::fill_n(cells + oep.cells, b1 - b0, 0.0);
  }
}

void finish_oep_block(const OepSink& oep, std::span<const std::uint64_t> yelt_offsets,
                      TrialId b0, TrialId b1) {
  // Per-trial max over the trial's cells, seeded with its conditioned
  // cell, lane-parallel where a wide ISA dispatches. Reordering the max is
  // bitwise safe for this input: every cell is a sum of non-negative
  // contributions seeded with 0.0 (no NaN, no -0.0), and equal
  // non-negative doubles share one bit pattern, so any reduction order
  // picks the same bits.
  const std::uint64_t origin = yelt_offsets[b0];
  for (std::size_t r = 0; r < oep.tables.size(); ++r) {
    const Money* cells = oep.scratch + r * oep.stride();
    const Money* cond = cells + oep.cells;
    const std::span<Money> table = oep.tables[r];
    for (TrialId t = b0; t < b1; ++t) {
      const Money* first = cells + (yelt_offsets[t] - origin);
      const auto n = static_cast<std::size_t>(yelt_offsets[t + 1] - yelt_offsets[t]);
      Money worst = std::max(0.0, cond[t - b0]);
      if (oep.max_range != nullptr) {
        worst = oep.max_range(first, n, worst);
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          worst = std::max(worst, first[i]);
        }
      }
      table[t] = worst;
    }
  }
}

void add_found(const Group& group, std::uint64_t rows) {
  if (group.found != nullptr) {
    std::atomic_ref<std::uint64_t>(*group.found).fetch_add(rows, std::memory_order_relaxed);
  }
}

void finish_slot_trials_out(const Slot& s, TrialId t0, TrialId t1, const Money* annuals) {
  for (TrialId t = t0; t < t1; ++t) {
    finish_slot_trial(s, t, annuals[t - t0]);
  }
}

namespace {

/// Stream-key scratch batch for the batched fills (16 KiB of stack).
constexpr std::size_t kFillBatch = 1024;

}  // namespace

void fill_ground_up_compact_range(const Slot& s, const Philox4x32& philox,
                                  TrialId trial_base, TrialId t_first,
                                  std::uint64_t k_begin, std::uint64_t k_end, Money* out,
                                  SimdStats& stats) {
  // Build each occurrence's stream-lo key (the exact occurrence_stream
  // key) in batches, then hand the whole batch to the lane-parallel
  // sampler. hi is constant per contract.
  const std::uint64_t hi = occurrence_hi_key(s.contract_id);
  std::uint64_t lo[kFillBatch];
  TrialId t = t_first;
  for (std::uint64_t b = k_begin; b < k_end; b += kFillBatch) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(kFillBatch, k_end - b));
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = b + i;
      while (k >= s.hit_offsets[t + 1]) {
        ++t;
      }
      lo[i] = occurrence_lo_key(trial_base + t, s.seqs[k]);
    }
    s.sampler->sample_lanes(philox, hi, s.rows + b, lo, n, out + (b - k_begin),
                            stats.sampler_fast, stats.sampler_tail);
  }
}

std::uint64_t collect_dense_hits(const Slot& s, const Philox4x32& philox, bool secondary,
                                 TrialId trial_base, TrialId& t,
                                 std::span<const std::uint64_t> yelt_offsets,
                                 std::uint64_t i_begin, std::uint64_t i_end, DenseHits& out,
                                 SimdStats& stats) {
  // One walk per trial over its positions in range, appending every
  // position branch-free and keeping it only when the table finds its row;
  // the trial's segment is kept only when it gained hits. `stop` caps the
  // walk so the buffer cannot overflow, since each position adds at most
  // one hit.
  const auto lookup = s.elt->row_lookup();
  std::uint64_t lo[kDenseHits];
  std::size_t m = 0;
  std::size_t q = 0;
  std::uint64_t i = i_begin;
  while (i < i_end && m < kDenseHits) {
    while (i >= yelt_offsets[t + 1]) {
      ++t;
    }
    const std::uint64_t trial_begin = yelt_offsets[t];
    const std::uint64_t stop =
        std::min({yelt_offsets[t + 1], i_end, i + (kDenseHits - m)});
    const std::size_t m0 = m;
    for (; i < stop; ++i) {
      const std::uint32_t row = data::EventLossTable::lookup_row(lookup, s.events[i]);
      out.pos[m] = i;
      out.rows[m] = row;
      if (secondary) {
        lo[m] = occurrence_lo_key(trial_base + t, static_cast<std::uint32_t>(i - trial_begin));
      }
      m += row != data::EventLossTable::kNoRow ? 1 : 0;
    }
    out.seg_trial[q] = t;
    out.seg_end[q] = static_cast<std::uint32_t>(m);
    q += m > m0 ? 1 : 0;
  }
  out.hits = m;
  out.segs = q;
  if (secondary) {
    s.sampler->sample_lanes(philox, occurrence_hi_key(s.contract_id), out.rows, lo, m, out.gu,
                            stats.sampler_fast, stats.sampler_tail);
  }
  return i;
}

}  // namespace detail

}  // namespace riskan::core::batch

namespace riskan::core {

EngineResult run_portfolio_batch(const finance::Portfolio& portfolio,
                                 const data::YearEventLossTable& yelt,
                                 const EngineConfig& config) {
  EngineConfig batched = config;
  batched.batch_contracts = true;
  return run_aggregate_analysis(portfolio, yelt, batched);
}

}  // namespace riskan::core
