// Event-Loss Table (ELT) — the output of stage 1 (catastrophe modelling)
// and the per-contract loss lookup of stage 2 (aggregate analysis).
//
// An ELT row gives, for one stochastic event, the expected loss to one
// contract's exposure together with the spread used for secondary
// uncertainty: (event_id, mean_loss, sigma_loss, exposure_limit).
//
// Layout is struct-of-arrays sorted by event id: the trial kernels find
// each occurrence's row through the table's event→row lookup (row_lookup,
// the direct-access ELT of the paper's aggregate-analysis engines) or, for
// a table too sparse to carry one, by binary search over the sorted ids
// (find); the batched engine lists the hits once per contract
// (data::CompactResolvedYelt); the device model prices the arrays as
// constant-memory residents, and the scan kernels stream it — all want
// columnar contiguity, which is exactly the "small number of very large
// tables ... streamed by independent processes" organisation the paper
// prescribes for stage 1 outputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/aligned.hpp"
#include "util/generation.hpp"
#include "util/types.hpp"

namespace riskan::data {

/// One ELT row (used by builders and row-oriented baselines; the table
/// itself stores columns).
struct EltRow {
  EventId event_id = 0;
  Money mean_loss = 0.0;
  Money sigma_loss = 0.0;
  /// Maximum possible loss for the event (exposed limit); the support of
  /// the secondary-uncertainty beta distribution.
  Money exposure = 0.0;
};

class EventLossTable {
 public:
  EventLossTable() = default;

  /// Builds from rows; sorts by event id and rejects duplicates.
  static EventLossTable from_rows(std::vector<EltRow> rows);

  std::size_t size() const noexcept { return event_ids_.size(); }
  bool empty() const noexcept { return event_ids_.empty(); }

  std::span<const EventId> event_ids() const noexcept { return event_ids_; }
  std::span<const Money> mean_loss() const noexcept { return mean_; }
  std::span<const Money> sigma_loss() const noexcept { return sigma_; }
  std::span<const Money> exposure() const noexcept { return exposure_; }

  /// Index of the event in the table, or npos when the event causes no loss
  /// to this contract. O(log n) binary search — the lookup of tables
  /// without a row_lookup().
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t find(EventId event) const noexcept;

  /// Sentinel row in row_lookup(): the event is not in the table.
  static constexpr std::uint32_t kNoRow = ~std::uint32_t{0};

  /// Dense event→row lookup covering [0, max event id]: row_lookup()[e] is
  /// the row of event e, or kNoRow. Built by from_rows when the id range is
  /// dense enough to be worth the memory (max id + 1 <= max(4096, 64 x
  /// rows)); empty otherwise, and callers fall back to find(). This is what
  /// makes event→row resolution O(1) per occurrence: the kernel's lookup
  /// gather reads it for every occurrence of every block, and the compact
  /// build for every YELT it resolves.
  std::span<const std::uint32_t> row_lookup() const noexcept { return row_lookup_; }

  /// Row of `event` in a table's row_lookup() `lookup`, or kNoRow (ids
  /// past the lookup's end are absent too).
  static std::uint32_t lookup_row(std::span<const std::uint32_t> lookup,
                                  EventId event) noexcept {
    return event < lookup.size() ? lookup[event] : kNoRow;
  }

  /// Row view at index (bounds-checked by contract).
  EltRow row(std::size_t index) const;

  /// Sum of mean losses (the contract's annual expected ground-up loss
  /// given one occurrence of every catalogue event — used by sanity tests).
  Money total_mean_loss() const noexcept;

  /// Bytes occupied by the columns (capacity excluded); feeds the E1
  /// accounting.
  std::size_t byte_size() const noexcept;

  /// Process-unique identity (util::Generation): fresh on construction,
  /// decode and copy, carried by a move. data::ResolverCache keys on it.
  std::uint64_t generation() const noexcept { return generation_.value(); }

 private:
  // SoA columns — 64-byte aligned (mean_ is the vector kernels' gather base).
  util::AlignedVector<EventId> event_ids_;
  util::AlignedVector<Money> mean_;
  util::AlignedVector<Money> sigma_;
  util::AlignedVector<Money> exposure_;
  util::AlignedVector<std::uint32_t> row_lookup_;  // empty when ids are too sparse
  util::Generation generation_;
};

}  // namespace riskan::data
