// CompactResolvedYelt — the hit-compacted event→row resolution of compact
// gathers and the scenario sweep, and the cache that keeps it.
//
// By default the engine resolves nothing up front: its trial kernel reads
// each occurrence's row from the ELT's own event→row table
// (EventLossTable::row_lookup), or binary-searches a table too sparse to
// carry one, once per occurrence for the whole layer tower. Compact
// gathers (EngineConfig::batch_contracts over a resident YELT) and the
// scenario sweep instead walk only the occurrences that hit a contract,
// which needs those hits listed per trial — this file's compact CSR form,
// built straight from the ELT (no per-occurrence row column in between)
// and shared across runs and scenarios through ResolverCache.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "data/elt.hpp"
#include "data/yelt.hpp"
#include "parallel/parallel_for.hpp"
#include "util/aligned.hpp"

namespace riskan::data {

/// Hit-compacted resolution — the SoA gather input of compact runs
/// (core::EngineConfig::batch_contracts over a resident YELT) and the
/// scenario sweep.
///
/// Only the occurrences whose event is in the ELT are kept, CSR-indexed by
/// trial, as two parallel uint32 columns:
///   seqs()[k] — the occurrence's sequence number within its trial
///               (i - yelt.offsets()[t]; also the secondary-uncertainty
///               stream key, so sampling stays bit-identical);
///   rows()[k] — the matching ELT row.
/// trial_offsets()[t]..trial_offsets()[t+1] delimit trial t's hits. A layer
/// pass then touches 8 bytes per *hit* and spends no branches on misses.
class CompactResolvedYelt {
 public:
  CompactResolvedYelt() = default;

  /// Resolves every occurrence of `yelt` in `elt` — through the table's
  /// event→row lookup, or by binary search when it has none — and keeps the
  /// hits. Two streamed passes (count, then a branch-free fill), parallel
  /// over trial slabs; every output slot is written independently of
  /// scheduling, so the build is deterministic.
  static CompactResolvedYelt build(const EventLossTable& elt, const YearEventLossTable& yelt,
                                   ParallelConfig cfg = {});

  /// CSR index: hits of trial t live in [trial_offsets()[t], trial_offsets()[t+1]).
  std::span<const std::uint64_t> trial_offsets() const noexcept { return trial_offsets_; }
  /// In-trial occurrence sequence numbers of the hits, trial-relative.
  std::span<const std::uint32_t> seqs() const noexcept { return seqs_; }
  /// ELT rows of the hits, parallel to seqs().
  std::span<const std::uint32_t> rows() const noexcept { return rows_; }

  /// Total hits: occurrences whose event is in the ELT.
  std::uint64_t hits() const noexcept { return seqs_.size(); }
  TrialId trials() const noexcept {
    return trial_offsets_.empty() ? 0 : static_cast<TrialId>(trial_offsets_.size() - 1);
  }

  std::size_t byte_size() const noexcept {
    return trial_offsets_.size() * sizeof(std::uint64_t) +
           (seqs_.size() + rows_.size()) * sizeof(std::uint32_t);
  }

 private:
  template <typename RowOf>
  static CompactResolvedYelt build_with(const YearEventLossTable& yelt, const RowOf& row_of,
                                        ParallelConfig cfg);

  // SoA gather columns of the batched/vectorized kernels — 64-byte aligned.
  util::AlignedVector<std::uint64_t> trial_offsets_;
  util::AlignedVector<std::uint32_t> seqs_;
  util::AlignedVector<std::uint32_t> rows_;
};

class ResolverCache;

/// Compact resolutions of many contracts' ELTs against one shared YELT —
/// what a compact run builds up front so the trial-chunk pass is pure
/// gathers. They come from (and stay shared through) a ResolverCache, so a
/// warm compact run resolves nothing.
class MultiResolution {
 public:
  MultiResolution() = default;

  /// Resolves every ELT in `elts` against `yelt` through `cache` (nullptr =
  /// ResolverCache::shared()). Order of entries follows `elts`.
  static MultiResolution build(std::span<const EventLossTable* const> elts,
                               const YearEventLossTable& yelt, ResolverCache* cache,
                               ParallelConfig cfg = {});

  const CompactResolvedYelt& entry(std::size_t i) const { return *entries_[i]; }
  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

 private:
  std::vector<std::shared_ptr<const CompactResolvedYelt>> entries_;
};

/// Process-wide cache of compact resolutions keyed by (ELT, YELT) identity.
///
/// The key is the two tables' generations (util::Generation), which no
/// other live table shares: a freed table whose address, shape and sampled
/// ids are reused by a different table cannot produce a false hit, and a
/// copy is a different table, while a moved table keeps its entry. Entries
/// are evicted FIFO past kMaxEntries entries or kMaxBytes of retained row
/// columns — the byte bound is what matters for long-lived processes that
/// resolve many distinct large workloads, since cached resolutions can
/// outlive the tables they were built from.
class ResolverCache {
 public:
  /// Entries retained before FIFO eviction kicks in.
  static constexpr std::size_t kMaxEntries = 128;
  /// Retained resolution bytes before FIFO eviction kicks in (a single
  /// oversized resolution is still cached; older entries go first).
  static constexpr std::size_t kMaxBytes = std::size_t{256} << 20;

  ResolverCache() = default;
  ResolverCache(const ResolverCache&) = delete;
  ResolverCache& operator=(const ResolverCache&) = delete;

  /// Returns the cached resolution for (elt, yelt), building it on miss.
  /// Thread-safe; concurrent misses on the same key may build twice but
  /// return equivalent resolutions.
  std::shared_ptr<const CompactResolvedYelt> get_or_build(const EventLossTable& elt,
                                                          const YearEventLossTable& yelt,
                                                          ParallelConfig cfg = {});

  std::size_t size() const;
  /// Total bytes of retained row columns.
  std::size_t byte_size() const;
  void clear();

  /// Telemetry for benches and the architecture doc's cache-hit claims.
  std::uint64_t hit_count() const noexcept { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t miss_count() const noexcept { return misses_.load(std::memory_order_relaxed); }

  /// The process-wide cache used by the engines when none is supplied.
  static ResolverCache& shared();

 private:
  struct Key {
    std::uint64_t elt_generation = 0;
    std::uint64_t yelt_generation = 0;

    bool operator==(const Key&) const = default;
  };

  static Key make_key(const EventLossTable& elt, const YearEventLossTable& yelt) noexcept;

  struct Entry {
    Key key;
    std::shared_ptr<const CompactResolvedYelt> compact;
  };

  /// FIFO-evicts past the entry/byte bounds; caller holds mutex_.
  void evict_locked();

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  std::size_t bytes_ = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace riskan::data
