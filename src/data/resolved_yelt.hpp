// ResolvedYelt — the pre-joined event→row resolution of aggregate analysis.
//
// The stage-2 kernel walks every YELT occurrence once per (contract,
// trial) and needs the matching ELT row. Resolving that mapping inside the
// kernel — a binary search per occurrence — re-derives the identical answer
// on every engine run. The paper's own
// "scan, don't seek" argument applies: hoist the dependent random accesses
// out of the hot loop into a one-time streamed pre-join.
//
// A ResolvedYelt is a flat uint32 column aligned with yelt.events():
// rows()[i] is the ELT row index for occurrence i, or kNoLoss when the
// event causes no loss to the contract. The trial kernel then gathers
// mean/sampler parameters by direct index — no hashing, no branching
// binary search — and the resolution is shared across all layers of the
// contract and cached across runs (ResolverCache).
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

class ResolvedYelt {
 public:
  /// Sentinel row for "event not in the ELT" (no loss to this contract).
  static constexpr std::uint32_t kNoLoss = ~std::uint32_t{0};

  ResolvedYelt() = default;

  /// One-time pre-join: binary-searches each YELT occurrence in `elt`
  /// exactly once, in parallel over contiguous occurrence slabs.
  /// Deterministic (each slot is written independently of scheduling).
  static ResolvedYelt build(const EventLossTable& elt, const YearEventLossTable& yelt,
                            ParallelConfig cfg = {});

  /// Row column aligned with yelt.events(): rows()[i] indexes the ELT, or
  /// kNoLoss.
  std::span<const std::uint32_t> rows() const noexcept { return rows_; }

  std::size_t size() const noexcept { return rows_.size(); }
  bool empty() const noexcept { return rows_.empty(); }

  /// Occurrences that resolved to an ELT row (telemetry; equals the
  /// engine's per-layer "lookups found" count).
  std::uint64_t hits() const noexcept { return hits_; }

  std::size_t byte_size() const noexcept { return rows_.size() * sizeof(std::uint32_t); }

 private:
  util::AlignedVector<std::uint32_t> rows_;  // gather column — 64-byte aligned
  std::uint64_t hits_ = 0;
};

/// Hit-compacted resolution — the SoA gather input of the portfolio-batched
/// engine (core::PortfolioBatchRunner).
///
/// A ResolvedYelt still carries one slot per YELT occurrence, most of which
/// are kNoLoss for a contract whose ELT covers a fraction of the catalogue:
/// the per-contract kernel reads 4 bytes and branches for every miss. The
/// compact form keeps only the hits, CSR-indexed by trial, as two parallel
/// uint32 columns:
///   seqs()[k] — the occurrence's sequence number within its trial
///               (i - yelt.offsets()[t]; also the secondary-uncertainty
///               stream key, so sampling stays bit-identical);
///   rows()[k] — the matching ELT row.
/// trial_offsets()[t]..trial_offsets()[t+1] delimit trial t's hits. A layer
/// pass then touches 8 bytes per *hit* instead of 4 bytes per *occurrence*,
/// and spends no branches on misses — at a typical 10% catalogue coverage
/// that is ~5x less streamed data per (layer, trial) walk.
class CompactResolvedYelt {
 public:
  CompactResolvedYelt() = default;

  /// Compacts `resolved` (built against `yelt`) into hit columns. Two
  /// streamed passes (count, fill), parallel over trial slabs; every output
  /// slot is written independently of scheduling, so the build is
  /// deterministic.
  static CompactResolvedYelt build(const ResolvedYelt& resolved,
                                   const YearEventLossTable& yelt, ParallelConfig cfg = {});

  /// CSR index: hits of trial t live in [trial_offsets()[t], trial_offsets()[t+1]).
  std::span<const std::uint64_t> trial_offsets() const noexcept { return trial_offsets_; }
  /// In-trial occurrence sequence numbers of the hits, trial-relative.
  std::span<const std::uint32_t> seqs() const noexcept { return seqs_; }
  /// ELT rows of the hits, parallel to seqs().
  std::span<const std::uint32_t> rows() const noexcept { return rows_; }

  /// Total hits (== the source resolution's hits()).
  std::uint64_t hits() const noexcept { return seqs_.size(); }
  TrialId trials() const noexcept {
    return trial_offsets_.empty() ? 0 : static_cast<TrialId>(trial_offsets_.size() - 1);
  }

  std::size_t byte_size() const noexcept {
    return trial_offsets_.size() * sizeof(std::uint64_t) +
           (seqs_.size() + rows_.size()) * sizeof(std::uint32_t);
  }

 private:
  // SoA gather columns of the batched/vectorized kernels — 64-byte aligned.
  util::AlignedVector<std::uint64_t> trial_offsets_;
  util::AlignedVector<std::uint32_t> seqs_;
  util::AlignedVector<std::uint32_t> rows_;
};

class ResolverCache;

/// Pre-resolved view of many contracts' ELTs against one shared YELT — what
/// the batched engine builds up front so the trial-chunk pass is pure
/// gathers. Both the full resolutions and their hit-compacted forms come
/// from (and stay shared through) a ResolverCache, so a warm batched run
/// resolves and compacts nothing.
class MultiResolution {
 public:
  struct Entry {
    std::shared_ptr<const ResolvedYelt> resolved;
    std::shared_ptr<const CompactResolvedYelt> compact;
  };

  MultiResolution() = default;

  /// Resolves every ELT in `elts` against `yelt` through `cache` (nullptr =
  /// ResolverCache::shared()) and compacts each. Order of entries follows
  /// `elts`.
  static MultiResolution build(std::span<const EventLossTable* const> elts,
                               const YearEventLossTable& yelt, ResolverCache* cache,
                               ParallelConfig cfg = {});

  const Entry& entry(std::size_t i) const { return entries_[i]; }
  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

 private:
  std::vector<Entry> entries_;
};

/// Process-wide cache of resolutions keyed by (ELT, YELT) identity.
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
  std::shared_ptr<const ResolvedYelt> get_or_build(const EventLossTable& elt,
                                                   const YearEventLossTable& yelt,
                                                   ParallelConfig cfg = {});

  /// Full + hit-compacted resolution pair for the batched engine. The
  /// compact form is derived lazily from the cached full resolution and
  /// retained with it, so warm batched runs gather without re-compacting.
  struct CompactEntry {
    std::shared_ptr<const ResolvedYelt> resolved;
    std::shared_ptr<const CompactResolvedYelt> compact;
  };
  CompactEntry get_or_build_compact(const EventLossTable& elt,
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
    std::shared_ptr<const ResolvedYelt> resolved;
    std::shared_ptr<const CompactResolvedYelt> compact;  // lazily attached

    std::size_t bytes() const noexcept {
      return resolved->byte_size() + (compact ? compact->byte_size() : 0);
    }
  };

  /// Inserts under the lock, re-checking for a racing insert; returns the
  /// surviving entry's value and runs FIFO eviction.
  CompactEntry insert_locked(const Key& key, std::shared_ptr<const ResolvedYelt> resolved,
                             std::shared_ptr<const CompactResolvedYelt> compact);
  /// FIFO-evicts past the entry/byte bounds; caller holds mutex_.
  void evict_locked();

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  std::size_t bytes_ = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace riskan::data
