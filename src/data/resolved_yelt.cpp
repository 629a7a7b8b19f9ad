#include "data/resolved_yelt.hpp"

#include <algorithm>
#include <limits>

#include "obs/obs.hpp"
#include "util/require.hpp"

namespace riskan::data {

namespace {

/// Process-wide resolver telemetry: every ResolverCache instance (shared,
/// run-local, ephemeral) reports into the same counters, so the obs report
/// shows the run's total hit/miss/build picture regardless of which cache
/// served it.
obs::Counter resolver_hits() {
  static const obs::Counter c = obs::MetricsRegistry::global().counter("resolver.hits");
  return c;
}

obs::Counter resolver_misses() {
  static const obs::Counter c = obs::MetricsRegistry::global().counter("resolver.misses");
  return c;
}

obs::Histogram resolver_build_seconds() {
  static const obs::Histogram h =
      obs::MetricsRegistry::global().histogram("resolver.build_seconds");
  return h;
}

}  // namespace

ResolvedYelt ResolvedYelt::build(const EventLossTable& elt, const YearEventLossTable& yelt,
                                 ParallelConfig cfg) {
  RISKAN_REQUIRE(elt.size() < static_cast<std::size_t>(kNoLoss),
                 "ELT too large for uint32 row indices");

  ResolvedYelt resolved;
  resolved.rows_.resize(yelt.entries());

  const auto events = yelt.events();
  const auto ids = elt.event_ids();
  const auto lookup = elt.row_lookup();
  auto* out = resolved.rows_.data();
  RISKAN_DEBUG_ASSERT_ALIGNED(out);

  // Each chunk streams a contiguous slab of the events column and writes
  // the matching slab of the row column; chunk order never shows in the
  // output, so the build is deterministic under any scheduling. Tables
  // with a dense id range carry an O(1) event→row lookup (the hot path —
  // out-of-core runs resolve every block); sparse tables binary-search.
  // Both produce identical row indices.
  resolved.hits_ = parallel_reduce<std::uint64_t>(
      0, resolved.rows_.size(), 0,
      [&](std::size_t lo, std::size_t hi) {
        std::uint64_t found = 0;
        if (!lookup.empty()) {
          static_assert(EventLossTable::kNoRow == ResolvedYelt::kNoLoss);
          for (std::size_t i = lo; i < hi; ++i) {
            const EventId e = events[i];
            const std::uint32_t row = e < lookup.size() ? lookup[e] : kNoLoss;
            out[i] = row;
            found += row != kNoLoss ? 1 : 0;
          }
          return found;
        }
        for (std::size_t i = lo; i < hi; ++i) {
          const auto it = std::lower_bound(ids.begin(), ids.end(), events[i]);
          if (it != ids.end() && *it == events[i]) {
            out[i] = static_cast<std::uint32_t>(it - ids.begin());
            ++found;
          } else {
            out[i] = kNoLoss;
          }
        }
        return found;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; }, cfg);
  return resolved;
}

CompactResolvedYelt CompactResolvedYelt::build(const ResolvedYelt& resolved,
                                               const YearEventLossTable& yelt,
                                               ParallelConfig cfg) {
  RISKAN_REQUIRE(resolved.size() == yelt.entries(),
                 "resolution was built against a different YELT");

  CompactResolvedYelt compact;
  const TrialId trials = yelt.trials();
  compact.trial_offsets_.assign(static_cast<std::size_t>(trials) + 1, 0);

  const auto offsets = yelt.offsets();
  const auto rows = resolved.rows();

  // Guard before the parallel region: pool tasks must not throw (a throw
  // there terminates instead of surfacing the ContractViolation).
  for (TrialId t = 0; t < trials; ++t) {
    RISKAN_REQUIRE(offsets[t + 1] - offsets[t] <=
                       std::numeric_limits<std::uint32_t>::max(),
                   "trial too large for uint32 occurrence sequence numbers");
  }

  // Pass 1: per-trial hit counts, streamed in parallel trial slabs. Counts
  // land in trial_offsets_[t + 1] so the exclusive prefix sum below turns
  // the vector into the CSR index in place.
  auto* counts = compact.trial_offsets_.data();
  parallel_for(
      0, trials,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t t = lo; t < hi; ++t) {
          std::uint64_t found = 0;
          for (std::uint64_t i = offsets[t]; i < offsets[t + 1]; ++i) {
            found += rows[i] != ResolvedYelt::kNoLoss ? 1 : 0;
          }
          counts[t + 1] = found;
        }
      },
      cfg);
  for (TrialId t = 0; t < trials; ++t) {
    counts[t + 1] += counts[t];
  }

  // Pass 2: fill the hit columns. Each trial writes its own CSR range, so
  // slabs never overlap and the output is scheduling-independent.
  compact.seqs_.resize(compact.trial_offsets_.back());
  compact.rows_.resize(compact.trial_offsets_.back());
  auto* seqs_out = compact.seqs_.data();
  auto* rows_out = compact.rows_.data();
  RISKAN_DEBUG_ASSERT_ALIGNED(compact.trial_offsets_.data());
  RISKAN_DEBUG_ASSERT_ALIGNED(seqs_out);
  RISKAN_DEBUG_ASSERT_ALIGNED(rows_out);
  parallel_for(
      0, trials,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t t = lo; t < hi; ++t) {
          std::uint64_t k = counts[t];
          const std::uint64_t begin = offsets[t];
          for (std::uint64_t i = begin; i < offsets[t + 1]; ++i) {
            if (rows[i] != ResolvedYelt::kNoLoss) {
              seqs_out[k] = static_cast<std::uint32_t>(i - begin);
              rows_out[k] = rows[i];
              ++k;
            }
          }
        }
      },
      cfg);
  return compact;
}

MultiResolution MultiResolution::build(std::span<const EventLossTable* const> elts,
                                       const YearEventLossTable& yelt, ResolverCache* cache,
                                       ParallelConfig cfg) {
  ResolverCache& resolver = cache ? *cache : ResolverCache::shared();
  MultiResolution set;
  set.entries_.reserve(elts.size());
  for (const EventLossTable* elt : elts) {
    RISKAN_REQUIRE(elt != nullptr, "MultiResolution: null ELT");
    auto cached = resolver.get_or_build_compact(*elt, yelt, cfg);
    set.entries_.push_back(Entry{std::move(cached.resolved), std::move(cached.compact)});
  }
  return set;
}

ResolverCache::Key ResolverCache::make_key(const EventLossTable& elt,
                                           const YearEventLossTable& yelt) noexcept {
  return Key{elt.generation(), yelt.generation()};
}

ResolverCache::CompactEntry ResolverCache::insert_locked(
    const Key& key, std::shared_ptr<const ResolvedYelt> resolved,
    std::shared_ptr<const CompactResolvedYelt> compact) {
  for (Entry& entry : entries_) {
    if (entry.key == key) {
      // Lost an insert race; keep the first build, but donate the compact
      // form if the survivor lacks one.
      if (compact && !entry.compact) {
        entry.compact = std::move(compact);
        bytes_ += entry.compact->byte_size();
      }
      CompactEntry value{entry.resolved, entry.compact};
      evict_locked();  // the donation may have breached the byte bound
      return value;
    }
  }
  entries_.push_back(Entry{key, std::move(resolved), std::move(compact)});
  bytes_ += entries_.back().bytes();
  CompactEntry value{entries_.back().resolved, entries_.back().compact};
  evict_locked();
  return value;
}

void ResolverCache::evict_locked() {
  // FIFO eviction under both bounds; the newest entry always survives so a
  // single oversized resolution is still served from the cache.
  while (entries_.size() > 1 &&
         (entries_.size() > kMaxEntries || bytes_ > kMaxBytes)) {
    bytes_ -= entries_.front().bytes();
    entries_.erase(entries_.begin());
  }
}

std::shared_ptr<const ResolvedYelt> ResolverCache::get_or_build(
    const EventLossTable& elt, const YearEventLossTable& yelt, ParallelConfig cfg) {
  const Key key = make_key(elt, yelt);
  {
    std::lock_guard lock(mutex_);
    for (const Entry& entry : entries_) {
      if (entry.key == key) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        resolver_hits().add();
        return entry.resolved;
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  resolver_misses().add();

  // Build outside the lock: a concurrent miss on the same key builds a
  // duplicate (equivalent) resolution rather than serialising the pool.
  obs::Timer build_timer("resolver.build");
  auto built = std::make_shared<const ResolvedYelt>(ResolvedYelt::build(elt, yelt, cfg));
  resolver_build_seconds().observe(build_timer.stop());

  std::lock_guard lock(mutex_);
  return insert_locked(key, std::move(built), nullptr).resolved;
}

ResolverCache::CompactEntry ResolverCache::get_or_build_compact(
    const EventLossTable& elt, const YearEventLossTable& yelt, ParallelConfig cfg) {
  const Key key = make_key(elt, yelt);
  std::shared_ptr<const ResolvedYelt> resolved;
  {
    std::lock_guard lock(mutex_);
    for (const Entry& entry : entries_) {
      if (entry.key == key) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        resolver_hits().add();
        if (entry.compact) {
          return {entry.resolved, entry.compact};
        }
        resolved = entry.resolved;  // full form cached; compact still to build
        break;
      }
    }
  }
  if (!resolved) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    resolver_misses().add();
    obs::Timer build_timer("resolver.build");
    resolved = std::make_shared<const ResolvedYelt>(ResolvedYelt::build(elt, yelt, cfg));
    resolver_build_seconds().observe(build_timer.stop());
  }
  auto compact = std::make_shared<const CompactResolvedYelt>(
      CompactResolvedYelt::build(*resolved, yelt, cfg));

  std::lock_guard lock(mutex_);
  return insert_locked(key, std::move(resolved), std::move(compact));
}

std::size_t ResolverCache::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

std::size_t ResolverCache::byte_size() const {
  std::lock_guard lock(mutex_);
  return bytes_;
}

void ResolverCache::clear() {
  std::lock_guard lock(mutex_);
  entries_.clear();
  bytes_ = 0;
}

ResolverCache& ResolverCache::shared() {
  static ResolverCache cache;
  return cache;
}

}  // namespace riskan::data
