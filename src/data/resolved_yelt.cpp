#include "data/resolved_yelt.hpp"

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

template <typename RowOf>
CompactResolvedYelt CompactResolvedYelt::build_with(const YearEventLossTable& yelt,
                                                    const RowOf& row_of, ParallelConfig cfg) {
  CompactResolvedYelt compact;
  const TrialId trials = yelt.trials();
  compact.trial_offsets_.assign(static_cast<std::size_t>(trials) + 1, 0);

  const auto offsets = yelt.offsets();
  const auto events = yelt.events();

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
            found += row_of(events[i]) != EventLossTable::kNoRow ? 1 : 0;
          }
          counts[t + 1] = found;
        }
      },
      cfg);
  for (TrialId t = 0; t < trials; ++t) {
    counts[t + 1] += counts[t];
  }

  // Pass 2: fill the hit columns branch-free — every occurrence writes the
  // slot at the cursor, and only a hit advances it, so a miss is
  // overwritten by the next hit. The cursor stays below the slab's end, so
  // each slab writes only its own CSR range and the output is
  // scheduling-independent.
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
        std::uint64_t k = counts[lo];
        const std::uint64_t end = counts[hi];
        for (std::size_t t = lo; t < hi && k < end; ++t) {
          const std::uint64_t begin = offsets[t];
          for (std::uint64_t i = begin; i < offsets[t + 1] && k < end; ++i) {
            const std::uint32_t row = row_of(events[i]);
            seqs_out[k] = static_cast<std::uint32_t>(i - begin);
            rows_out[k] = row;
            k += row != EventLossTable::kNoRow ? 1 : 0;
          }
        }
      },
      cfg);
  return compact;
}

CompactResolvedYelt CompactResolvedYelt::build(const EventLossTable& elt,
                                               const YearEventLossTable& yelt,
                                               ParallelConfig cfg) {
  RISKAN_REQUIRE(elt.size() < static_cast<std::size_t>(EventLossTable::kNoRow),
                 "ELT too large for uint32 row indices");
  // Tables with a dense id range answer in O(1) through their event→row
  // lookup (the hot path: a streamed sweep resolves every block);
  // sparse ones binary-search. Both give identical rows.
  const auto lookup = elt.row_lookup();
  if (!lookup.empty()) {
    return build_with(
        yelt, [lookup](EventId e) { return EventLossTable::lookup_row(lookup, e); }, cfg);
  }
  return build_with(
      yelt,
      [&elt](EventId e) {
        const std::size_t row = elt.find(e);
        return row == EventLossTable::npos ? EventLossTable::kNoRow
                                           : static_cast<std::uint32_t>(row);
      },
      cfg);
}

MultiResolution MultiResolution::build(std::span<const EventLossTable* const> elts,
                                       const YearEventLossTable& yelt, ResolverCache* cache,
                                       ParallelConfig cfg) {
  ResolverCache& resolver = cache ? *cache : ResolverCache::shared();
  MultiResolution set;
  set.entries_.reserve(elts.size());
  for (const EventLossTable* elt : elts) {
    RISKAN_REQUIRE(elt != nullptr, "MultiResolution: null ELT");
    set.entries_.push_back(resolver.get_or_build(*elt, yelt, cfg));
  }
  return set;
}

ResolverCache::Key ResolverCache::make_key(const EventLossTable& elt,
                                           const YearEventLossTable& yelt) noexcept {
  return Key{elt.generation(), yelt.generation()};
}

void ResolverCache::evict_locked() {
  // FIFO eviction under both bounds; the newest entry always survives so a
  // single oversized resolution is still served from the cache.
  while (entries_.size() > 1 &&
         (entries_.size() > kMaxEntries || bytes_ > kMaxBytes)) {
    bytes_ -= entries_.front().compact->byte_size();
    entries_.erase(entries_.begin());
  }
}

std::shared_ptr<const CompactResolvedYelt> ResolverCache::get_or_build(
    const EventLossTable& elt, const YearEventLossTable& yelt, ParallelConfig cfg) {
  const Key key = make_key(elt, yelt);
  {
    std::lock_guard lock(mutex_);
    for (const Entry& entry : entries_) {
      if (entry.key == key) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        resolver_hits().add();
        return entry.compact;
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  resolver_misses().add();

  // Build outside the lock: a concurrent miss on the same key builds a
  // duplicate (equivalent) resolution rather than serialising the pool.
  obs::Timer build_timer("resolver.build");
  auto built =
      std::make_shared<const CompactResolvedYelt>(CompactResolvedYelt::build(elt, yelt, cfg));
  resolver_build_seconds().observe(build_timer.stop());

  std::lock_guard lock(mutex_);
  for (const Entry& entry : entries_) {
    if (entry.key == key) {
      return entry.compact;  // lost an insert race; keep the first build
    }
  }
  entries_.push_back(Entry{key, built});
  bytes_ += built->byte_size();
  evict_locked();
  return built;
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
