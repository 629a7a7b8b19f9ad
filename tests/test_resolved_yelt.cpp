// The compact event→row resolution, its cache, and the resolution the
// per-contract kernel does itself.
//
// Two layers of guarantee:
//   1. the compact build lists exactly the occurrences EventLossTable::find
//      resolves, through the table's event→row lookup or (for tables too
//      sparse to carry one) by binary search;
//   2. the engine's YLTs (portfolio, contract, OEP, reinstatement) equal
//      the reference oracle's across backends, grain sizes and
//      secondary-uncertainty settings.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>

#include "core/aggregate_engine.hpp"
#include "data/resolved_yelt.hpp"
#include "finance/contract.hpp"
#include "oracle.hpp"

namespace riskan::data {
namespace {

EventLossTable small_elt() {
  return EventLossTable::from_rows({
      {2, 10.0, 1.0, 20.0},
      {5, 30.0, 2.0, 60.0},
      {9, 70.0, 5.0, 140.0},
  });
}

YearEventLossTable small_yelt() {
  YearEventLossTable::Builder builder;
  builder.begin_trial();
  builder.add(2, 1);
  builder.add(7, 2);  // not in the ELT
  builder.begin_trial();  // empty year
  builder.begin_trial();
  builder.add(9, 3);
  builder.add(5, 4);
  builder.add(2, 5);
  return builder.finish();
}

/// Asserts `compact` lists, trial by trial and in occurrence order, exactly
/// the occurrences of `yelt` that `elt.find` resolves.
void expect_matches_find(const CompactResolvedYelt& compact, const EventLossTable& elt,
                         const YearEventLossTable& yelt) {
  ASSERT_EQ(compact.trials(), yelt.trials());
  const auto offsets = yelt.offsets();
  const auto events = yelt.events();
  std::uint64_t k = 0;
  for (TrialId t = 0; t < yelt.trials(); ++t) {
    ASSERT_EQ(compact.trial_offsets()[t], k) << "trial " << t;
    for (std::uint64_t i = offsets[t]; i < offsets[t + 1]; ++i) {
      const std::size_t row = elt.find(events[i]);
      if (row == EventLossTable::npos) {
        continue;
      }
      ASSERT_LT(k, compact.hits());
      EXPECT_EQ(compact.seqs()[k], static_cast<std::uint32_t>(i - offsets[t]));
      EXPECT_EQ(compact.rows()[k], static_cast<std::uint32_t>(row));
      ++k;
    }
  }
  EXPECT_EQ(k, compact.hits());
  EXPECT_EQ(compact.trial_offsets()[yelt.trials()], k);
}

TEST(ResolvedYelt, MatchesEltFindPerOccurrence) {
  const auto elt = small_elt();
  const auto yelt = small_yelt();
  ASSERT_FALSE(elt.row_lookup().empty());
  const auto compact = CompactResolvedYelt::build(elt, yelt);
  expect_matches_find(compact, elt, yelt);
  EXPECT_EQ(compact.hits(), 4u);  // event 7 misses
  EXPECT_EQ(compact.byte_size(),
            (yelt.trials() + 1) * sizeof(std::uint64_t) + 2 * 4 * sizeof(std::uint32_t));
}

TEST(ResolvedYelt, EmptyTablesResolveEmpty) {
  const auto elt = EventLossTable::from_rows({});
  const auto yelt = small_yelt();
  const auto compact = CompactResolvedYelt::build(elt, yelt);
  EXPECT_EQ(compact.hits(), 0u);
  ASSERT_EQ(compact.trials(), yelt.trials());
  for (const auto offset : compact.trial_offsets()) {
    EXPECT_EQ(offset, 0u);
  }

  YearEventLossTable::Builder builder;
  builder.begin_trial();
  builder.begin_trial();
  const auto empty_years = builder.finish();
  const auto none = CompactResolvedYelt::build(small_elt(), empty_years);
  EXPECT_EQ(none.hits(), 0u);
  EXPECT_EQ(none.trials(), 2u);
}

TEST(ResolvedYelt, ParallelBuildMatchesSequentialBuild) {
  YeltGenConfig yg;
  yg.trials = 2'000;
  const auto yelt = generate_yelt(500, yg);
  finance::PortfolioGenConfig pg;
  pg.contracts = 1;
  pg.catalog_events = 500;
  pg.elt_rows = 120;
  const auto portfolio = finance::generate_portfolio(pg);
  const auto& elt = portfolio.contract(0).elt();

  const auto parallel = CompactResolvedYelt::build(elt, yelt, ParallelConfig{nullptr, 0});
  const auto tiny_grain = CompactResolvedYelt::build(elt, yelt, ParallelConfig{nullptr, 3});
  const auto inline_build = CompactResolvedYelt::build(
      elt, yelt, ParallelConfig{nullptr, std::numeric_limits<std::size_t>::max()});
  for (const auto* other : {&tiny_grain, &inline_build}) {
    ASSERT_TRUE(std::ranges::equal(parallel.trial_offsets(), other->trial_offsets()));
    ASSERT_TRUE(std::ranges::equal(parallel.seqs(), other->seqs()));
    ASSERT_TRUE(std::ranges::equal(parallel.rows(), other->rows()));
  }
  expect_matches_find(parallel, elt, yelt);
}

TEST(ResolverCache, SecondLookupHitsAndSharesTheResolution) {
  const auto elt = small_elt();
  const auto yelt = small_yelt();
  ResolverCache cache;

  const auto first = cache.get_or_build(elt, yelt);
  const auto second = cache.get_or_build(elt, yelt);
  EXPECT_EQ(first.get(), second.get());  // same shared resolution
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.miss_count(), 1u);
  EXPECT_EQ(cache.hit_count(), 1u);
}

TEST(ResolverCache, DistinctTablesGetDistinctEntries) {
  const auto elt_a = small_elt();
  const auto elt_b = EventLossTable::from_rows({{2, 10.0, 1.0, 20.0}});
  const auto yelt = small_yelt();
  ResolverCache cache;

  const auto a = cache.get_or_build(elt_a, yelt);
  const auto b = cache.get_or_build(elt_b, yelt);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(a->hits(), 4u);
  EXPECT_EQ(b->hits(), 2u);  // only event 2 resolves
  EXPECT_EQ(cache.byte_size(), a->byte_size() + b->byte_size());
}

TEST(ResolverCache, RebuiltTableAtAReusedAddressNeverServesStaleRows) {
  // Each rebuild frees the previous table first, so the allocator tends to
  // hand the new one the same column addresses, with the same shape; only
  // the id at row 333 changes (a strided 16-sample fingerprint of a
  // 1000-row table skips it). A cache keyed on address, shape and sampled
  // ids hits and serves the previous table's rows; keyed on the tables'
  // generations, every lookup must equal a fresh build.
  data::YeltGenConfig yg;
  yg.trials = 2'000;
  const auto yelt = generate_yelt(2'000, yg);
  ResolverCache cache;
  std::optional<EventLossTable> elt;
  for (int i = 0; i < 200; ++i) {
    std::vector<EltRow> rows;
    for (EventId r = 0; r < 1'000; ++r) {
      const EventId id = r == 333 ? static_cast<EventId>(665 + i % 3) : 2 * r;
      rows.push_back({id, 1e6 + r, 2e5, 4e6});
    }
    elt.reset();
    elt.emplace(EventLossTable::from_rows(std::move(rows)));
    const auto cached = cache.get_or_build(*elt, yelt);
    const auto fresh = CompactResolvedYelt::build(*elt, yelt);
    ASSERT_TRUE(std::ranges::equal(cached->trial_offsets(), fresh.trial_offsets()))
        << "rebuild " << i;
    ASSERT_TRUE(std::ranges::equal(cached->seqs(), fresh.seqs())) << "rebuild " << i;
    ASSERT_TRUE(std::ranges::equal(cached->rows(), fresh.rows())) << "rebuild " << i;
  }
}

TEST(ResolverCache, CopiesMissAndMovesHit) {
  // A copy is a new table (fresh generation); a move hands the table's
  // generation to its destination, so the moved-to table still hits.
  const auto yelt = small_yelt();
  ResolverCache cache;
  auto elt = small_elt();
  const auto first = cache.get_or_build(elt, yelt);
  const EventLossTable copy = elt;
  EXPECT_NE(copy.generation(), elt.generation());
  (void)cache.get_or_build(copy, yelt);
  EXPECT_EQ(cache.miss_count(), 2u);
  const EventLossTable moved = std::move(elt);
  EXPECT_NE(moved.generation(), elt.generation());
  EXPECT_EQ(cache.get_or_build(moved, yelt).get(), first.get());
  EXPECT_EQ(cache.hit_count(), 1u);
}

TEST(ResolverCache, EvictsFifoPastCapacity) {
  const auto yelt = small_yelt();
  ResolverCache cache;
  std::vector<EventLossTable> elts;
  elts.reserve(ResolverCache::kMaxEntries + 8);
  for (std::size_t i = 0; i < ResolverCache::kMaxEntries + 8; ++i) {
    elts.push_back(EventLossTable::from_rows(
        {{static_cast<EventId>(i + 1), 1.0, 0.0, 2.0}}));
    cache.get_or_build(elts.back(), yelt);
  }
  EXPECT_EQ(cache.size(), ResolverCache::kMaxEntries);
}

}  // namespace
}  // namespace riskan::data

namespace riskan::core {
namespace {

struct EquivalenceWorkload {
  finance::Portfolio portfolio;
  data::YearEventLossTable yelt;
};

EquivalenceWorkload equivalence_workload() {
  EquivalenceWorkload w;
  finance::PortfolioGenConfig pg;
  pg.contracts = 6;
  pg.catalog_events = 800;
  pg.elt_rows = 150;
  pg.layers_per_contract = 3;  // resolution shared across layers
  pg.seed = 99;
  w.portfolio = finance::generate_portfolio(pg);

  data::YeltGenConfig yg;
  yg.trials = 1'500;
  yg.seed = 7;
  w.yelt = data::generate_yelt(800, yg);
  return w;
}

TEST(ResolverEquivalence, BitIdenticalAcrossBackendsGrainsAndSecondary) {
  // The per-contract lowering finds each row in the kernel; every backend
  // and grain must give the definition's answer.
  const auto w = equivalence_workload();

  for (const bool secondary : {false, true}) {
    EngineConfig config;
    config.secondary_uncertainty = secondary;
    const auto expected = oracle::run_oracle(w.portfolio, w.yelt, config);
    for (const Backend backend : kAllBackends) {
      for (const std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{97}}) {
        if (backend == Backend::Sequential && grain != 0) {
          continue;  // grain only affects the threaded backend
        }
        config.backend = backend;
        config.trial_grain = grain;
        oracle::expect_equals_oracle(run_aggregate_analysis(w.portfolio, w.yelt, config),
                                     expected,
                                     std::string(to_string(backend)) +
                                         (secondary ? "/secondary" : "/means") +
                                         "/grain=" + std::to_string(grain));
      }
    }
  }
}

TEST(ResolverEquivalence, DeviceModeledRunMatchesTheOracle) {
  // A run with the device modeled (residency capped per table) equals the
  // definition under either gather, and models one launch for the book:
  // the run is one plan, and the capped tables share one residency chunk.
  const auto w = equivalence_workload();

  for (const bool compact : {false, true}) {
    data::ResolverCache cache;
    EngineConfig config;
    config.backend = Backend::Threaded;
    config.batch_contracts = compact;
    config.resolver_cache = &cache;
    DeviceRunInfo info;
    config.device_info = &info;
    config.device_elt_chunk_rows = 64;  // cap constant-memory residency per table
    const std::string what = compact ? "compact" : "lookup";
    oracle::expect_equals_oracle(run_aggregate_analysis(w.portfolio, w.yelt, config),
                                 oracle::run_oracle(w.portfolio, w.yelt, config),
                                 "device-modeled run/" + what);
    EXPECT_EQ(info.launches, 1) << what;
  }
}

TEST(ResolverEquivalence, SharedCacheReusedAcrossRuns) {
  // A lookup run resolves in the kernel: it never probes the cache, and a
  // second run over the same tables repeats the first.
  // (Batched reuse: PortfolioBatch.SharedResolverCacheIsReused.)
  const auto w = equivalence_workload();
  data::ResolverCache cache;

  EngineConfig config;
  config.backend = Backend::Threaded;
  config.resolver_cache = &cache;

  const auto first = run_aggregate_analysis(w.portfolio, w.yelt, config);
  const auto second = run_aggregate_analysis(w.portfolio, w.yelt, config);
  EXPECT_EQ(cache.miss_count(), 0u);
  EXPECT_EQ(cache.hit_count(), 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(first.resolve_seconds, 0.0);
  const auto expected = oracle::run_oracle(w.portfolio, w.yelt, config);
  oracle::expect_equals_oracle(first, expected, "first run");
  oracle::expect_equals_oracle(second, expected, "second run");
}

}  // namespace
}  // namespace riskan::core
