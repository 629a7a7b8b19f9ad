// Compact gathers — `batch_contracts` runs over a resident YELT.
//
// Every run plans the whole book once per trial block; `batch_contracts`
// only switches each contract's gather from the in-kernel event→row lookup
// to a cached compact resolution. Same per-occurrence terms, same
// accumulation order per output slot, so every result (portfolio AEP,
// per-contract YLTs, OEP, reinstatement premium, lookup telemetry) must be
// bit-identical across gathers, backends, grain sizes and
// secondary-uncertainty settings. These tests are the contract that lets
// callers flip `batch_contracts` on without re-validating numbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/aggregate_engine.hpp"
#include "core/portfolio_batch.hpp"
#include "data/resolved_yelt.hpp"
#include "finance/contract.hpp"
#include "oracle.hpp"

namespace riskan::core {
namespace {

/// One row of the equivalence matrices: where the plan runs and which
/// host kernel runs it.
struct ExecRow {
  Backend backend;
  Kernel kernel;
};

/// Every backend under both kernels. Auto rows run the vector kernel
/// wherever an ISA dispatches and the scalar kernel elsewhere, so nothing
/// skips.
std::vector<ExecRow> exec_rows() {
  std::vector<ExecRow> rows;
  for (const Backend backend : kAllBackends) {
    for (const Kernel kernel : kAllKernels) {
      rows.push_back({backend, kernel});
    }
  }
  return rows;
}

std::string row_name(const ExecRow& row) {
  return std::string(to_string(row.backend)) + "/" + to_string(row.kernel);
}

finance::Portfolio book(std::size_t contracts, int layers, std::uint64_t seed = 99,
                        EventId catalog = 800, std::size_t elt_rows = 150) {
  finance::PortfolioGenConfig pg;
  pg.contracts = contracts;
  pg.catalog_events = catalog;
  pg.elt_rows = elt_rows;
  pg.layers_per_contract = layers;
  pg.seed = seed;
  return finance::generate_portfolio(pg);
}

data::YearEventLossTable lens(TrialId trials, EventId catalog = 800,
                              std::uint64_t seed = 7) {
  data::YeltGenConfig yg;
  yg.trials = trials;
  yg.seed = seed;
  return data::generate_yelt(catalog, yg);
}

void expect_identical(const EngineResult& a, const EngineResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.portfolio_ylt.trials(), b.portfolio_ylt.trials()) << what;
  for (TrialId t = 0; t < a.portfolio_ylt.trials(); ++t) {
    ASSERT_EQ(a.portfolio_ylt[t], b.portfolio_ylt[t]) << what << " AEP trial " << t;
    ASSERT_EQ(a.reinstatement_premium[t], b.reinstatement_premium[t])
        << what << " reinstatement trial " << t;
  }
  ASSERT_EQ(a.portfolio_occurrence_ylt.trials(), b.portfolio_occurrence_ylt.trials())
      << what;
  for (TrialId t = 0; t < a.portfolio_occurrence_ylt.trials(); ++t) {
    ASSERT_EQ(a.portfolio_occurrence_ylt[t], b.portfolio_occurrence_ylt[t])
        << what << " OEP trial " << t;
  }
  ASSERT_EQ(a.contract_ylts.size(), b.contract_ylts.size()) << what;
  for (std::size_t c = 0; c < a.contract_ylts.size(); ++c) {
    for (TrialId t = 0; t < a.contract_ylts[c].trials(); ++t) {
      ASSERT_EQ(a.contract_ylts[c][t], b.contract_ylts[c][t])
          << what << " contract " << c << " trial " << t;
    }
  }
}

TEST(PortfolioBatch, BitIdenticalAcrossBackendsGrainsAndSecondary) {
  const auto portfolio = book(/*contracts=*/6, /*layers=*/3);
  const auto yelt = lens(1'500);

  for (const bool secondary : {false, true}) {
    for (const ExecRow& row : exec_rows()) {
      for (const std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{97}}) {
        if (row.backend != Backend::Threaded && grain != 0) {
          continue;  // grain only affects the chunk-partitioned backend
        }
        EngineConfig config;
        config.backend = row.backend;
        config.kernel = row.kernel;
        config.secondary_uncertainty = secondary;
        config.trial_grain = grain;

        config.batch_contracts = false;
        const auto per_contract = run_aggregate_analysis(portfolio, yelt, config);
        config.batch_contracts = true;
        const auto batched = run_aggregate_analysis(portfolio, yelt, config);

        expect_identical(per_contract, batched,
                         row_name(row) + (secondary ? "/secondary" : "/means") + "/grain=" +
                             std::to_string(grain));
        EXPECT_EQ(per_contract.elt_lookups, batched.elt_lookups);
        EXPECT_EQ(per_contract.occurrences_processed, batched.occurrences_processed);
      }
    }
  }
}

TEST(PortfolioBatch, DeviceSimBatchedMatchesPerContract) {
  // With the device modeled (device_info), the compact plan still serves
  // every contract bit-identically through both entry points, and either
  // gather models one launch for the whole book: one plan per run.
  const auto portfolio = book(/*contracts=*/4, /*layers=*/2);
  const auto yelt = lens(800);

  EngineConfig config;
  DeviceRunInfo loop_info;
  config.device_info = &loop_info;
  config.batch_contracts = false;
  const auto per_contract = run_aggregate_analysis(portfolio, yelt, config);

  // Through both entry points: the engine route and the runner route.
  DeviceRunInfo batched_info;
  config.device_info = &batched_info;
  config.batch_contracts = true;
  const auto via_engine = run_aggregate_analysis(portfolio, yelt, config);
  const auto via_runner = run_portfolio_batch(portfolio, yelt, config);
  expect_identical(per_contract, via_engine, "device model via engine");
  expect_identical(per_contract, via_runner, "device model via runner");
  EXPECT_EQ(via_engine.elt_lookups, per_contract.elt_lookups);
  EXPECT_EQ(loop_info.launches, 1);
  EXPECT_EQ(batched_info.launches, 2);  // one per compact run
}

TEST(PortfolioBatch, DeviceSimBlockDimSweepIsBitIdentical) {
  // The modeled block partition (32/128/512-trial blocks) is pure
  // accounting: it must not move a bit of the batched plan's outputs.
  const auto portfolio = book(/*contracts=*/5, /*layers=*/2);
  const auto yelt = lens(1'100);

  EngineConfig config;
  config.backend = Backend::Sequential;
  config.batch_contracts = true;
  const auto reference = run_portfolio_batch(portfolio, yelt, config);

  for (const int block_dim : {32, 128, 512}) {
    DeviceRunInfo info;
    config.device_info = &info;
    config.device_block_dim = block_dim;
    const auto device = run_portfolio_batch(portfolio, yelt, config);
    expect_identical(reference, device,
                     "device block dim " + std::to_string(block_dim));
  }
}

TEST(PortfolioBatch, DegenerateSingleContractBatch) {
  const auto portfolio = book(/*contracts=*/1, /*layers=*/2);
  const auto yelt = lens(1'000);

  for (const ExecRow& row : exec_rows()) {
    EngineConfig config;
    config.backend = row.backend;
    config.kernel = row.kernel;
    config.batch_contracts = false;
    const auto per_contract = run_aggregate_analysis(portfolio, yelt, config);
    const auto batched = run_portfolio_batch(portfolio, yelt, config);
    expect_identical(per_contract, batched, "1-contract/" + row_name(row));
  }
}

TEST(PortfolioBatch, DisjointEltEventSets) {
  // Contracts whose ELTs partition the catalogue: no event is shared, and
  // one contract's ELT misses the YELT entirely (zero hits end to end).
  const EventId catalog = 600;
  std::vector<data::EltRow> lo_rows, hi_rows, outside_rows;
  for (EventId e = 0; e < 200; ++e) {
    lo_rows.push_back({e, 1e6 + e, 2e5, 4e6});
  }
  for (EventId e = 300; e < 500; ++e) {
    hi_rows.push_back({e, 2e6 + e, 3e5, 8e6});
  }
  for (EventId e = catalog + 50; e < catalog + 80; ++e) {
    outside_rows.push_back({e, 5e6, 1e6, 9e6});  // never occurs in the YELT
  }

  finance::Layer layer;
  layer.id = 1;
  layer.terms = finance::LayerTerms::typical();
  finance::Portfolio portfolio;
  portfolio.add(finance::Contract(1, data::EventLossTable::from_rows(lo_rows), {layer}));
  portfolio.add(finance::Contract(2, data::EventLossTable::from_rows(hi_rows), {layer}));
  portfolio.add(
      finance::Contract(3, data::EventLossTable::from_rows(outside_rows), {layer}));

  const auto yelt = lens(1'200, catalog);

  for (const bool secondary : {false, true}) {
    EngineConfig config;
    config.backend = Backend::Threaded;
    config.secondary_uncertainty = secondary;
    config.batch_contracts = false;
    const auto per_contract = run_aggregate_analysis(portfolio, yelt, config);
    const auto batched = run_portfolio_batch(portfolio, yelt, config);
    expect_identical(per_contract, batched,
                     secondary ? "disjoint/secondary" : "disjoint/means");
    // The out-of-catalogue contract contributes nothing on either path.
    for (TrialId t = 0; t < yelt.trials(); ++t) {
      ASSERT_EQ(batched.contract_ylts[2][t], 0.0);
    }
  }
}

TEST(PortfolioBatch, RejectionHeavySecondaryBitIdenticalAcrossBackends) {
  // A book whose ELT rows have CV >= 2 pushes both beta shape parameters
  // below 1: the batched sampler's first-attempt fast path rejects often,
  // so this matrix runs the scalar rejection-tail fallback hard. Degenerate
  // and pinned rows ride along to mix zero-draw lanes into the same
  // batches. Hit counts around the vector width keep lane tails in play.
  const EventId catalog = 90;
  std::vector<data::EltRow> heavy_rows;
  for (EventId e = 0; e < catalog; ++e) {
    const Money exposure = 4e6;
    if (e % 11 == 0) {
      heavy_rows.push_back({e, 0.0, 1e5, exposure});  // degenerate: zero mean
    } else if (e % 11 == 1) {
      heavy_rows.push_back({e, exposure, 1e5, exposure});  // pinned at limit
    } else {
      // mean_ratio 0.025–0.1 with sigma = 2–2.5x mean: alpha < 1 rows.
      const Money mean = 1e5 + 3e4 * static_cast<Money>(e % 10);
      heavy_rows.push_back({e, mean, 2.2 * mean, exposure});
    }
  }
  finance::Layer layer;
  layer.id = 1;
  layer.terms = finance::LayerTerms::typical();
  layer.terms.occ_retention = 5e4;
  layer.terms.occ_limit = 3e6;
  finance::Portfolio portfolio;
  portfolio.add(
      finance::Contract(1, data::EventLossTable::from_rows(heavy_rows), {layer}));
  portfolio.add(finance::Contract(
      2,
      data::EventLossTable::from_rows(
          std::vector<data::EltRow>(heavy_rows.begin(), heavy_rows.begin() + 45)),
      {layer}));

  const auto yelt = lens(700, catalog, /*seed=*/19);

  EngineConfig config;
  config.secondary_uncertainty = true;
  config.backend = Backend::Sequential;
  config.kernel = Kernel::Scalar;
  config.batch_contracts = false;
  const auto reference = run_aggregate_analysis(portfolio, yelt, config);

  for (const ExecRow& row : exec_rows()) {
    config.backend = row.backend;
    config.kernel = row.kernel;
    for (const bool batched : {false, true}) {
      config.batch_contracts = batched;
      const auto result = run_aggregate_analysis(portfolio, yelt, config);
      expect_identical(reference, result,
                       "rejection-heavy/" + row_name(row) +
                           (batched ? "/batched" : "/per-contract"));
    }
  }
}

TEST(PortfolioBatch, TrialBaseAndLeanOutputsMatch) {
  const auto portfolio = book(/*contracts=*/3, /*layers=*/2);
  const auto yelt = lens(700);

  EngineConfig config;
  config.backend = Backend::Threaded;
  config.trial_base = 12'345;  // a dist block's regime
  config.compute_oep = false;
  config.keep_contract_ylts = false;

  config.batch_contracts = false;
  const auto per_contract = run_aggregate_analysis(portfolio, yelt, config);
  const auto batched = run_portfolio_batch(portfolio, yelt, config);

  ASSERT_TRUE(batched.contract_ylts.empty());
  ASSERT_EQ(batched.portfolio_occurrence_ylt.trials(), 0);
  for (TrialId t = 0; t < yelt.trials(); ++t) {
    ASSERT_EQ(per_contract.portfolio_ylt[t], batched.portfolio_ylt[t]) << t;
    ASSERT_EQ(per_contract.reinstatement_premium[t], batched.reinstatement_premium[t])
        << t;
  }
}

TEST(PortfolioBatch, SharedResolverCacheIsReused) {
  const auto portfolio = book(/*contracts=*/4, /*layers=*/2);
  const auto yelt = lens(600);
  data::ResolverCache cache;

  EngineConfig config;
  config.backend = Backend::Threaded;
  config.resolver_cache = &cache;

  const auto first = run_portfolio_batch(portfolio, yelt, config);
  EXPECT_EQ(cache.miss_count(), portfolio.size());
  EXPECT_EQ(cache.hit_count(), 0u);

  const auto second = run_portfolio_batch(portfolio, yelt, config);
  EXPECT_EQ(cache.miss_count(), portfolio.size());
  EXPECT_EQ(cache.hit_count(), portfolio.size());
  expect_identical(first, second, "second batched run from cache");
}

}  // namespace
}  // namespace riskan::core

namespace riskan::data {
namespace {

TEST(CompactResolvedYelt, MatchesFullResolutionHitForHit) {
  // The compact columns list exactly the occurrences a full per-occurrence
  // resolution (EventLossTable::find) hits, in occurrence order — through
  // the table's event→row lookup, and by binary search on the same book
  // with its ids spread too far apart to carry one.
  YeltGenConfig yg;
  yg.trials = 400;
  const auto yelt = generate_yelt(300, yg);
  finance::PortfolioGenConfig pg;
  pg.contracts = 1;
  pg.catalog_events = 300;
  pg.elt_rows = 80;
  const auto portfolio = finance::generate_portfolio(pg);
  const auto sparse = oracle::spread_event_ids(portfolio, yelt);
  ASSERT_FALSE(portfolio.contract(0).elt().row_lookup().empty());
  ASSERT_TRUE(sparse.portfolio.contract(0).elt().row_lookup().empty());

  CompactResolvedYelt compacts[2];
  for (int variant = 0; variant < 2; ++variant) {
    const auto& elt = (variant == 0 ? portfolio : sparse.portfolio).contract(0).elt();
    const auto& lens = variant == 0 ? yelt : sparse.yelt;
    compacts[variant] = CompactResolvedYelt::build(elt, lens);
    const auto& compact = compacts[variant];
    ASSERT_EQ(compact.trials(), lens.trials());
    const auto offsets = lens.offsets();
    const auto events = lens.events();
    std::uint64_t k = 0;
    for (TrialId t = 0; t < lens.trials(); ++t) {
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
    EXPECT_GT(k, 0u);
  }
  // Spreading the ids moves no hit.
  EXPECT_TRUE(std::ranges::equal(compacts[0].trial_offsets(), compacts[1].trial_offsets()));
  EXPECT_TRUE(std::ranges::equal(compacts[0].seqs(), compacts[1].seqs()));
  EXPECT_TRUE(std::ranges::equal(compacts[0].rows(), compacts[1].rows()));
}

TEST(CompactResolvedYelt, ParallelBuildMatchesInlineBuild) {
  // Slabs of every size fill their own CSR ranges; a table without an
  // event→row lookup builds the same way.
  YeltGenConfig yg;
  yg.trials = 2'000;
  const auto yelt = generate_yelt(500, yg);
  finance::PortfolioGenConfig pg;
  pg.contracts = 1;
  pg.catalog_events = 500;
  pg.elt_rows = 120;
  const auto portfolio = finance::generate_portfolio(pg);
  const auto sparse = oracle::spread_event_ids(portfolio, yelt);
  ASSERT_TRUE(sparse.portfolio.contract(0).elt().row_lookup().empty());

  for (int variant = 0; variant < 2; ++variant) {
    const auto& elt = (variant == 0 ? portfolio : sparse.portfolio).contract(0).elt();
    const auto& lens = variant == 0 ? yelt : sparse.yelt;
    const auto inline_build = CompactResolvedYelt::build(
        elt, lens, ParallelConfig{nullptr, std::numeric_limits<std::size_t>::max()});
    for (const std::size_t grain : {std::size_t{1}, std::size_t{16}, std::size_t{0}}) {
      const auto parallel = CompactResolvedYelt::build(elt, lens, ParallelConfig{nullptr, grain});
      ASSERT_EQ(parallel.hits(), inline_build.hits());
      ASSERT_TRUE(std::ranges::equal(parallel.seqs(), inline_build.seqs())) << grain;
      ASSERT_TRUE(std::ranges::equal(parallel.rows(), inline_build.rows())) << grain;
      ASSERT_TRUE(std::ranges::equal(parallel.trial_offsets(), inline_build.trial_offsets()))
          << grain;
    }
  }
}

TEST(MultiResolution, OneEntryPerContractThroughTheCache) {
  finance::PortfolioGenConfig pg;
  pg.contracts = 3;
  pg.catalog_events = 300;
  pg.elt_rows = 60;
  const auto portfolio = finance::generate_portfolio(pg);
  YeltGenConfig yg;
  yg.trials = 500;
  const auto yelt = generate_yelt(300, yg);

  ResolverCache cache;
  std::vector<const EventLossTable*> elts;
  for (const auto& contract : portfolio.contracts()) {
    elts.push_back(&contract.elt());
  }
  const auto set = MultiResolution::build(elts, yelt, &cache);
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(cache.miss_count(), 3u);
  for (std::size_t c = 0; c < set.size(); ++c) {
    EXPECT_GT(set.entry(c).hits(), 0u);
  }

  // A second set over the same tables shares the cached resolutions.
  const auto again = MultiResolution::build(elts, yelt, &cache);
  EXPECT_EQ(cache.miss_count(), 3u);
  EXPECT_EQ(cache.hit_count(), 3u);
  for (std::size_t c = 0; c < set.size(); ++c) {
    EXPECT_EQ(&again.entry(c), &set.entry(c));
  }
}

}  // namespace
}  // namespace riskan::data
