// Streaming stage-2: bounded-memory aggregate analysis from a chunked YELT
// file, plus the franchise retention kind end to end.
#include <gtest/gtest.h>

#include "core/aggregate_engine.hpp"
#include "core/streaming.hpp"
#include "util/bytes.hpp"
#include "util/require.hpp"

namespace riskan::core {
namespace {

class StreamingFixture : public ::testing::TestWithParam<TrialId> {
 protected:
  void SetUp() override {
    finance::PortfolioGenConfig pg;
    pg.contracts = 5;
    pg.catalog_events = 200;
    pg.elt_rows = 50;
    portfolio_ = finance::generate_portfolio(pg);
    data::YeltGenConfig yg;
    yg.trials = 777;  // deliberately not a multiple of common chunk sizes
    yelt_ = data::generate_yelt(200, yg);
    path_ = "/tmp/riskan_stream_" + std::to_string(GetParam()) + ".yeltc";
  }

  void TearDown() override { remove_file(path_); }

  finance::Portfolio portfolio_;
  data::YearEventLossTable yelt_;
  std::string path_;
};

TEST_P(StreamingFixture, MatchesInMemoryBitExactly) {
  const TrialId per_chunk = GetParam();
  const auto chunks = save_yelt_chunked(yelt_, path_, per_chunk);
  EXPECT_EQ(chunks, (yelt_.trials() + per_chunk - 1) / per_chunk);

  EngineConfig config;
  config.backend = Backend::Sequential;
  config.compute_oep = false;
  config.keep_contract_ylts = false;
  const auto reference = run_aggregate_analysis(portfolio_, yelt_, config);

  const auto streamed = run_aggregate_streaming(portfolio_, path_, config);
  ASSERT_EQ(streamed.portfolio_ylt.trials(), yelt_.trials());
  for (TrialId t = 0; t < yelt_.trials(); ++t) {
    ASSERT_EQ(streamed.portfolio_ylt[t], reference.portfolio_ylt[t]) << "trial " << t;
  }
  EXPECT_EQ(streamed.blocks, chunks);
  EXPECT_GT(streamed.bytes_read, 0u);
  // Bounded memory: the peak block is far below the full file.
  if (chunks > 1) {
    EXPECT_LT(streamed.peak_block_bytes, streamed.bytes_read);
  }
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, StreamingFixture,
                         ::testing::Values(TrialId{50}, TrialId{128}, TrialId{777},
                                           TrialId{10'000}));

TEST(Streaming, ThreadedBackendInsideBlocksAgrees) {
  finance::PortfolioGenConfig pg;
  pg.contracts = 3;
  pg.catalog_events = 100;
  pg.elt_rows = 30;
  const auto portfolio = finance::generate_portfolio(pg);
  data::YeltGenConfig yg;
  yg.trials = 500;
  const auto yelt = data::generate_yelt(100, yg);
  const std::string path = "/tmp/riskan_stream_threaded.yeltc";
  save_yelt_chunked(yelt, path, 100);

  EngineConfig seq;
  seq.backend = Backend::Sequential;
  EngineConfig thr;
  thr.backend = Backend::Threaded;
  const auto a = run_aggregate_streaming(portfolio, path, seq);
  const auto b = run_aggregate_streaming(portfolio, path, thr);
  for (TrialId t = 0; t < yelt.trials(); ++t) {
    ASSERT_EQ(a.portfolio_ylt[t], b.portfolio_ylt[t]);
  }
  remove_file(path);
}

TEST(Streaming, DeviceSimBackendAgreesWithInMemory) {
  finance::PortfolioGenConfig pg;
  pg.contracts = 3;
  pg.catalog_events = 100;
  pg.elt_rows = 30;
  const auto portfolio = finance::generate_portfolio(pg);
  data::YeltGenConfig yg;
  yg.trials = 400;
  const auto yelt = data::generate_yelt(100, yg);
  const std::string path = "/tmp/riskan_stream_device.yeltc";
  save_yelt_chunked(yelt, path, 100);

  EngineConfig config;
  const auto reference = run_aggregate_analysis(portfolio, yelt, config);
  DeviceRunInfo info;
  config.device_info = &info;
  const auto streamed = run_aggregate_streaming(portfolio, path, config);
  for (TrialId t = 0; t < yelt.trials(); ++t) {
    ASSERT_EQ(streamed.portfolio_ylt[t], reference.portfolio_ylt[t]) << "trial " << t;
    ASSERT_EQ(streamed.portfolio_occurrence_ylt[t], reference.portfolio_occurrence_ylt[t]);
  }
  // The model prices each block's plans: at least one modeled launch per
  // block.
  EXPECT_GE(static_cast<std::size_t>(info.launches), streamed.blocks);
  remove_file(path);
}

TEST(Streaming, MissingFileRejected) {
  finance::PortfolioGenConfig pg;
  pg.contracts = 1;
  pg.catalog_events = 50;
  pg.elt_rows = 10;
  const auto portfolio = finance::generate_portfolio(pg);
  EXPECT_THROW((void)run_aggregate_streaming(portfolio, "/nonexistent", {}),
               ContractViolation);
}

TEST(Streaming, ContractsEnforced) {
  data::YeltGenConfig yg;
  yg.trials = 10;
  const auto yelt = data::generate_yelt(10, yg);
  EXPECT_THROW((void)save_yelt_chunked(yelt, "/tmp/x.yeltc", 0), ContractViolation);
}

// ---------------------------------------------------------------------------
// Franchise retention end to end
// ---------------------------------------------------------------------------

TEST(Franchise, EngineAppliesGroundUpPayout) {
  auto elt = data::EventLossTable::from_rows({{1, 120.0, 0.0, 120.0}});
  finance::Layer deductible;
  deductible.id = 0;
  deductible.terms.occ_retention = 100.0;
  deductible.terms.occ_limit = 500.0;
  deductible.terms.agg_limit = 1'000.0;
  finance::Layer franchise = deductible;
  franchise.terms.retention_kind = finance::RetentionKind::Franchise;

  data::YearEventLossTable::Builder builder;
  builder.begin_trial();
  builder.add(1, 0);
  const auto yelt = builder.finish();

  EngineConfig config;
  config.secondary_uncertainty = false;

  finance::Portfolio p1;
  p1.add(finance::Contract(0, elt, {deductible}));
  finance::Portfolio p2;
  p2.add(finance::Contract(0, elt, {franchise}));

  const auto a = run_aggregate_analysis(p1, yelt, config);
  const auto b = run_aggregate_analysis(p2, yelt, config);
  EXPECT_DOUBLE_EQ(a.portfolio_ylt[0], 20.0);   // 120 - 100
  EXPECT_DOUBLE_EQ(b.portfolio_ylt[0], 120.0);  // trigger cleared: ground up
}

TEST(Franchise, BelowTriggerPaysNothing) {
  finance::LayerTerms terms;
  terms.occ_retention = 100.0;
  terms.occ_limit = 500.0;
  terms.retention_kind = finance::RetentionKind::Franchise;
  EXPECT_DOUBLE_EQ(finance::apply_occurrence(terms, 99.9), 0.0);
  EXPECT_DOUBLE_EQ(finance::apply_occurrence(terms, 100.0), 0.0);  // at trigger
  EXPECT_DOUBLE_EQ(finance::apply_occurrence(terms, 100.1), 100.1);
  EXPECT_DOUBLE_EQ(finance::apply_occurrence(terms, 900.0), 500.0);  // capped
}

}  // namespace
}  // namespace riskan::core
