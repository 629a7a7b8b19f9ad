// Failure-injection and robustness: truncated/corrupted files must throw
// (never crash or return garbage) — ContractViolation when a header is cut
// short, the typed CorruptChunkError when a count exceeds the bytes that
// follow it — and the clustered frequency model must honour its moments.
#include <gtest/gtest.h>

#include "core/aggregate_engine.hpp"
#include "core/portfolio_batch.hpp"
#include "data/chunked_file.hpp"
#include "data/serialize.hpp"
#include "dist/coordinator.hpp"
#include "finance/contract.hpp"
#include "scenario/sweep.hpp"
#include "util/bytes.hpp"
#include "util/io_error.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"

namespace riskan::data {
namespace {

template <typename Table>
std::vector<std::byte> encoded(const Table& table) {
  ByteWriter writer;
  encode(table, writer);
  return writer.buffer();
}

TEST(Robustness, TruncatedEltThrowsAtEveryLength) {
  const auto elt = EventLossTable::from_rows({
      {1, 10.0, 1.0, 50.0},
      {2, 20.0, 2.0, 80.0},
      {7, 30.0, 3.0, 90.0},
  });
  const auto bytes = encoded(elt);
  // Every strict prefix must fail loudly: inside the 16-byte header and row
  // count the reader runs out; past it the row count exceeds the payload.
  for (std::size_t len = 0; len < bytes.size(); len += 3) {
    ByteReader reader(std::span<const std::byte>(bytes).subspan(0, len));
    if (len < 16) {
      EXPECT_THROW((void)decode_elt(reader), ContractViolation) << "length " << len;
    } else {
      EXPECT_THROW((void)decode_elt(reader), CorruptChunkError) << "length " << len;
    }
  }
  // The full buffer still decodes.
  ByteReader reader(bytes);
  EXPECT_EQ(decode_elt(reader).size(), 3u);
}

TEST(Robustness, TruncatedYeltThrows) {
  YeltGenConfig config;
  config.trials = 40;
  const auto yelt = generate_yelt(50, config);
  const auto bytes = encoded(yelt);
  // Cut inside the 24-byte header the reader runs out; cut later, the
  // entry count exceeds the payload.
  for (const std::size_t len : {std::size_t{0}, std::size_t{4}, std::size_t{17}}) {
    ByteReader reader(std::span<const std::byte>(bytes).subspan(0, len));
    EXPECT_THROW((void)decode_yelt(reader), ContractViolation) << "length " << len;
  }
  for (const std::size_t len : {bytes.size() / 2, bytes.size() - 1}) {
    ByteReader reader(std::span<const std::byte>(bytes).subspan(0, len));
    EXPECT_THROW((void)decode_yelt(reader), CorruptChunkError) << "length " << len;
  }
}

TEST(Robustness, BitFlippedMagicRejected) {
  YearLossTable ylt(5, "x");
  auto bytes = encoded(ylt);
  bytes[0] ^= std::byte{0x01};
  ByteReader reader(bytes);
  EXPECT_THROW((void)decode_ylt(reader), ContractViolation);
}

TEST(Robustness, ChunkedFileTruncationDetected) {
  const std::string path = "/tmp/riskan_robust_chunks.bin";
  {
    ChunkedFileWriter writer(path);
    ByteWriter chunk;
    chunk.str("payload payload payload");
    writer.append(chunk.buffer());
    writer.finish();
  }
  const auto bytes = read_file(path);
  // Cut the directory out while keeping the 12-byte footer intact: the
  // directory offset now points past the end — the typed
  // TruncatedFileError, not a programmer contract.
  std::vector<std::byte> shrunk(bytes.begin(), bytes.begin() + 16);
  shrunk.insert(shrunk.end(), bytes.end() - 12, bytes.end());
  write_file(path, shrunk);
  EXPECT_THROW(ChunkedFileReader{path}, TruncatedFileError);
  // Chopping the tail destroys the footer itself — indistinguishable from
  // a non-chunked file, but still a typed IoError, never silent garbage.
  std::vector<std::byte> chopped(bytes.begin(), bytes.end() - 6);
  write_file(path, chopped);
  EXPECT_THROW(ChunkedFileReader{path}, IoError);
  remove_file(path);
}

TEST(Robustness, ChunkedFileBodyCorruptionDetected) {
  const std::string path = "/tmp/riskan_robust_chunks2.bin";
  {
    ChunkedFileWriter writer(path);
    ByteWriter chunk;
    chunk.u64(42);
    writer.append(chunk.buffer());
    writer.finish();
  }
  auto bytes = read_file(path);
  // Grow the directory's size entry beyond the body.
  // Directory layout: [body][u64 count][u64 size][u32 crc][magic u32][u64 offset].
  const std::size_t size_pos = bytes.size() - 12 - 12;
  bytes[size_pos] = std::byte{0xFF};
  write_file(path, bytes);
  EXPECT_THROW(ChunkedFileReader{path}, CorruptChunkError);
  remove_file(path);
}

// ---------------------------------------------------------------------------
// Clustered (negative binomial) frequency
// ---------------------------------------------------------------------------

TEST(ClusteredFrequency, OverdispersionRaisesVariance) {
  YeltGenConfig poisson;
  poisson.trials = 20'000;
  poisson.mean_events_per_year = 8.0;
  poisson.seed = 21;
  YeltGenConfig clustered = poisson;
  clustered.dispersion = 0.5;

  auto count_stats = [](const YearEventLossTable& yelt) {
    OnlineStats stats;
    for (TrialId t = 0; t < yelt.trials(); ++t) {
      stats.add(static_cast<double>(yelt.trial_size(t)));
    }
    return stats;
  };

  const auto a = count_stats(generate_yelt(100, poisson));
  const auto b = count_stats(generate_yelt(100, clustered));

  // Both preserve the mean...
  EXPECT_NEAR(a.mean(), 8.0, 0.2);
  EXPECT_NEAR(b.mean(), 8.0, 0.3);
  // ...Poisson has variance ~= mean; NB has variance = mean(1 + d*mean).
  EXPECT_NEAR(a.variance() / a.mean(), 1.0, 0.1);
  const double expected_ratio = 1.0 + 0.5 * 8.0;
  EXPECT_NEAR(b.variance() / b.mean(), expected_ratio, 0.2 * expected_ratio);
}

TEST(ClusteredFrequency, ZeroDispersionIsPoissonPathIdentical) {
  YeltGenConfig a;
  a.trials = 200;
  a.seed = 3;
  YeltGenConfig b = a;
  b.dispersion = 0.0;
  const auto ya = generate_yelt(50, a);
  const auto yb = generate_yelt(50, b);
  ASSERT_EQ(ya.entries(), yb.entries());
  for (std::size_t i = 0; i < ya.entries(); ++i) {
    ASSERT_EQ(ya.events()[i], yb.events()[i]);
  }
}

TEST(ClusteredFrequency, NegativeDispersionRejected) {
  YeltGenConfig config;
  config.dispersion = -0.1;
  EXPECT_THROW((void)generate_yelt(10, config), ContractViolation);
}

}  // namespace
}  // namespace riskan::data

// EngineConfig cross-field validation: every engine entry point rejects
// nonsensical knobs up front with a ContractViolation instead of
// misbehaving (or silently "working") downstream.
namespace riskan::core {
namespace {

struct ValidationWorld {
  finance::Portfolio portfolio;
  data::YearEventLossTable yelt;
};

ValidationWorld validation_world() {
  finance::PortfolioGenConfig pg;
  pg.contracts = 2;
  pg.catalog_events = 100;
  pg.elt_rows = 30;
  data::YeltGenConfig yg;
  yg.trials = 50;
  return ValidationWorld{finance::generate_portfolio(pg), data::generate_yelt(100, yg)};
}

TEST(EngineConfigValidation, RejectsNonPositiveDeviceBlockDim) {
  const auto w = validation_world();
  EngineConfig config;
  DeviceRunInfo info;
  config.device_info = &info;
  config.device_block_dim = 0;
  EXPECT_THROW((void)run_aggregate_analysis(w.portfolio, w.yelt, config),
               ContractViolation);
  config.device_block_dim = -128;
  EXPECT_THROW((void)run_aggregate_analysis(w.portfolio, w.yelt, config),
               ContractViolation);
}

TEST(EngineConfigValidation, RejectsAbsurdChunkingKnobs) {
  const auto w = validation_world();
  EngineConfig config;
  config.trial_grain = std::size_t{1} << 40;
  EXPECT_THROW((void)run_aggregate_analysis(w.portfolio, w.yelt, config),
               ContractViolation);

  config = EngineConfig{};
  DeviceRunInfo info;
  config.device_info = &info;
  config.device_block_dim = 1 << 24;  // 16M trials per block is a bug
  EXPECT_THROW((void)run_aggregate_analysis(w.portfolio, w.yelt, config),
               ContractViolation);

  config = EngineConfig{};
  config.device_elt_chunk_rows = std::size_t{1} << 40;
  EXPECT_THROW((void)run_aggregate_analysis(w.portfolio, w.yelt, config),
               ContractViolation);
}

TEST(EngineConfigValidation, RejectsDegenerateDeviceSpec) {
  const auto w = validation_world();
  DeviceRunInfo info;
  EngineConfig config;
  config.device_info = &info;
  config.device_spec.const_mem_bytes = 0;
  EXPECT_THROW((void)run_aggregate_analysis(w.portfolio, w.yelt, config),
               ContractViolation);
  config = EngineConfig{};
  config.device_info = &info;
  config.device_spec.shared_mem_per_block = 0;
  EXPECT_THROW((void)run_aggregate_analysis(w.portfolio, w.yelt, config),
               ContractViolation);
  // The same spec is legal when the device is not modeled.
  config.device_info = nullptr;
  EXPECT_NO_THROW((void)run_aggregate_analysis(w.portfolio, w.yelt, config));
}

TEST(EngineConfigValidation, EveryEntryPointValidates) {
  const auto w = validation_world();
  EngineConfig config;
  config.device_block_dim = 0;  // invalid whether or not the device is modeled

  EXPECT_THROW((void)run_aggregate_analysis(w.portfolio, w.yelt, config),
               ContractViolation);
  EXPECT_THROW((void)run_portfolio_batch(w.portfolio, w.yelt, config),
               ContractViolation);
  const std::vector<scenario::ScenarioSpec> specs;
  EXPECT_THROW((void)scenario::run_scenario_sweep(
                   w.portfolio, w.yelt,
                   std::span<const scenario::ScenarioSpec>(specs), config),
               ContractViolation);
  EXPECT_THROW((void)run_layer(w.portfolio.contract(0),
                               w.portfolio.contract(0).layers()[0], w.yelt, config),
               ContractViolation);
}

}  // namespace
}  // namespace riskan::core

// DistConfig cross-field validation: the distribution runtime rejects
// nonsensical scheduling knobs before a single process forks, mirroring
// validate_engine_config.
namespace riskan::dist {
namespace {

TEST(DistConfigValidation, DefaultsAreValid) {
  EXPECT_NO_THROW(validate_dist_config(DistConfig{}));
}

TEST(DistConfigValidation, RejectsAbsurdWorkerCount) {
  DistConfig config;
  config.workers = 257;
  EXPECT_THROW(validate_dist_config(config), ContractViolation);
}

TEST(DistConfigValidation, RejectsBadLease) {
  DistConfig config;
  config.lease_seconds = 0.0;
  EXPECT_THROW(validate_dist_config(config), ContractViolation);
  config.lease_seconds = -1.0;
  EXPECT_THROW(validate_dist_config(config), ContractViolation);
  config.lease_seconds = 7200.0;
  EXPECT_THROW(validate_dist_config(config), ContractViolation);
}

TEST(DistConfigValidation, RejectsBadAttemptBudget) {
  DistConfig config;
  config.max_attempts = 0;
  EXPECT_THROW(validate_dist_config(config), ContractViolation);
  config.max_attempts = 1001;
  EXPECT_THROW(validate_dist_config(config), ContractViolation);
}

TEST(DistConfigValidation, RejectsInvertedBackoffBounds) {
  DistConfig config;
  config.backoff_initial_seconds = 2.0;
  config.backoff_max_seconds = 1.0;
  EXPECT_THROW(validate_dist_config(config), ContractViolation);
  config.backoff_initial_seconds = -0.5;
  config.backoff_max_seconds = 1.0;
  EXPECT_THROW(validate_dist_config(config), ContractViolation);
  config = DistConfig{};
  config.backoff_max_seconds = 7200.0;
  EXPECT_THROW(validate_dist_config(config), ContractViolation);
}

TEST(DistConfigValidation, RejectsAbsurdRespawnBudgetAndStall) {
  DistConfig config;
  config.max_respawns = 5000;
  EXPECT_THROW(validate_dist_config(config), ContractViolation);
  config = DistConfig{};
  config.faults.stall_seconds = -0.1;
  EXPECT_THROW(validate_dist_config(config), ContractViolation);
}

TEST(DistConfigValidation, EntryPointValidatesUpFront) {
  // The coordinator validates before forking anything: a bad config is a
  // ContractViolation even with no blocks and a null-ish fetcher.
  finance::PortfolioGenConfig pg;
  pg.contracts = 1;
  pg.catalog_events = 20;
  pg.elt_rows = 5;
  const auto portfolio = finance::generate_portfolio(pg);
  DistConfig config;
  config.max_attempts = 0;
  core::EngineConfig engine;
  const std::vector<BlockSpec> none;
  EXPECT_THROW((void)run_distributed_aggregate(
                   portfolio, engine, none,
                   [](const BlockSpec&) { return std::vector<std::byte>{}; },
                   config),
               ContractViolation);
}

}  // namespace
}  // namespace riskan::dist
