// The aggregate-analysis engine: hand-computed oracles, backend
// equivalence (the consistent-lens guarantee), chunking invariance, and
// secondary-uncertainty statistics.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>

#include "core/aggregate_engine.hpp"
#include "core/secondary.hpp"
#include "core/streaming.hpp"
#include "data/resolved_yelt.hpp"
#include "data/serialize.hpp"
#include "data/trial_source.hpp"
#include "obs/obs.hpp"
#include "oracle.hpp"
#include "scenario/sweep.hpp"
#include "util/bytes.hpp"
#include "util/require.hpp"

namespace riskan::core {
namespace {

/// One contract, one layer, deterministic ELT; YELT small enough to check
/// by hand.
finance::Portfolio oracle_portfolio() {
  auto elt = data::EventLossTable::from_rows({
      {1, 100.0, 0.0, 100.0},  // sigma 0: secondary sampling is degenerate
      {2, 250.0, 0.0, 250.0},
      {3, 50.0, 0.0, 50.0},
  });
  finance::Layer layer;
  layer.id = 0;
  layer.terms.occ_retention = 60.0;
  layer.terms.occ_limit = 150.0;
  layer.terms.agg_retention = 0.0;
  layer.terms.agg_limit = 200.0;
  layer.terms.share = 0.5;
  finance::Portfolio portfolio;
  portfolio.add(finance::Contract(0, std::move(elt), {layer}));
  return portfolio;
}

data::YearEventLossTable oracle_yelt() {
  data::YearEventLossTable::Builder builder;
  builder.begin_trial();  // trial 0: events 1, 2
  builder.add(1, 10);
  builder.add(2, 20);
  builder.begin_trial();  // trial 1: event 3 (below retention), event 99 (no loss)
  builder.add(3, 5);
  builder.add(99, 6);
  builder.begin_trial();  // trial 2: empty
  builder.begin_trial();  // trial 3: event 2 twice (aggregate cap bites)
  builder.add(2, 1);
  builder.add(2, 2);
  return builder.finish();
}

TEST(Engine, HandComputedOracle) {
  EngineConfig config;
  config.backend = Backend::Sequential;
  config.secondary_uncertainty = false;
  const auto result = run_aggregate_analysis(oracle_portfolio(), oracle_yelt(), config);

  // Trial 0: occ(100)=40, occ(250)=150 -> annual 190 -> agg 190 -> x0.5 = 95.
  EXPECT_DOUBLE_EQ(result.portfolio_ylt[0], 95.0);
  // Trial 1: occ(50)=0 (below retention), event 99 not in ELT -> 0.
  EXPECT_DOUBLE_EQ(result.portfolio_ylt[1], 0.0);
  // Trial 2: empty year -> 0.
  EXPECT_DOUBLE_EQ(result.portfolio_ylt[2], 0.0);
  // Trial 3: 150 + 150 = 300 -> agg cap 200 -> x0.5 = 100.
  EXPECT_DOUBLE_EQ(result.portfolio_ylt[3], 100.0);

  // Occurrence (OEP) view: per-trial max net occurrence loss.
  EXPECT_DOUBLE_EQ(result.portfolio_occurrence_ylt[0], 75.0);  // max(40,150)*0.5
  EXPECT_DOUBLE_EQ(result.portfolio_occurrence_ylt[3], 75.0);
  EXPECT_DOUBLE_EQ(result.portfolio_occurrence_ylt[1], 0.0);

  // Telemetry.
  EXPECT_EQ(result.occurrences_processed, 6u);
  EXPECT_EQ(result.elt_lookups, 5u);  // event 99 misses
  ASSERT_EQ(result.contract_ylts.size(), 1u);
  EXPECT_DOUBLE_EQ(result.contract_ylts[0][0], 95.0);
}

TEST(Engine, OepNeverExceedsAep) {
  finance::PortfolioGenConfig pg;
  pg.contracts = 10;
  pg.catalog_events = 500;
  pg.elt_rows = 100;
  const auto portfolio = finance::generate_portfolio(pg);
  data::YeltGenConfig yg;
  yg.trials = 1'000;
  const auto yelt = data::generate_yelt(500, yg);

  EngineConfig config;
  const auto result = run_aggregate_analysis(portfolio, yelt, config);
  for (TrialId t = 0; t < yelt.trials(); ++t) {
    ASSERT_LE(result.portfolio_occurrence_ylt[t], result.portfolio_ylt[t] + 1e-9);
  }
}

class BackendEquivalence : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    finance::PortfolioGenConfig pg;
    pg.contracts = 6;
    pg.catalog_events = 300;
    pg.elt_rows = 80;
    pg.layers_per_contract = 2;
    portfolio_ = finance::generate_portfolio(pg);
    data::YeltGenConfig yg;
    yg.trials = 700;
    yg.mean_events_per_year = 9.0;
    yelt_ = data::generate_yelt(300, yg);
  }

  finance::Portfolio portfolio_;
  data::YearEventLossTable yelt_;
};

TEST_P(BackendEquivalence, AllBackendsProduceIdenticalBits) {
  const bool secondary = GetParam();
  EngineConfig config;
  config.secondary_uncertainty = secondary;
  config.seed = 909;

  config.backend = Backend::Sequential;
  const auto seq = run_aggregate_analysis(portfolio_, yelt_, config);

  config.backend = Backend::Threaded;
  config.trial_grain = 37;  // deliberately odd grain
  const auto thr = run_aggregate_analysis(portfolio_, yelt_, config);

  // The device model only reads the plans it is handed.
  DeviceRunInfo info;
  config.device_info = &info;
  config.device_block_dim = 64;
  const auto dev = run_aggregate_analysis(portfolio_, yelt_, config);

  for (TrialId t = 0; t < yelt_.trials(); ++t) {
    ASSERT_EQ(seq.portfolio_ylt[t], thr.portfolio_ylt[t]) << "trial " << t;
    ASSERT_EQ(seq.portfolio_ylt[t], dev.portfolio_ylt[t]) << "trial " << t;
    ASSERT_EQ(seq.portfolio_occurrence_ylt[t], dev.portfolio_occurrence_ylt[t]);
    ASSERT_EQ(seq.reinstatement_premium[t], dev.reinstatement_premium[t]);
  }
  for (std::size_t c = 0; c < portfolio_.size(); ++c) {
    for (TrialId t = 0; t < yelt_.trials(); ++t) {
      ASSERT_EQ(seq.contract_ylts[c][t], thr.contract_ylts[c][t]);
      ASSERT_EQ(seq.contract_ylts[c][t], dev.contract_ylts[c][t]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SecondaryOnOff, BackendEquivalence, ::testing::Bool());

TEST_F(BackendEquivalence, GrainDoesNotChangeResults) {
  EngineConfig config;
  config.backend = Backend::Threaded;
  config.trial_grain = 1;
  const auto fine = run_aggregate_analysis(portfolio_, yelt_, config);
  config.trial_grain = 512;
  const auto coarse = run_aggregate_analysis(portfolio_, yelt_, config);
  for (TrialId t = 0; t < yelt_.trials(); ++t) {
    ASSERT_EQ(fine.portfolio_ylt[t], coarse.portfolio_ylt[t]);
  }
}

TEST_F(BackendEquivalence, DeviceEltChunkingIsExact) {
  EngineConfig config;
  config.backend = Backend::Sequential;
  const auto seq = run_aggregate_analysis(portfolio_, yelt_, config);

  // Model many tiny constant-memory chunks: results must not move a bit.
  DeviceRunInfo info;
  config.device_info = &info;
  config.device_elt_chunk_rows = 7;
  const auto dev = run_aggregate_analysis(portfolio_, yelt_, config);
  for (TrialId t = 0; t < yelt_.trials(); ++t) {
    ASSERT_EQ(seq.portfolio_ylt[t], dev.portfolio_ylt[t]);
  }
}

TEST_F(BackendEquivalence, DeviceBlockDimIsExact) {
  EngineConfig config;
  DeviceRunInfo info;
  config.device_info = &info;
  config.device_block_dim = 16;
  const auto a = run_aggregate_analysis(portfolio_, yelt_, config);
  config.device_block_dim = 256;
  const auto b = run_aggregate_analysis(portfolio_, yelt_, config);
  for (TrialId t = 0; t < yelt_.trials(); ++t) {
    ASSERT_EQ(a.portfolio_ylt[t], b.portfolio_ylt[t]);
  }
}

TEST_F(BackendEquivalence, TrialBasePartitioningIsExact) {
  // Split the YELT in two, run halves with trial_base, and compare to the
  // monolithic run — the property every dist block relies on.
  EngineConfig config;
  config.backend = Backend::Sequential;
  config.compute_oep = false;
  config.keep_contract_ylts = false;
  const auto whole = run_aggregate_analysis(portfolio_, yelt_, config);

  const TrialId split = yelt_.trials() / 2;
  data::YearEventLossTable::Builder first(split);
  data::YearEventLossTable::Builder second(yelt_.trials() - split);
  for (TrialId t = 0; t < yelt_.trials(); ++t) {
    auto& builder = t < split ? first : second;
    builder.begin_trial();
    const auto events = yelt_.trial_events(t);
    const auto days = yelt_.trial_days(t);
    for (std::size_t i = 0; i < events.size(); ++i) {
      builder.add(events[i], days[i]);
    }
  }
  const auto lo = first.finish();
  const auto hi = second.finish();

  const auto res_lo = run_aggregate_analysis(portfolio_, lo, config);
  config.trial_base = split;
  const auto res_hi = run_aggregate_analysis(portfolio_, hi, config);

  for (TrialId t = 0; t < split; ++t) {
    ASSERT_EQ(whole.portfolio_ylt[t], res_lo.portfolio_ylt[t]);
  }
  for (TrialId t = split; t < yelt_.trials(); ++t) {
    ASSERT_EQ(whole.portfolio_ylt[t], res_hi.portfolio_ylt[t - split]);
  }
}

TEST_F(BackendEquivalence, SecondaryUncertaintyPreservesMeanLoss) {
  // With secondary sampling on, the expected YLT mean should approach the
  // secondary-off mean (beta sampling is mean-preserving).
  EngineConfig off;
  off.backend = Backend::Sequential;
  off.secondary_uncertainty = false;
  const auto base = run_aggregate_analysis(portfolio_, yelt_, off);

  EngineConfig on = off;
  on.secondary_uncertainty = true;
  const auto sampled = run_aggregate_analysis(portfolio_, yelt_, on);

  // Layer terms are convex, so means need not match exactly; they must be
  // the same order of magnitude and positively correlated.
  EXPECT_GT(sampled.portfolio_ylt.mean(), 0.1 * base.portfolio_ylt.mean());
  EXPECT_LT(sampled.portfolio_ylt.mean(), 10.0 * base.portfolio_ylt.mean());
}

TEST_F(BackendEquivalence, RunsAreReproducibleAcrossCalls) {
  EngineConfig config;
  config.backend = Backend::Threaded;
  const auto a = run_aggregate_analysis(portfolio_, yelt_, config);
  const auto b = run_aggregate_analysis(portfolio_, yelt_, config);
  for (TrialId t = 0; t < yelt_.trials(); ++t) {
    ASSERT_EQ(a.portfolio_ylt[t], b.portfolio_ylt[t]);
  }
}

TEST_F(BackendEquivalence, SeedChangesSecondarySamples) {
  EngineConfig config;
  config.backend = Backend::Sequential;
  config.secondary_uncertainty = true;
  config.seed = 1;
  const auto a = run_aggregate_analysis(portfolio_, yelt_, config);
  config.seed = 2;
  const auto b = run_aggregate_analysis(portfolio_, yelt_, config);
  int differing = 0;
  for (TrialId t = 0; t < yelt_.trials(); ++t) {
    if (a.portfolio_ylt[t] != b.portfolio_ylt[t]) {
      ++differing;
    }
  }
  EXPECT_GT(differing, static_cast<int>(yelt_.trials() / 4));
}

TEST_F(BackendEquivalence, KeepContractYltsOffSavesMemoryNotResults) {
  EngineConfig config;
  config.keep_contract_ylts = false;
  const auto slim = run_aggregate_analysis(portfolio_, yelt_, config);
  EXPECT_TRUE(slim.contract_ylts.empty());
  config.keep_contract_ylts = true;
  const auto full = run_aggregate_analysis(portfolio_, yelt_, config);
  for (TrialId t = 0; t < yelt_.trials(); ++t) {
    ASSERT_EQ(slim.portfolio_ylt[t], full.portfolio_ylt[t]);
  }
}

TEST_F(BackendEquivalence, ContractYltsSumToPortfolio) {
  EngineConfig config;
  config.secondary_uncertainty = false;
  const auto result = run_aggregate_analysis(portfolio_, yelt_, config);
  for (TrialId t = 0; t < yelt_.trials(); ++t) {
    Money sum = 0.0;
    for (const auto& ylt : result.contract_ylts) {
      sum += ylt[t];
    }
    ASSERT_NEAR(sum, result.portfolio_ylt[t], 1e-6);
  }
}

TEST(Engine, RunLayerMatchesPortfolioPath) {
  const auto portfolio = oracle_portfolio();
  const auto yelt = oracle_yelt();
  EngineConfig config;
  config.secondary_uncertainty = false;
  const auto losses =
      run_layer(portfolio.contract(0), portfolio.contract(0).layers()[0], yelt, config);
  ASSERT_EQ(losses.size(), 4u);
  EXPECT_DOUBLE_EQ(losses[0], 95.0);
  EXPECT_DOUBLE_EQ(losses[3], 100.0);
}

TEST(Engine, RejectsEmptyInputs) {
  const finance::Portfolio empty;
  const auto yelt = oracle_yelt();
  EXPECT_THROW((void)run_aggregate_analysis(empty, yelt, {}), ContractViolation);
  const data::YearEventLossTable no_trials;
  EXPECT_THROW((void)run_aggregate_analysis(oracle_portfolio(), no_trials, {}),
               ContractViolation);
}

TEST(Engine, ReinstatementPremiumFlows) {
  // Oracle trial 3 consumes 200 of aggregate limit (occ limit 150,
  // reinstatements on the generated portfolios; build one explicitly here).
  auto elt = data::EventLossTable::from_rows({{2, 250.0, 0.0, 250.0}});
  finance::Layer layer;
  layer.id = 0;
  layer.terms.occ_retention = 60.0;
  layer.terms.occ_limit = 150.0;
  layer.terms.agg_limit = 300.0;
  layer.terms.share = 1.0;
  layer.reinstatements.count = 1;
  layer.reinstatements.premium_rate = 1.0;
  layer.upfront_premium = 10.0;
  finance::Portfolio portfolio;
  portfolio.add(finance::Contract(0, std::move(elt), {layer}));

  data::YearEventLossTable::Builder builder;
  builder.begin_trial();
  builder.add(2, 1);
  builder.add(2, 2);  // consumes 300 aggregate: 150 beyond the first limit
  const auto yelt = builder.finish();

  EngineConfig config;
  config.secondary_uncertainty = false;
  const auto result = run_aggregate_analysis(portfolio, yelt, config);
  EXPECT_DOUBLE_EQ(result.portfolio_ylt[0], 300.0);
  // limit consumed = 300; reinstatable portion = min(300, 1*150) = 150 ->
  // full reinstatement premium of 10.
  EXPECT_DOUBLE_EQ(result.reinstatement_premium[0], 10.0);
}

/// Five two-layer contracts over a 600-trial YELT.
oracle::Book five_contract_book() {
  finance::PortfolioGenConfig pg;
  pg.contracts = 5;
  pg.catalog_events = 400;
  pg.elt_rows = 120;
  pg.layers_per_contract = 2;
  data::YeltGenConfig yg;
  yg.trials = 600;
  yg.mean_events_per_year = 8.0;
  return {finance::generate_portfolio(pg), data::generate_yelt(400, yg)};
}

double global_counter(const std::string& name) {
  return obs::MetricsRegistry::global().snapshot().counter_value(name);
}

TEST(Engine, OnePlanPerTrialBlock) {
  // Every contract's tower rides one plan per trial block, under either
  // gather and on either backend: one execution for an in-memory run, one
  // per block of a re-blocked source.
  const auto book = five_contract_book();
  for (const Backend backend : kAllBackends) {
    const std::string executions = std::string("exec.") + to_string(backend) + ".executions";
    for (const bool compact : {false, true}) {
      data::ResolverCache cache;
      EngineConfig config;
      config.backend = backend;
      config.batch_contracts = compact;
      config.resolver_cache = &cache;
      const std::string what =
          std::string(to_string(backend)) + (compact ? "/compact" : "/lookup");

      double before = global_counter(executions);
      (void)run_aggregate_analysis(book.portfolio, book.yelt, config);
      EXPECT_EQ(global_counter(executions) - before, 1.0) << what << " in memory";

      data::InMemorySource whole(book.yelt);
      data::ReblockedSource blocks(whole, 200);
      ASSERT_EQ(blocks.block_count(), 3u);
      before = global_counter(executions);
      (void)run_aggregate_analysis(book.portfolio, blocks, config);
      EXPECT_EQ(global_counter(executions) - before, 3.0) << what << " over 3 blocks";
    }

    // A scenario sweep's runs ride the same one plan per block.
    std::vector<scenario::ScenarioSpec> specs(2);
    specs[0].name = "surge";
    specs[0].loss_scale = 1.2;
    specs[1].name = "exclusion";
    specs[1].excluded_events = {1, 2, 3};
    data::ResolverCache cache;
    EngineConfig config;
    config.backend = backend;
    config.resolver_cache = &cache;
    const std::string what = std::string(to_string(backend)) + "/sweep";
    double before = global_counter(executions);
    (void)scenario::run_scenario_sweep(book.portfolio, book.yelt, specs, config);
    EXPECT_EQ(global_counter(executions) - before, 1.0) << what << " in memory";

    data::InMemorySource whole(book.yelt);
    data::ReblockedSource blocks(whole, 200);
    before = global_counter(executions);
    (void)scenario::run_scenario_sweep(book.portfolio, blocks, specs, config);
    EXPECT_EQ(global_counter(executions) - before, 3.0) << what << " over 3 blocks";
  }
}

TEST(Engine, AdaptivePassIsOneRun) {
  // An adaptive pass is one engine run, resident or streamed, book or
  // sweep, that executes one plan per decision block it folds.
  const auto book = five_contract_book();
  adaptive::AdaptiveConfig ad;
  ad.target_rel_err = 0.5;
  ad.block_trials = 100;
  ad.min_trials = 300;
  ad.min_batches = 2;
  std::vector<scenario::ScenarioSpec> specs(2);
  specs[0].name = "surge";
  specs[0].loss_scale = 1.2;
  specs[1].name = "exclusion";
  specs[1].excluded_events = {1, 2, 3};
  for (const Backend backend : kAllBackends) {
    const std::string executions = std::string("exec.") + to_string(backend) + ".executions";
    EngineConfig config;
    config.backend = backend;
    config.adaptive = ad;
    for (const bool sweep : {false, true}) {
      for (const bool reblocked : {false, true}) {
        const std::string what = std::string(to_string(backend)) + (sweep ? "/sweep" : "/run") +
                                 (reblocked ? " over 3 blocks" : " in memory");
        data::InMemorySource whole(book.yelt);
        data::ReblockedSource blocks(whole, 200);
        ASSERT_EQ(blocks.block_count(), 3u);
        data::TrialSource& source = reblocked ? static_cast<data::TrialSource&>(blocks) : whole;
        const double runs_before = global_counter("engine.runs");
        const double executions_before = global_counter(executions);
        const double folded_before = global_counter("adaptive.blocks_folded");
        const adaptive::AdaptiveReport report =
            sweep ? scenario::run_scenario_sweep(book.portfolio, source, specs, config)
                        .base.adaptive
                  : run_aggregate_analysis(book.portfolio, source, config).adaptive;
        ASSERT_TRUE(report.enabled) << what;
        EXPECT_GE(report.blocks_folded, 3u) << what;
        const double folded = global_counter("adaptive.blocks_folded") - folded_before;
        EXPECT_EQ(folded, static_cast<double>(report.blocks_folded)) << what;
        EXPECT_EQ(global_counter("engine.runs") - runs_before, 1.0) << what;
        EXPECT_EQ(global_counter(executions) - executions_before, folded) << what;
      }
    }
  }
}

TEST(Engine, StreamedBlocksBuildNoResolution) {
  // batch_contracts caches compact resolutions of a resident YELT only. A
  // streamed block dies with the pass, so its contracts gather by lookup:
  // no resolution is built or probed, and the outputs still equal the
  // resident compact run and the definition bit for bit.
  const auto book = five_contract_book();
  data::ResolverCache cache;
  EngineConfig config;
  config.batch_contracts = true;
  config.resolver_cache = &cache;
  const auto resident = run_aggregate_analysis(book.portfolio, book.yelt, config);
  EXPECT_GT(resident.resolve_seconds, 0.0);
  const auto expected = oracle::run_oracle(book.portfolio, book.yelt, config);
  oracle::expect_equals_oracle(resident, expected, "resident compact");

  const std::string path = ::testing::TempDir() + "riskan_engine_streamed.yeltc";
  save_yelt_chunked(book.yelt, path, 250);
  ByteWriter writer;
  data::encode(book.yelt, writer);

  data::ChunkedFileSource chunked(path);
  data::InMemorySource whole(book.yelt);
  data::ReblockedSource reblocked(whole, 200);
  data::EncodedBlockSource encoded(writer.buffer());
  const std::pair<const char*, data::TrialSource*> sources[] = {
      {"chunked file", &chunked}, {"re-blocked", &reblocked}, {"encoded block", &encoded}};
  for (const auto& [name, source] : sources) {
    const double misses = global_counter("resolver.misses");
    const auto streamed = run_aggregate_analysis(book.portfolio, *source, config);
    EXPECT_EQ(streamed.resolve_seconds, 0.0) << name;
    EXPECT_EQ(global_counter("resolver.misses"), misses) << name;
    oracle::expect_equals_oracle(streamed, expected, name);
    for (TrialId t = 0; t < book.yelt.trials(); ++t) {
      ASSERT_EQ(streamed.portfolio_ylt[t], resident.portfolio_ylt[t]) << name << " " << t;
      ASSERT_EQ(streamed.portfolio_occurrence_ylt[t], resident.portfolio_occurrence_ylt[t])
          << name << " " << t;
      ASSERT_EQ(streamed.reinstatement_premium[t], resident.reinstatement_premium[t])
          << name << " " << t;
    }
  }
  remove_file(path);
}

/// Three two-layer contracts over a 2000-trial YELT whose trials 255, 256,
/// 1023 and 1536 hold more than 512 occurrences each, so crowded trials
/// sit on both sides of scalar (256) and vector (1024) kernel block edges.
oracle::Book crowded_edge_book() {
  constexpr EventId kCatalog = 300;
  finance::PortfolioGenConfig pg;
  pg.contracts = 3;
  pg.catalog_events = kCatalog;
  pg.elt_rows = 150;
  pg.layers_per_contract = 2;
  data::YeltGenConfig yg;
  yg.trials = 2000;
  yg.mean_events_per_year = 8.0;
  const auto sparse = data::generate_yelt(kCatalog, yg);
  yg.trials = 4;
  yg.seed = 7;
  yg.mean_events_per_year = 700.0;
  const auto crowded = data::generate_yelt(kCatalog, yg);
  const TrialId crowded_at[] = {255, 256, 1023, 1536};

  data::YearEventLossTable::Builder builder;
  std::size_t next_crowded = 0;
  for (TrialId t = 0; t < sparse.trials(); ++t) {
    const bool is_crowded = next_crowded < 4 && crowded_at[next_crowded] == t;
    const auto& from = is_crowded ? crowded : sparse;
    const TrialId from_trial = is_crowded ? static_cast<TrialId>(next_crowded++) : t;
    builder.begin_trial();
    const auto events = from.trial_events(from_trial);
    const auto days = from.trial_days(from_trial);
    for (std::size_t i = 0; i < events.size(); ++i) {
      builder.add(events[i], days[i]);
    }
  }
  return {finance::generate_portfolio(pg), builder.finish()};
}

TEST(Engine, OepIsExactAtBlockAndChunkEdges) {
  // The kernel finishes every run's OEP per trial block in block-local
  // scratch: 256 trials per scalar block and 1024 per vector block, cut
  // short at each chunk's end. Chunk grains on both sides of both block
  // sizes, over a YELT with crowded trials at the edges, must leave every
  // run's OEP and AEP bit-identical to the one-chunk scalar run. The mask
  // scenario drops contract 0, so under Kernel::Auto contract 0's group
  // runs the vector pass while the masked groups fall back to the scalar
  // pass inside the same block; all of them feed the base run's cells.
  const auto book = crowded_edge_book();
  ASSERT_GT(book.yelt.trial_size(255), 512u);
  const auto& contracts = book.portfolio.contracts();
  std::vector<scenario::ScenarioSpec> specs(5);
  specs[0].name = "mask";
  specs[0].excluded_events = {1, 2, 3, 5, 8, 13, 21, 34};
  specs[0].dropped_contracts = {contracts[0].id()};
  specs[1].name = "surge";
  specs[1].loss_scale = 1.25;
  specs[2].name = "post-event-a";
  specs[2].conditioning =
      scenario::PostEventConditioning{contracts[0].elt().event_ids()[3], 1.5};
  specs[3].name = "post-event-b";
  specs[3].conditioning =
      scenario::PostEventConditioning{contracts[1].elt().event_ids()[7], 0.8};
  specs[4].name = "drop";
  specs[4].dropped_contracts = {contracts[2].id()};

  const auto same_bits = [](const data::YearLossTable& a, const data::YearLossTable& b,
                            const std::string& what) {
    ASSERT_EQ(a.trials(), b.trials()) << what;
    for (TrialId t = 0; t < a.trials(); ++t) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a[t]), std::bit_cast<std::uint64_t>(b[t]))
          << what << " trial " << t;
    }
  };
  const auto runs_of = [](const scenario::ScenarioSweepResult& sweep) {
    std::vector<const EngineResult*> runs{&sweep.base};
    for (const EngineResult& run : sweep.scenarios) {
      runs.push_back(&run);
    }
    return runs;
  };

  for (const bool secondary : {false, true}) {
    data::ResolverCache cache;
    EngineConfig config;
    config.secondary_uncertainty = secondary;
    config.resolver_cache = &cache;
    config.backend = Backend::Sequential;
    config.kernel = Kernel::Scalar;
    const auto reference = scenario::run_scenario_sweep(book.portfolio, book.yelt, specs, config);
    const auto expected = oracle::run_oracle(book.portfolio, book.yelt, config);
    const std::string regime = secondary ? "secondary" : "means";
    ASSERT_EQ(expected.occurrence.size(), book.yelt.trials());
    for (TrialId t = 0; t < book.yelt.trials(); ++t) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(reference.base.portfolio_occurrence_ylt[t]),
                std::bit_cast<std::uint64_t>(expected.occurrence[t]))
          << regime << " base OEP against the oracle, trial " << t;
    }

    for (const std::size_t grain : {0, 1, 255, 256, 257, 1023, 1024, 1025}) {
      for (const Backend backend : kAllBackends) {
        for (const Kernel kernel : kAllKernels) {
          for (const bool reblocked : {false, true}) {
            config.backend = backend;
            config.kernel = kernel;
            config.trial_grain = grain;
            const std::string what = regime + "/" + to_string(backend) + "/" +
                                     to_string(kernel) + "/grain " + std::to_string(grain) +
                                     (reblocked ? "/3 blocks" : "/resident");
            data::InMemorySource whole(book.yelt);
            data::ReblockedSource blocks(whole, book.yelt.trials() / 3 + 1);
            ASSERT_EQ(blocks.block_count(), 3u);
            const auto sweep =
                reblocked ? scenario::run_scenario_sweep(book.portfolio, blocks, specs, config)
                          : scenario::run_scenario_sweep(book.portfolio, book.yelt, specs,
                                                         config);
            const auto got = runs_of(sweep);
            const auto want = runs_of(reference);
            ASSERT_EQ(got.size(), want.size()) << what;
            for (std::size_t r = 0; r < got.size(); ++r) {
              const std::string run = what + " run " + std::to_string(r);
              same_bits(got[r]->portfolio_occurrence_ylt, want[r]->portfolio_occurrence_ylt,
                        run + " OEP");
              same_bits(got[r]->portfolio_ylt, want[r]->portfolio_ylt, run + " AEP");
            }
            if (HasFailure()) {
              return;  // the first failing configuration says enough
            }
          }
        }
      }
    }
  }
}

TEST(SecondarySampler, MeanConvergesToEltMean) {
  const auto elt = data::EventLossTable::from_rows({{1, 400.0, 120.0, 1000.0}});
  const SecondarySampler sampler(elt);
  const Philox4x32 philox(7);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    auto stream = occurrence_stream(philox, 0, static_cast<TrialId>(i), 0);
    const double x = sampler.sample(0, stream);
    sum += x;
    sum_sq += x * x;
    ASSERT_GE(x, 0.0);
    ASSERT_LE(x, 1000.0);
  }
  const double mean = sum / n;
  const double stdev = std::sqrt(sum_sq / n - mean * mean);
  EXPECT_NEAR(mean, 400.0, 2.0);
  EXPECT_NEAR(stdev, 120.0, 3.0);
}

TEST(SecondarySampler, DegenerateRowsAreDeterministic) {
  const auto elt = data::EventLossTable::from_rows({
      {1, 100.0, 0.0, 100.0},   // mean == exposure -> pinned
      {2, 50.0, 0.0, 500.0},    // sigma 0 -> deterministic at mean
  });
  const SecondarySampler sampler(elt);
  const Philox4x32 philox(1);
  auto s1 = occurrence_stream(philox, 0, 0, 0);
  auto s2 = occurrence_stream(philox, 0, 1, 0);
  EXPECT_DOUBLE_EQ(sampler.sample(0, s1), 100.0);
  EXPECT_DOUBLE_EQ(sampler.sample(1, s2), 50.0);
}

TEST(Backend, NamesAreStable) {
  EXPECT_STREQ(to_string(Backend::Sequential), "sequential");
  EXPECT_STREQ(to_string(Backend::Threaded), "threaded");
}

}  // namespace
}  // namespace riskan::core
