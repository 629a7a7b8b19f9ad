// Device-model telemetry (EngineConfig::device_info): the counters and
// the performance model that E2/E4/E10 report. The DeviceMetering tests
// pin the semantics of core/device_model so the modeled numbers in
// docs/benchmarks.md stay auditable: constant-memory residency is decided
// per gather source of the execution plan, one launch per residency
// chunk, and shared-memory staging is greedy per block. Runs use a host
// backend; the model only reads the plans it ran.
//
// The DeviceModel pin compares thirteen fixed configurations with == against
// values recorded from the DeviceSim executor that core/device_model
// replaced. That executor reran the trial kernel inside simulated device
// blocks only to meter traffic; every counter it metered is an integer
// function of the lowered plan, and its modeled seconds are one roofline
// per launch summed in launch order, so a model that makes the same
// residency, staging and metering decisions reproduces each value to the
// bit. The modeled seconds are printed with %.17g, so each literal parses
// back to the exact double. The rows named ".../lookup" ran one plan per
// contract when they were recorded; since every run plans the whole book
// at once, their traffic counters keep the recorded values and only their
// launches, staged blocks and modeled seconds (and 5k/block4096's shared
// bytes) were re-pinned: one plan packs every contract's table into one
// residency chunk and stages each device block once, not once per contract.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "data/trial_source.hpp"
#include "data/yelt.hpp"
#include "finance/contract.hpp"
#include "oracle.hpp"
#include "scenario/sweep.hpp"

namespace riskan::core {
namespace {

struct World {
  finance::Portfolio portfolio;
  data::YearEventLossTable yelt;
};

World make_world(TrialId trials = 400, std::size_t elt_rows = 200,
                 std::size_t contracts = 2, int layers = 1, EventId catalog = 500) {
  finance::PortfolioGenConfig pg;
  pg.contracts = contracts;
  pg.catalog_events = catalog;
  pg.elt_rows = elt_rows;
  pg.layers_per_contract = layers;
  data::YeltGenConfig yg;
  yg.trials = trials;
  return World{finance::generate_portfolio(pg), data::generate_yelt(catalog, yg)};
}

/// Eleven small tables whose exact byte sum fits the constant segment but
/// whose 16-byte upload alignment pads do not: the residency planner must
/// charge aligned sizes.
World tight_packing_world() {
  World w;
  finance::Layer layer;
  layer.id = 1;
  layer.terms = finance::LayerTerms::typical();
  for (ContractId c = 0; c < 11; ++c) {
    std::vector<data::EltRow> rows;
    const EventId rows_n = c == 10 ? 99 : 107;
    for (EventId e = 0; e < rows_n; ++e) {
      rows.push_back({static_cast<EventId>(c * 120 + e), 1e6 + e, 2e5, 4e6});
    }
    w.portfolio.add(finance::Contract(c, data::EventLossTable::from_rows(rows), {layer}));
  }
  data::YeltGenConfig yg;
  yg.trials = 200;
  w.yelt = data::generate_yelt(500, yg);
  return w;
}

DeviceRunInfo run_device(const World& world, EngineConfig config, DeviceSpec spec = {}) {
  config.backend = Backend::Sequential;
  config.device_spec = spec;
  DeviceRunInfo info;
  config.device_info = &info;
  (void)run_aggregate_analysis(world.portfolio, world.yelt, config);
  return info;
}

TEST(DeviceMetering, CountersArePopulated) {
  const auto world = make_world();
  EngineConfig config;
  const auto info = run_device(world, config);
  EXPECT_GT(info.launches, 0);
  EXPECT_GT(info.modeled_seconds, 0.0);
  EXPECT_GT(info.counters.const_read_bytes, 0u);   // resident ELT gathers
  EXPECT_GT(info.counters.global_read_bytes, 0u);  // column staging + scratch
  EXPECT_GT(info.counters.flops, 0u);              // beta sampling
}

TEST(DeviceMetering, SecondaryOffDropsFlops) {
  const auto world = make_world();
  EngineConfig on;
  on.secondary_uncertainty = true;
  EngineConfig off;
  off.secondary_uncertainty = false;
  const auto info_on = run_device(world, on);
  const auto info_off = run_device(world, off);
  EXPECT_GT(info_on.counters.flops, 2 * info_off.counters.flops);
}

TEST(DeviceMetering, ResidencyCapShiftsGatherTrafficToGlobal) {
  // The plan stages up to device_elt_chunk_rows of each ELT into constant
  // memory; capping residency moves the per-gather row reads from the
  // constant segment to global memory.
  const auto world = make_world(300, 400);
  EngineConfig fit;
  fit.device_elt_chunk_rows = 0;  // stage as much as the segment fits
  EngineConfig capped;
  capped.device_elt_chunk_rows = 32;
  const auto a = run_device(world, fit);
  const auto b = run_device(world, capped);
  EXPECT_GT(a.counters.const_read_bytes, b.counters.const_read_bytes);
  EXPECT_GT(b.counters.global_read_bytes, a.counters.global_read_bytes);
}

TEST(DeviceMetering, BatchedBookSharesLaunchesAcrossContracts) {
  // Every run is one plan for the whole book, so either gather packs every
  // contract's table into shared residency chunks — with small tables, the
  // whole book rides one launch. Residency is per gather source, not per
  // layer, so a contract's tower shares its upload.
  const auto world = make_world(400, 200, /*contracts=*/4, /*layers=*/2);
  EngineConfig lookup;
  lookup.batch_contracts = false;
  EngineConfig compact;
  compact.batch_contracts = true;
  const auto a = run_device(world, lookup);
  const auto b = run_device(world, compact);
  EXPECT_EQ(a.launches, 1);  // 4 x 200-row tables fit one constant segment
  EXPECT_EQ(b.launches, 1);
  EXPECT_EQ(a.shared_staged_blocks, b.shared_staged_blocks);  // staged once, not per contract
}

TEST(DeviceMetering, TowerChargesOneDrawPerOccurrence) {
  // Every layer of a contract consumes the same secondary-uncertainty draw,
  // so the model charges the beta FLOPs once per found row per group —
  // a 4-layer tower samples exactly what its 1-layer base does, in both
  // gather modes and on a book whose tables binary-search. Sampling-on
  // minus sampling-off FLOPs isolates the draws (term and finish FLOPs do
  // not depend on sampling).
  for (const bool batched : {false, true}) {
    for (const bool sparse : {false, true}) {
      const auto draw_flops = [batched, sparse](int layers) {
        auto world = make_world(300, 200, /*contracts=*/2, layers);
        if (sparse) {
          auto spread = oracle::spread_event_ids(world.portfolio, world.yelt);
          world = World{std::move(spread.portfolio), std::move(spread.yelt)};
        }
        EngineConfig on;
        on.batch_contracts = batched;
        on.secondary_uncertainty = true;
        EngineConfig off = on;
        off.secondary_uncertainty = false;
        return run_device(world, on).counters.flops - run_device(world, off).counters.flops;
      };
      const auto base = draw_flops(1);
      const std::string what =
          std::string(batched ? "compact" : "lookup") + (sparse ? "/sparse-ids" : "");
      EXPECT_GT(base, 0u) << what;
      EXPECT_EQ(draw_flops(4), base) << what;
    }
  }
}

TEST(DeviceMetering, ConstantPressureSplitsBatchedPlanIntoMoreLaunches) {
  // Eight 500-row tables (~28 KiB packed each) cannot all share the 64 KiB
  // constant segment at full residency: the plan closes residency chunks
  // (more launches). Capping per-source residency packs them together.
  const auto world = make_world(200, 500, /*contracts=*/8);
  EngineConfig full;
  full.batch_contracts = true;
  full.device_elt_chunk_rows = 0;
  EngineConfig capped;
  capped.batch_contracts = true;
  capped.device_elt_chunk_rows = 64;
  const auto a = run_device(world, full);
  const auto b = run_device(world, capped);
  EXPECT_GT(a.launches, b.launches);
  EXPECT_EQ(b.launches, 1);
  EXPECT_GT(a.counters.const_read_bytes, b.counters.const_read_bytes);
}

TEST(DeviceMetering, TightConstantPackingRespectsUploadAlignment) {
  // Charged raw sizes, the eleven tables would all fit one upload and
  // overflow the segment once aligned; charged aligned sizes, they need two
  // launches. Modeling the run moves no output bit.
  const auto [portfolio, yelt] = tight_packing_world();

  EngineConfig config;
  config.backend = Backend::Sequential;
  config.batch_contracts = true;
  const auto reference = run_aggregate_analysis(portfolio, yelt, config);
  DeviceRunInfo info;
  config.device_info = &info;
  const auto device = run_aggregate_analysis(portfolio, yelt, config);
  EXPECT_EQ(info.launches, 2);
  for (TrialId t = 0; t < yelt.trials(); ++t) {
    ASSERT_EQ(reference.portfolio_ylt[t], device.portfolio_ylt[t]) << t;
  }
}

TEST(DeviceMetering, TinyBlocksStageButHugeBlocksSpill) {
  // 5k trials x ~10 occurrences: a 4096-trial block carries ~160 KiB of
  // row-column slice — over the 48 KiB shared arena — while 8-trial blocks
  // fit.
  const auto world = make_world(5'000);
  EngineConfig small;
  small.device_block_dim = 8;
  EngineConfig large;
  large.device_block_dim = 4'096;
  const auto a = run_device(world, small);
  const auto b = run_device(world, large);
  EXPECT_EQ(a.shared_spill_blocks, 0u);
  EXPECT_GT(a.shared_staged_blocks, 0u);
  EXPECT_GT(b.shared_spill_blocks, 0u);
}

TEST(DeviceMetering, ModeledTimeScalesWithTrials) {
  const auto small_world = make_world(200);
  const auto big_world = make_world(2'000);
  EngineConfig config;
  const auto a = run_device(small_world, config);
  const auto b = run_device(big_world, config);
  EXPECT_GT(b.modeled_seconds, a.modeled_seconds);
  EXPECT_GT(b.counters.flops, b.counters.flops / 2 + a.counters.flops);
}

TEST(DeviceMetering, EfficiencyFactorScalesModel) {
  const auto world = make_world();
  EngineConfig config;
  DeviceSpec honest;  // default achieved_efficiency
  DeviceSpec ideal = honest;
  ideal.achieved_efficiency = 1.0;
  const auto a = run_device(world, config, honest);
  const auto b = run_device(world, config, ideal);
  // The roofline-ideal device is modeled far faster; launch overhead keeps
  // the ratio below the raw 1/efficiency.
  EXPECT_LT(b.modeled_seconds, a.modeled_seconds);
}

TEST(DeviceMetering, FasterSpecModelsFaster) {
  const auto world = make_world();
  EngineConfig config;
  DeviceSpec slow;
  slow.global_bw_gbs = 20.0;
  slow.const_bw_gbs = 100.0;
  slow.sm_count = 2;
  DeviceSpec fast;
  fast.global_bw_gbs = 900.0;
  fast.const_bw_gbs = 4'000.0;
  fast.sm_count = 80;
  const auto a = run_device(world, config, slow);
  const auto b = run_device(world, config, fast);
  EXPECT_GT(a.modeled_seconds, b.modeled_seconds);
}

/// Runs the named configuration with the device model on and returns what
/// it added to a fresh DeviceRunInfo.
DeviceRunInfo run_case(const std::string& name, EngineConfig config) {
  DeviceRunInfo info;
  config.device_info = &info;
  World w;
  if (name == "default/sampling-on/lookup") {
    w = make_world();
  } else if (name == "default/sampling-off/lookup") {
    w = make_world();
    config.secondary_uncertainty = false;
  } else if (name == "4x2/lookup") {
    w = make_world(400, 200, 4, 2);
  } else if (name == "4x2/batched") {
    w = make_world(400, 200, 4, 2);
    config.batch_contracts = true;
  } else if (name == "8x500/batched/fit" || name == "8x500/batched/cap64") {
    w = make_world(200, 500, 8);
    config.batch_contracts = true;
    config.device_elt_chunk_rows = name == "8x500/batched/fit" ? 0 : 64;
  } else if (name.rfind("5k/block", 0) == 0) {
    w = make_world(5'000);
    config.device_block_dim = std::stoi(name.substr(8));  // "<dim>/lookup"
  } else if (name == "2k-rows/per-contract") {
    // 2000-row tables exceed the constant segment: partial residency.
    w = make_world(300, 2'000, 2, 1, 3'000);
  } else if (name == "11-tables/tight-packing") {
    w = tight_packing_world();
    config.batch_contracts = true;
  } else if (name == "streamed/3-blocks/lookup") {
    w = make_world();
    data::InMemorySource whole(w.yelt);
    data::ReblockedSource blocks(whole, 150);
    (void)run_aggregate_analysis(w.portfolio, blocks, config);
    return info;
  } else if (name == "sweep/mask+conditioning") {
    w = make_world(400, 200, 2, 2);
    std::vector<scenario::ScenarioSpec> specs(3);
    specs[0].name = "mask";
    specs[0].excluded_events = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89};
    specs[1].name = "conditioned";
    specs[1].conditioning =
        scenario::PostEventConditioning{w.portfolio.contract(0).elt().event_ids()[0], 1.0};
    specs[2].name = "surge";
    specs[2].loss_scale = 1.3;
    (void)scenario::run_scenario_sweep(w.portfolio, w.yelt, specs, config);
    return info;
  } else {
    ADD_FAILURE() << "unknown case " << name;
    return info;
  }
  (void)run_aggregate_analysis(w.portfolio, w.yelt, config);
  return info;
}

struct Pinned {
  const char* name;
  double modeled_seconds;
  DeviceCounters counters;
  int launches;
  std::size_t staged;
  std::size_t spilled;
};

// {global read, global write, shared read, shared write, const read, flops}
const Pinned kPinned[] = {
    {"default/sampling-on/lookup", 6.3995652173913045e-05,
     {31488, 19200, 31488, 31488, 208544, 838976}, 1, 4, 0},
    {"default/sampling-off/lookup", 3.1639999999999995e-05,
     {31488, 19200, 31488, 31488, 208544, 19696}, 1, 4, 0},
    {"4x2/lookup", 0.00012309429347826087,
     {62976, 76800, 62976, 62976, 415016, 1708908}, 1, 4, 0},
    {"4x2/batched", 0.00013028166666666666,
     {59288, 194320, 59288, 59288, 415016, 1708644}, 1, 4, 0},
    {"8x500/batched/fit", 0.00051309565217391305,
     {127168, 165568, 127168, 127168, 890176, 3570304}, 4, 8, 0},
    {"8x500/batched/cap64", 0.0010462822222222223,
     {903408, 165568, 86176, 86176, 113936, 3570304}, 1, 1, 1},
    {"5k/block8/lookup", 0.00083031436521739134,
     {399768, 240000, 399768, 399768, 2615032, 10520128}, 1, 625, 0},
    {"5k/block128/lookup", 0.0002214047826086957,
     {399768, 240000, 399768, 399768, 2615032, 10520128}, 1, 40, 0},
    {"5k/block4096/lookup", 0.0014363652173913046,
     {399768, 240000, 36400, 36400, 2615032, 10520128}, 1, 0, 2},
    {"2k-rows/per-contract", 9.6208518518518511e-05,
     {112436, 14400, 23536, 23536, 124796, 858384}, 2, 6, 0},
    {"11-tables/tight-packing", 7.1063043478260862e-05,
     {14864, 30032, 14864, 14864, 104048, 419984}, 2, 4, 0},
    {"streamed/3-blocks/lookup", 0.00016409782608695653,
     {31488, 19200, 31488, 31488, 208544, 838976}, 3, 5, 0},
    {"sweep/mask+conditioning", 0.00021116666666666666,
     {29792, 390208, 29792, 29792, 208544, 976416}, 1, 4, 0},
};

TEST(DeviceModel, MatchesThePinnedSimulatorRunsExactly) {
  for (const Backend backend : kAllBackends) {
    for (const Pinned& pin : kPinned) {
      EngineConfig config;
      config.backend = backend;
      const DeviceRunInfo info = run_case(pin.name, config);
      const std::string what = std::string(pin.name) + " on " + to_string(backend);
      EXPECT_EQ(info.modeled_seconds, pin.modeled_seconds) << what;
      EXPECT_EQ(info.counters.global_read_bytes, pin.counters.global_read_bytes) << what;
      EXPECT_EQ(info.counters.global_write_bytes, pin.counters.global_write_bytes) << what;
      EXPECT_EQ(info.counters.shared_read_bytes, pin.counters.shared_read_bytes) << what;
      EXPECT_EQ(info.counters.shared_write_bytes, pin.counters.shared_write_bytes) << what;
      EXPECT_EQ(info.counters.const_read_bytes, pin.counters.const_read_bytes) << what;
      EXPECT_EQ(info.counters.flops, pin.counters.flops) << what;
      EXPECT_EQ(info.launches, pin.launches) << what;
      EXPECT_EQ(info.shared_staged_blocks, pin.staged) << what;
      EXPECT_EQ(info.shared_spill_blocks, pin.spilled) << what;
    }
  }
}

void expect_same_outputs(const EngineResult& a, const EngineResult& b, const std::string& what) {
  ASSERT_EQ(a.portfolio_ylt.trials(), b.portfolio_ylt.trials()) << what;
  for (TrialId t = 0; t < a.portfolio_ylt.trials(); ++t) {
    ASSERT_EQ(a.portfolio_ylt[t], b.portfolio_ylt[t]) << what << " AEP trial " << t;
    ASSERT_EQ(a.portfolio_occurrence_ylt[t], b.portfolio_occurrence_ylt[t])
        << what << " OEP trial " << t;
    ASSERT_EQ(a.reinstatement_premium[t], b.reinstatement_premium[t])
        << what << " reinstatement trial " << t;
  }
  ASSERT_EQ(a.contract_ylts.size(), b.contract_ylts.size()) << what;
  for (std::size_t c = 0; c < a.contract_ylts.size(); ++c) {
    for (TrialId t = 0; t < a.contract_ylts[c].trials(); ++t) {
      ASSERT_EQ(a.contract_ylts[c][t], b.contract_ylts[c][t])
          << what << " contract " << c << " trial " << t;
    }
  }
  EXPECT_EQ(a.elt_lookups, b.elt_lookups) << what;
  EXPECT_EQ(a.occurrences_processed, b.occurrences_processed) << what;
}

TEST(DeviceModel, LeavesEveryOutputBitIdentical) {
  // The model only reads the plan: asking for it moves no YLT bit and no
  // lookup count, on either host backend, under either kernel, in both
  // gather modes, on tables with and without an event→row lookup.
  const World dense = make_world(700, 200, 3, 2);
  auto spread = oracle::spread_event_ids(dense.portfolio, dense.yelt);
  const World sparse{std::move(spread.portfolio), std::move(spread.yelt)};
  for (const Backend backend : kAllBackends) {
    for (const Kernel kernel : kAllKernels) {
      for (const bool batch : {false, true}) {
        for (const World* w : {&dense, &sparse}) {
          EngineConfig config;
          config.backend = backend;
          config.kernel = kernel;
          config.batch_contracts = batch;
          const auto plain = run_aggregate_analysis(w->portfolio, w->yelt, config);
          DeviceRunInfo info;
          config.device_info = &info;
          config.device_block_dim = 64;
          config.device_elt_chunk_rows = 50;
          const auto modeled = run_aggregate_analysis(w->portfolio, w->yelt, config);
          const std::string what = std::string(to_string(backend)) + "/" +
                                   to_string(kernel) + (batch ? "/compact" : "/lookup") +
                                   (w == &sparse ? "/sparse-ids" : "");
          expect_same_outputs(plain, modeled, what);
          EXPECT_GT(info.launches, 0) << what;
        }
      }
    }
  }
}

}  // namespace
}  // namespace riskan::core
