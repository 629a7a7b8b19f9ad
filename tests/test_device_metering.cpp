// DeviceSim executor telemetry: the counters and the performance model
// that E2/E4 report. These tests pin the metering semantics of the
// plan/executor layer (core::exec) so the modeled numbers in
// EXPERIMENTS.md stay auditable: constant-memory residency is decided by
// the execution plan per gather source, one launch per residency chunk,
// and shared-memory staging is greedy per block.
#include <gtest/gtest.h>

#include "core/aggregate_engine.hpp"
#include "data/yelt.hpp"
#include "finance/contract.hpp"

namespace riskan::core {
namespace {

struct World {
  finance::Portfolio portfolio;
  data::YearEventLossTable yelt;
};

World make_world(TrialId trials = 400, std::size_t elt_rows = 200,
                 std::size_t contracts = 2, int layers = 1) {
  finance::PortfolioGenConfig pg;
  pg.contracts = contracts;
  pg.catalog_events = 500;
  pg.elt_rows = elt_rows;
  pg.layers_per_contract = layers;
  data::YeltGenConfig yg;
  yg.trials = trials;
  return World{finance::generate_portfolio(pg), data::generate_yelt(500, yg)};
}

DeviceRunInfo run_device(const World& world, EngineConfig config, DeviceSpec spec = {}) {
  config.backend = Backend::DeviceSim;
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
  EXPECT_GT(info.elt_chunks, 0u);
  EXPECT_GT(info.modeled_seconds, 0.0);
  EXPECT_GT(info.host_seconds, 0.0);
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

TEST(DeviceMetering, SearchPathProbesCostMoreConstTrafficThanResolvedGathers) {
  // The use_resolver=false reference path binary-searches the resident
  // table per occurrence (log2(rows) probes); the resolved path reads one
  // packed row per hit. Same staging either way, so the probe traffic is
  // the difference.
  const auto world = make_world(300, 400);
  EngineConfig resolved;
  resolved.use_resolver = true;
  EngineConfig search;
  search.use_resolver = false;
  const auto a = run_device(world, resolved);
  const auto b = run_device(world, search);
  EXPECT_GT(b.counters.const_read_bytes, a.counters.const_read_bytes);
}

TEST(DeviceMetering, BatchedBookSharesLaunchesAcrossContracts) {
  // Per-contract lowering launches once per contract (its layers share one
  // plan); the batched plan packs every contract's table into shared
  // residency chunks — with small tables, the whole book rides one launch.
  // This is the constraint the executor refactor lifted (the legacy device
  // kernel staged one layer's ELT at a time).
  const auto world = make_world(400, 200, /*contracts=*/4, /*layers=*/2);
  EngineConfig loop;
  loop.batch_contracts = false;
  EngineConfig batched;
  batched.batch_contracts = true;
  const auto a = run_device(world, loop);
  const auto b = run_device(world, batched);
  EXPECT_EQ(a.launches, 4);  // one per contract, not per (contract, layer)
  EXPECT_EQ(b.launches, 1);  // 4 x 200-row tables fit one constant segment
  EXPECT_LT(b.modeled_seconds, a.modeled_seconds);
}

TEST(DeviceMetering, TowerChargesOneDrawPerOccurrence) {
  // Every layer of a contract consumes the same secondary-uncertainty draw,
  // so the model charges the beta FLOPs once per found row per group —
  // a 4-layer tower samples exactly what its 1-layer base does, in every
  // gather mode. Sampling-on minus sampling-off FLOPs isolates the draws
  // (term and finish FLOPs do not depend on sampling).
  EngineConfig dense;
  EngineConfig search;
  search.use_resolver = false;
  EngineConfig compact;
  compact.batch_contracts = true;
  for (const EngineConfig& mode : {dense, search, compact}) {
    const auto draw_flops = [&mode](int layers) {
      const auto world = make_world(300, 200, /*contracts=*/2, layers);
      EngineConfig on = mode;
      on.secondary_uncertainty = true;
      EngineConfig off = mode;
      off.secondary_uncertainty = false;
      return run_device(world, on).counters.flops - run_device(world, off).counters.flops;
    };
    const auto base = draw_flops(1);
    EXPECT_GT(base, 0u);
    EXPECT_EQ(draw_flops(4), base)
        << (mode.batch_contracts ? "compact" : mode.use_resolver ? "dense" : "search");
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
  // Eleven tables whose exact byte sum fits the planner's budget but whose
  // per-upload 16-byte alignment pads would overflow the segment if the
  // plan charged raw sizes: the residency planner must charge aligned
  // sizes so every planned chunk actually uploads.
  finance::Layer layer;
  layer.id = 1;
  layer.terms = finance::LayerTerms::typical();
  finance::Portfolio portfolio;
  for (ContractId c = 0; c < 11; ++c) {
    std::vector<data::EltRow> rows;
    const EventId rows_n = c == 10 ? 99 : 107;
    for (EventId e = 0; e < rows_n; ++e) {
      rows.push_back({static_cast<EventId>(c * 120 + e), 1e6 + e, 2e5, 4e6});
    }
    portfolio.add(
        finance::Contract(c, data::EventLossTable::from_rows(rows), {layer}));
  }
  data::YeltGenConfig yg;
  yg.trials = 200;
  const auto yelt = data::generate_yelt(500, yg);

  EngineConfig config;
  config.backend = Backend::Sequential;
  config.batch_contracts = true;
  const auto reference = run_aggregate_analysis(portfolio, yelt, config);
  config.backend = Backend::DeviceSim;
  const auto device = run_aggregate_analysis(portfolio, yelt, config);
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

}  // namespace
}  // namespace riskan::core
