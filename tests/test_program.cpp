// Program engine (inuring cascades) and day-ordered YELT generation.
#include <gtest/gtest.h>

#include "core/aggregate_engine.hpp"
#include "data/yelt.hpp"
#include "oracle.hpp"
#include "program_reference.hpp"
#include "util/require.hpp"

namespace riskan::core {
namespace {

finance::Layer make_layer(LayerId id, Money retention, Money limit, double share = 1.0) {
  finance::Layer layer;
  layer.id = id;
  layer.terms.occ_retention = retention;
  layer.terms.occ_limit = limit;
  layer.terms.agg_limit = limit * 10.0;
  layer.terms.share = share;
  return layer;
}

finance::Contract two_layer_contract(bool overlapping) {
  auto elt = data::EventLossTable::from_rows({
      {1, 500.0, 0.0, 500.0},
      {2, 1'500.0, 0.0, 1'500.0},
  });
  std::vector<finance::Layer> layers;
  if (overlapping) {
    // Both layers attach from the ground: inuring changes the answer.
    layers.push_back(make_layer(0, 0.0, 400.0));
    layers.push_back(make_layer(1, 0.0, 800.0));
  } else {
    // A clean tower: 0-400, then 400 xs 400.
    layers.push_back(make_layer(0, 0.0, 400.0));
    layers.push_back(make_layer(1, 400.0, 400.0));
  }
  return finance::Contract(0, std::move(elt), std::move(layers));
}

data::YearEventLossTable two_trial_yelt() {
  data::YearEventLossTable::Builder builder;
  builder.begin_trial();
  builder.add(1, 10);  // gu 500
  builder.begin_trial();
  builder.add(2, 20);  // gu 1500
  return builder.finish();
}

TEST(Program, InuringCascadeOracle) {
  const auto contract = two_layer_contract(/*overlapping=*/true);
  const auto yelt = two_trial_yelt();
  ProgramConfig config;
  config.inuring = true;
  const auto result = run_program(contract, yelt, config);

  // Trial 0: gu 500. Layer 0 pays 400; layer 1 sees 100, pays 100.
  EXPECT_DOUBLE_EQ(result.layer_ylts[0][0], 400.0);
  EXPECT_DOUBLE_EQ(result.layer_ylts[1][0], 100.0);
  EXPECT_DOUBLE_EQ(result.gross_ylt[0], 500.0);
  EXPECT_DOUBLE_EQ(result.retained_ylt[0], 0.0);

  // Trial 1: gu 1500. Layer 0 pays 400; layer 1 sees 1100, pays 800.
  EXPECT_DOUBLE_EQ(result.layer_ylts[0][1], 400.0);
  EXPECT_DOUBLE_EQ(result.layer_ylts[1][1], 800.0);
  EXPECT_DOUBLE_EQ(result.retained_ylt[1], 300.0);
}

TEST(Program, WithoutInuringLayersDoubleCount) {
  const auto contract = two_layer_contract(/*overlapping=*/true);
  const auto yelt = two_trial_yelt();
  ProgramConfig config;
  config.inuring = false;
  const auto result = run_program(contract, yelt, config);

  // Both layers see the full 500: recoveries 400 + 500 = 900 > gross.
  EXPECT_DOUBLE_EQ(result.layer_ylts[0][0], 400.0);
  EXPECT_DOUBLE_EQ(result.layer_ylts[1][0], 500.0);
  EXPECT_LT(result.retained_ylt[0], 0.0);  // the double-count artefact
}

TEST(Program, RecoveriesNeverExceedGrossUnderInuring) {
  finance::PortfolioGenConfig pg;
  pg.contracts = 1;
  pg.catalog_events = 150;
  pg.elt_rows = 50;
  pg.layers_per_contract = 3;
  const auto portfolio = finance::generate_portfolio(pg);
  data::YeltGenConfig yg;
  yg.trials = 500;
  const auto yelt = data::generate_yelt(150, yg);

  ProgramConfig config;
  config.inuring = true;
  config.secondary_uncertainty = true;
  const auto result = run_program(portfolio.contract(0), yelt, config);
  for (TrialId t = 0; t < yelt.trials(); ++t) {
    ASSERT_GE(result.retained_ylt[t], -1e-9) << "trial " << t;
    Money recovered = 0.0;
    for (const auto& layer : result.layer_ylts) {
      recovered += layer[t];
    }
    ASSERT_LE(recovered, result.gross_ylt[t] + 1e-9);
  }
}

TEST(Program, TowerEquivalenceBetweenCascadeAndFlatForms) {
  // The same economic tower written two ways must pay the same:
  //  flat form   : layer A = 0-400 ground-up, layer B = 400 xs 400 ground-up
  //  cascade form: layer A = 0-400, layer B = 0 xs 0 limit 400 on the loss
  //                net of A (inuring).
  const auto yelt = two_trial_yelt();
  auto elt = data::EventLossTable::from_rows({
      {1, 500.0, 0.0, 500.0},
      {2, 1'500.0, 0.0, 1'500.0},
  });

  finance::Contract flat_form(
      0, elt, {make_layer(0, 0.0, 400.0), make_layer(1, 400.0, 400.0)});
  finance::Portfolio portfolio;
  portfolio.add(flat_form);
  EngineConfig flat;
  flat.secondary_uncertainty = false;
  flat.backend = Backend::Sequential;
  const auto engine = run_aggregate_analysis(portfolio, yelt, flat);

  finance::Contract cascade_form(
      0, elt, {make_layer(0, 0.0, 400.0), make_layer(1, 0.0, 400.0)});
  ProgramConfig cascade;
  cascade.inuring = true;
  const auto program = run_program(cascade_form, yelt, cascade);

  for (TrialId t = 0; t < yelt.trials(); ++t) {
    const Money program_total = program.layer_ylts[0][t] + program.layer_ylts[1][t];
    ASSERT_NEAR(program_total, engine.portfolio_ylt[t], 1e-9) << "trial " << t;
  }

  // And the flat engine equals the cascade with inuring off (independent
  // layers are exactly what the flat engine computes).
  ProgramConfig independent;
  independent.inuring = false;
  const auto flat_program = run_program(flat_form, yelt, independent);
  for (TrialId t = 0; t < yelt.trials(); ++t) {
    ASSERT_NEAR(flat_program.layer_ylts[0][t] + flat_program.layer_ylts[1][t],
                engine.portfolio_ylt[t], 1e-9);
  }
}

TEST(Program, FlatEngineEqualsIndependentLayersWithSecondary) {
  // With sampling on, every layer of a tower must see the same sampled
  // ground-up loss for the same occurrence: one draw per (contract,
  // occurrence). Then each contract YLT of the flat engine is, bit for bit,
  // the layer-order sum of run_program's independent (inuring = false)
  // layer YLTs — in every lowering (per-contract, per-contract on the same
  // book with ids too sparse for an event→row table, batched) and on every
  // host backend. The crowded lens puts more occurrences in one trial than
  // the kernel buffers at once.
  struct Lens {
    EventId catalog;
    std::size_t elt_rows;
    TrialId trials;
    double events_per_year;
  };
  for (const Lens lens : {Lens{300, 120, 2'000, 10.0}, Lens{120, 120, 40, 700.0}}) {
    finance::PortfolioGenConfig pg;
    pg.contracts = 3;
    pg.catalog_events = lens.catalog;
    pg.elt_rows = lens.elt_rows;
    pg.layers_per_contract = 3;
    const auto portfolio = finance::generate_portfolio(pg);
    data::YeltGenConfig yg;
    yg.trials = lens.trials;
    yg.mean_events_per_year = lens.events_per_year;
    const auto yelt = data::generate_yelt(lens.catalog, yg);
    const auto sparse = oracle::spread_event_ids(portfolio, yelt);

    ProgramConfig independent;
    independent.secondary_uncertainty = true;
    independent.inuring = false;
    std::vector<std::vector<Money>> expected;
    for (const auto& contract : portfolio.contracts()) {
      const auto program = run_program(contract, yelt, independent);
      std::vector<Money> sums(yelt.trials(), 0.0);
      for (const auto& layer_ylt : program.layer_ylts) {
        for (TrialId t = 0; t < yelt.trials(); ++t) {
          sums[t] += layer_ylt[t];
        }
      }
      expected.push_back(std::move(sums));
    }

    for (const Backend backend : kAllBackends) {
      for (const Kernel kernel : kAllKernels) {
        for (const int lowering : {0, 1, 2}) {
          EngineConfig config;
          config.seed = independent.seed;
          config.secondary_uncertainty = true;
          config.backend = backend;
          config.kernel = kernel;
          config.batch_contracts = lowering == 2;
          config.trial_grain = 7;
          const auto engine =
              lowering == 1 ? run_aggregate_analysis(sparse.portfolio, sparse.yelt, config)
                            : run_aggregate_analysis(portfolio, yelt, config);
          ASSERT_EQ(engine.contract_ylts.size(), expected.size());
          for (std::size_t c = 0; c < expected.size(); ++c) {
            for (TrialId t = 0; t < yelt.trials(); ++t) {
              ASSERT_EQ(engine.contract_ylts[c][t], expected[c][t])
                  << to_string(backend) << "/" << to_string(kernel) << " lowering "
                  << lowering << " rate " << lens.events_per_year << " contract " << c
                  << " trial " << t;
            }
          }
        }
      }
    }
  }
}

TEST(Program, AddingAnInuringLayerShieldsLaterLayers) {
  auto elt = data::EventLossTable::from_rows({{1, 1'000.0, 0.0, 1'000.0}});
  data::YearEventLossTable::Builder builder;
  builder.begin_trial();
  builder.add(1, 0);
  const auto yelt = builder.finish();

  // Without the primary layer, the cat layer sees the full 1000.
  finance::Contract bare(0, elt, {make_layer(0, 200.0, 600.0)});
  const auto without = run_program(bare, yelt, {});

  // With a ground-up layer inuring to its benefit, it sees less.
  finance::Contract shielded(
      0, elt, {make_layer(0, 0.0, 300.0), make_layer(1, 200.0, 600.0)});
  const auto with = run_program(shielded, yelt, {});

  EXPECT_LT(with.layer_ylts[1][0], without.layer_ylts[0][0]);
}

TEST(Program, DeterministicWithSecondary) {
  finance::PortfolioGenConfig pg;
  pg.contracts = 1;
  pg.catalog_events = 80;
  pg.elt_rows = 30;
  pg.layers_per_contract = 2;
  const auto portfolio = finance::generate_portfolio(pg);
  data::YeltGenConfig yg;
  yg.trials = 200;
  const auto yelt = data::generate_yelt(80, yg);
  ProgramConfig config;
  config.secondary_uncertainty = true;
  const auto a = run_program(portfolio.contract(0), yelt, config);
  const auto b = run_program(portfolio.contract(0), yelt, config);
  for (TrialId t = 0; t < yelt.trials(); ++t) {
    ASSERT_EQ(a.retained_ylt[t], b.retained_ylt[t]);
  }
}

// ---------------------------------------------------------------------------
// Day-ordered YELT generation
// ---------------------------------------------------------------------------

TEST(YeltDayOrder, SortedTrialsAreMonotoneInDay) {
  data::YeltGenConfig config;
  config.trials = 500;
  config.sort_by_day = true;
  const auto yelt = data::generate_yelt(200, config);
  for (TrialId t = 0; t < yelt.trials(); ++t) {
    const auto days = yelt.trial_days(t);
    for (std::size_t i = 1; i < days.size(); ++i) {
      ASSERT_LE(days[i - 1], days[i]) << "trial " << t;
    }
  }
}

TEST(YeltDayOrder, SortingPreservesTheMultiset) {
  data::YeltGenConfig unsorted;
  unsorted.trials = 300;
  unsorted.seed = 5;
  data::YeltGenConfig sorted = unsorted;
  sorted.sort_by_day = true;

  const auto a = data::generate_yelt(100, unsorted);
  const auto b = data::generate_yelt(100, sorted);
  ASSERT_EQ(a.entries(), b.entries());
  for (TrialId t = 0; t < a.trials(); ++t) {
    auto ea = a.trial_events(t);
    auto eb = b.trial_events(t);
    std::vector<EventId> va(ea.begin(), ea.end());
    std::vector<EventId> vb(eb.begin(), eb.end());
    std::sort(va.begin(), va.end());
    std::sort(vb.begin(), vb.end());
    ASSERT_EQ(va, vb) << "trial " << t;
  }
}

TEST(YeltDayOrder, FlatEngineIsOrderInvariant) {
  // Occurrence + aggregate terms commute with occurrence order, so the flat
  // engine must produce the same distribution either way (secondary off;
  // with sampling on the stream keys shift with position).
  finance::PortfolioGenConfig pg;
  pg.contracts = 2;
  pg.catalog_events = 100;
  pg.elt_rows = 40;
  const auto portfolio = finance::generate_portfolio(pg);

  data::YeltGenConfig unsorted;
  unsorted.trials = 300;
  unsorted.seed = 5;
  data::YeltGenConfig sorted = unsorted;
  sorted.sort_by_day = true;
  const auto a = data::generate_yelt(100, unsorted);
  const auto b = data::generate_yelt(100, sorted);

  EngineConfig config;
  config.secondary_uncertainty = false;
  config.backend = Backend::Sequential;
  const auto ra = run_aggregate_analysis(portfolio, a, config);
  const auto rb = run_aggregate_analysis(portfolio, b, config);
  for (TrialId t = 0; t < a.trials(); ++t) {
    ASSERT_NEAR(ra.portfolio_ylt[t], rb.portfolio_ylt[t], 1e-9);
  }
}

}  // namespace
}  // namespace riskan::core
