// Every lowering of stage 2 against the reference oracle (tests/oracle.hpp).
//
// The other equivalence matrices prove that lowerings, backends and
// kernels agree with each other; this one proves they agree with the
// definition of aggregate analysis. The book mixes deductible and
// franchise layers, aggregate retentions and limits, shares below one and
// reinstatements; one lens has ordinary trials and a non-zero trial base,
// the other crowds more occurrences into a trial than the kernels buffer
// at once.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "core/portfolio_batch.hpp"
#include "data/trial_source.hpp"
#include "oracle.hpp"
#include "scenario/sweep.hpp"

namespace riskan::core {
namespace {

/// A generated book whose layers cover every term the kernel applies.
finance::Portfolio oracle_book(EventId catalog, std::size_t elt_rows) {
  finance::PortfolioGenConfig pg;
  pg.contracts = 3;
  pg.catalog_events = catalog;
  pg.elt_rows = elt_rows;
  pg.layers_per_contract = 3;
  pg.seed = 31;
  const auto generated = finance::generate_portfolio(pg);
  finance::Portfolio book;
  for (const auto& contract : generated.contracts()) {
    std::vector<finance::Layer> layers = contract.layers();
    layers[0].terms.retention_kind = finance::RetentionKind::Franchise;
    layers[1].terms.agg_retention = layers[1].terms.occ_limit * 0.5;
    layers[1].terms.agg_limit = layers[1].terms.occ_limit * 1.5;
    layers[1].terms.share = 0.6;
    layers[2].reinstatements.count = 2;
    layers[2].reinstatements.premium_rate = 0.75;
    layers[2].terms.share = 0.35;
    book.add(finance::Contract(contract.id(), contract.elt(), std::move(layers),
                               contract.region(), contract.lob(), contract.peril()));
  }
  return book;
}

struct Lens {
  const char* name;
  EventId catalog;
  std::size_t elt_rows;
  TrialId trials;
  double events_per_year;
  TrialId trial_base;
};

enum class Lowering { PerContract, SparseIds, Batched, Sweep, Streamed, StreamedBatched };

const char* name_of(Lowering lowering) {
  switch (lowering) {
    case Lowering::PerContract: return "per-contract";
    case Lowering::SparseIds: return "per-contract/sparse-ids";
    case Lowering::Batched: return "batched";
    case Lowering::Sweep: return "sweep-identity";
    case Lowering::Streamed: return "streamed-3-blocks";
    case Lowering::StreamedBatched: return "streamed-3-blocks/batched";
  }
  return "?";
}

EngineResult run_lowering(Lowering lowering, const finance::Portfolio& portfolio,
                          const data::YearEventLossTable& yelt, EngineConfig config) {
  switch (lowering) {
    case Lowering::PerContract:
      return run_aggregate_analysis(portfolio, yelt, config);
    case Lowering::SparseIds: {
      const auto sparse = oracle::spread_event_ids(portfolio, yelt);
      for (const auto& contract : sparse.portfolio.contracts()) {
        EXPECT_TRUE(contract.elt().row_lookup().empty()) << "ids should be too sparse";
      }
      return run_aggregate_analysis(sparse.portfolio, sparse.yelt, config);
    }
    case Lowering::Batched:
      config.batch_contracts = true;
      return run_aggregate_analysis(portfolio, yelt, config);
    case Lowering::Sweep: {
      const std::vector<scenario::ScenarioSpec> specs = {scenario::ScenarioSpec::identity()};
      return std::move(scenario::run_scenario_sweep(portfolio, yelt, specs, config).scenarios[0]);
    }
    case Lowering::Streamed:
    case Lowering::StreamedBatched: {
      config.batch_contracts = lowering == Lowering::StreamedBatched;
      data::InMemorySource whole(yelt);
      data::ReblockedSource blocks(whole, yelt.trials() / 3 + 1);
      return run_aggregate_analysis(portfolio, blocks, config);
    }
  }
  return {};
}

TEST(Oracle, EveryLoweringEqualsTheDefinition) {
  const Lens lenses[] = {
      {"ordinary", 600, 150, 700, 10.0, 4'321},
      {"crowded", 120, 120, 30, 700.0, 0},  // > 512 occurrences per trial
  };
  const Lowering lowerings[] = {Lowering::PerContract, Lowering::SparseIds,
                                Lowering::Batched,     Lowering::Sweep,
                                Lowering::Streamed,    Lowering::StreamedBatched};
  for (const Lens& lens : lenses) {
    const auto portfolio = oracle_book(lens.catalog, lens.elt_rows);
    data::YeltGenConfig yg;
    yg.trials = lens.trials;
    yg.mean_events_per_year = lens.events_per_year;
    yg.seed = 5;
    const auto yelt = data::generate_yelt(lens.catalog, yg);
    for (const bool secondary : {false, true}) {
      EngineConfig config;
      config.secondary_uncertainty = secondary;
      config.trial_base = lens.trial_base;
      config.trial_grain = 7;
      const auto expected = oracle::run_oracle(portfolio, yelt, config);
      ASSERT_GT(expected.elt_lookups, 0u);
      for (const Backend backend : kAllBackends) {
        for (const Kernel kernel : kAllKernels) {
          config.backend = backend;
          config.kernel = kernel;
          for (const Lowering lowering : lowerings) {
            const std::string what = std::string(lens.name) + "/" +
                                     (secondary ? "secondary" : "means") + "/" +
                                     to_string(backend) + "/" + to_string(kernel) + "/" +
                                     name_of(lowering);
            oracle::expect_equals_oracle(run_lowering(lowering, portfolio, yelt, config),
                                         expected, what);
          }
        }
      }
    }
  }
}

TEST(Oracle, TermsTheBookExercisesChangeTheAnswer) {
  // The oracle book must exercise what it claims to: dropping the franchise,
  // the aggregate terms or the extra reinstatement changes the oracle's
  // portfolio losses, so a kernel that ignored any of them would fail the
  // matrix above.
  const auto portfolio = oracle_book(600, 150);
  data::YeltGenConfig yg;
  yg.trials = 700;
  yg.seed = 5;
  const auto yelt = data::generate_yelt(600, yg);
  const auto base = oracle::run_oracle(portfolio, yelt, false, 2012, 0);
  for (int variant = 0; variant < 3; ++variant) {
    finance::Portfolio changed;
    for (const auto& contract : portfolio.contracts()) {
      std::vector<finance::Layer> layers = contract.layers();
      if (variant == 0) {
        layers[0].terms.retention_kind = finance::RetentionKind::Deductible;
      } else if (variant == 1) {
        layers[1].terms.agg_retention = 0.0;
        layers[1].terms.agg_limit = layers[1].terms.occ_limit * 2.0;
      } else {
        layers[2].reinstatements.count = 1;
      }
      changed.add(finance::Contract(contract.id(), contract.elt(), std::move(layers)));
    }
    const auto other = oracle::run_oracle(changed, yelt, false, 2012, 0);
    EXPECT_TRUE(other.portfolio != base.portfolio || other.reinstatement != base.reinstatement)
        << "variant " << variant;
  }
}

}  // namespace
}  // namespace riskan::core
