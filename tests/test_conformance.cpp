// Conformance books: stage 2 on books small enough to derive by hand.
//
// Every case is one event (ELT {7: 100}, sigma 0) under one set of layer
// terms, over the trials [7], [] and [7, 7]; the long-trial case replaces
// the last trial with 600 occurrences of event 7, which crosses the
// kernels' 512-position sub-blocks. Each expected YLT, OEP and
// reinstatement value is derived in the case from the definitions in
// finance/terms.hpp, and compared with == for every way a run can execute:
// both gathers (batch_contracts off and on), resident and over two
// re-blocked trial blocks, on both backends and both kernels, with
// sampling off.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "data/resolved_yelt.hpp"
#include "data/trial_source.hpp"
#include "finance/contract.hpp"

namespace riskan::core {
namespace {

constexpr EventId kEvent = 7;

struct Expected {
  std::vector<Money> aep;
  std::vector<Money> oep;
  std::vector<Money> premium;
  /// Per-contract AEP; empty = the portfolio's AEP for a one-contract book.
  std::vector<std::vector<Money>> contracts;
};

/// A one-row ELT: `event` always loses exactly 100.
data::EventLossTable one_event_elt(EventId event = kEvent) {
  return data::EventLossTable::from_rows({{event, 100.0, 0.0, 100.0}});
}

/// Retention 30, limit 50: each occurrence of the event pays 70 capped at 50.
finance::Layer deductible() {
  finance::Layer layer;
  layer.terms.occ_retention = 30.0;
  layer.terms.occ_limit = 50.0;
  return layer;
}

finance::Portfolio one_contract(const finance::Layer& layer) {
  finance::Portfolio portfolio;
  portfolio.add(finance::Contract(1, one_event_elt(), {layer}));
  return portfolio;
}

/// Trials [7], [], then `last` occurrences of event 7.
data::YearEventLossTable lens(int last = 2) {
  data::YearEventLossTable::Builder builder;
  builder.begin_trial();
  builder.add(kEvent, 1);
  builder.begin_trial();
  builder.begin_trial();
  for (int i = 0; i < last; ++i) {
    builder.add(kEvent, static_cast<std::uint16_t>(i % 365));
  }
  return builder.finish();
}

void expect_cells(std::span<const Money> actual, const std::vector<Money>& expected,
                  const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t t = 0; t < expected.size(); ++t) {
    EXPECT_EQ(actual[t], expected[t]) << what << " trial " << t;
  }
}

/// Runs the book every way a run can execute and compares each output cell
/// with the hand-derived value.
void expect_conforms(const finance::Portfolio& portfolio, const data::YearEventLossTable& yelt,
                     const Expected& expected) {
  const auto contracts =
      expected.contracts.empty() ? std::vector<std::vector<Money>>{expected.aep}
                                 : expected.contracts;
  ASSERT_EQ(contracts.size(), portfolio.size());
  for (const Backend backend : kAllBackends) {
    for (const Kernel kernel : kAllKernels) {
      for (const bool compact : {false, true}) {
        for (const bool reblocked : {false, true}) {
          data::ResolverCache cache;
          EngineConfig config;
          config.backend = backend;
          config.kernel = kernel;
          config.secondary_uncertainty = false;
          config.batch_contracts = compact;
          config.resolver_cache = &cache;
          const std::string what = std::string(to_string(backend)) + "/" +
                                   to_string(kernel) + (compact ? "/compact" : "/lookup") +
                                   (reblocked ? "/2-blocks" : "/resident");
          EngineResult result;
          if (reblocked) {
            data::InMemorySource whole(yelt);
            data::ReblockedSource blocks(whole, 2);
            result = run_aggregate_analysis(portfolio, blocks, config);
          } else {
            result = run_aggregate_analysis(portfolio, yelt, config);
          }
          expect_cells(result.portfolio_ylt.losses(), expected.aep, what + " AEP");
          expect_cells(result.portfolio_occurrence_ylt.losses(), expected.oep, what + " OEP");
          expect_cells(result.reinstatement_premium.losses(), expected.premium,
                       what + " reinstatement premium");
          for (std::size_t c = 0; c < contracts.size(); ++c) {
            expect_cells(result.contract_ylts[c].losses(), contracts[c],
                         what + " contract " + std::to_string(c));
          }
        }
      }
    }
  }
}

TEST(Conformance, Deductible) {
  // Each occurrence pays min(100 - 30, 50) = 50; the annual sum is 50 per
  // occurrence, uncapped; the worst occurrence is 50.
  expect_conforms(one_contract(deductible()), lens(),
                  {{50.0, 0.0, 100.0}, {50.0, 0.0, 50.0}, {0.0, 0.0, 0.0}, {}});
}

TEST(Conformance, Franchise) {
  // 100 clears the 30 franchise, so it pays from the ground up: min(100,
  // 80) = 80 per occurrence.
  finance::Layer layer;
  layer.terms.occ_retention = 30.0;
  layer.terms.occ_limit = 80.0;
  layer.terms.retention_kind = finance::RetentionKind::Franchise;
  expect_conforms(one_contract(layer), lens(),
                  {{80.0, 0.0, 160.0}, {80.0, 0.0, 80.0}, {0.0, 0.0, 0.0}, {}});
}

TEST(Conformance, AggregateAndShare) {
  // Annual sums 50 / 0 / 100 less the 60 aggregate retention, capped at
  // 70: 0 / 0 / 40, times the 0.5 share: 0 / 0 / 20. The OEP cell takes
  // each occurrence's 50 times the share, before the aggregate terms: 25.
  finance::Layer layer = deductible();
  layer.terms.agg_retention = 60.0;
  layer.terms.agg_limit = 70.0;
  layer.terms.share = 0.5;
  expect_conforms(one_contract(layer), lens(),
                  {{0.0, 0.0, 20.0}, {25.0, 0.0, 25.0}, {0.0, 0.0, 0.0}, {}});
}

TEST(Conformance, Reinstatements) {
  // Limit consumed 50 / 0 / 100 against an occurrence limit of 50 and two
  // reinstatements: 1 / 0 / 2 limits reinstated at rate 1 of the upfront
  // 10, so the premium is 10 / 0 / 20.
  finance::Layer layer = deductible();
  layer.reinstatements.count = 2;
  layer.reinstatements.premium_rate = 1.0;
  layer.upfront_premium = 10.0;
  expect_conforms(one_contract(layer), lens(),
                  {{50.0, 0.0, 100.0}, {50.0, 0.0, 50.0}, {10.0, 0.0, 20.0}, {}});
}

TEST(Conformance, LookupMiss) {
  // A second contract whose ELT lacks event 7 finds no row in any trial:
  // its YLT is all zeros and the portfolio is the first contract's.
  finance::Portfolio portfolio;
  portfolio.add(finance::Contract(1, one_event_elt(), {deductible()}));
  portfolio.add(finance::Contract(2, one_event_elt(kEvent + 1), {deductible()}));
  expect_conforms(portfolio, lens(),
                  {{50.0, 0.0, 100.0},
                   {50.0, 0.0, 50.0},
                   {0.0, 0.0, 0.0},
                   {{50.0, 0.0, 100.0}, {0.0, 0.0, 0.0}}});
}

TEST(Conformance, LongTrial) {
  // 600 occurrences of 50 sum to 30000; an aggregate limit of 1000 caps
  // the same year at 1000. The worst occurrence is still 50.
  expect_conforms(one_contract(deductible()), lens(600),
                  {{50.0, 0.0, 30000.0}, {50.0, 0.0, 50.0}, {0.0, 0.0, 0.0}, {}});
  finance::Layer capped = deductible();
  capped.terms.agg_limit = 1000.0;
  expect_conforms(one_contract(capped), lens(600),
                  {{50.0, 0.0, 1000.0}, {50.0, 0.0, 50.0}, {0.0, 0.0, 0.0}, {}});
}

}  // namespace
}  // namespace riskan::core
