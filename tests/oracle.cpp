#include "oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/secondary.hpp"
#include "finance/terms.hpp"

namespace riskan::oracle {
namespace {

/// Row of `event` in `elt` by linear scan, or -1 when the event causes the
/// contract no loss.
long find_row(const data::EventLossTable& elt, EventId event) {
  const auto ids = elt.event_ids();
  for (std::size_t r = 0; r < ids.size(); ++r) {
    if (ids[r] == event) {
      return static_cast<long>(r);
    }
  }
  return -1;
}

/// Per occurrence: l' = min(max(l - retention, 0), limit); a franchise pays
/// the whole loss, capped, once it clears the retention.
Money occurrence_term(const finance::LayerTerms& terms, Money ground_up) {
  if (terms.retention_kind == finance::RetentionKind::Franchise) {
    return ground_up > terms.occ_retention ? std::min(ground_up, terms.occ_limit) : 0.0;
  }
  return std::min(std::max(ground_up - terms.occ_retention, 0.0), terms.occ_limit);
}

/// Per year: y' = min(max(sum l' - agg_retention, 0), agg_limit).
Money aggregate_term(const finance::LayerTerms& terms, Money annual) {
  return std::min(std::max(annual - terms.agg_retention, 0.0), terms.agg_limit);
}

}  // namespace

OracleResult run_oracle(const finance::Portfolio& portfolio,
                        const data::YearEventLossTable& yelt, bool secondary,
                        std::uint64_t seed, TrialId trial_base) {
  const TrialId trials = yelt.trials();
  OracleResult out;
  out.portfolio.assign(trials, 0.0);
  out.occurrence.assign(trials, 0.0);
  out.reinstatement.assign(trials, 0.0);
  out.contracts.assign(portfolio.size(), std::vector<Money>(trials, 0.0));
  out.occurrences = yelt.entries() * portfolio.layer_count();

  const Philox4x32 philox(seed);
  std::vector<core::SecondarySampler> samplers;
  for (const auto& contract : portfolio.contracts()) {
    samplers.emplace_back(contract.elt());
  }

  for (TrialId t = 0; t < trials; ++t) {
    const auto events = yelt.trial_events(t);
    // Portfolio net of each occurrence: the OEP candidates.
    std::vector<Money> occurrence_net(events.size(), 0.0);
    for (std::size_t c = 0; c < portfolio.size(); ++c) {
      const finance::Contract& contract = portfolio.contract(c);
      // One ground-up loss per occurrence, shared by every layer.
      std::vector<Money> ground_up(events.size(), 0.0);
      std::vector<bool> found(events.size(), false);
      for (std::size_t s = 0; s < events.size(); ++s) {
        const long row = find_row(contract.elt(), events[s]);
        if (row < 0) {
          continue;
        }
        found[s] = true;
        if (secondary) {
          auto stream = core::occurrence_stream(philox, contract.id(), trial_base + t,
                                                static_cast<std::uint32_t>(s));
          ground_up[s] = samplers[c].sample(static_cast<std::size_t>(row), stream);
        } else {
          ground_up[s] = contract.elt().mean_loss()[static_cast<std::size_t>(row)];
        }
      }
      for (const finance::Layer& layer : contract.layers()) {
        const finance::LayerTerms& terms = layer.terms;
        Money annual = 0.0;
        for (std::size_t s = 0; s < events.size(); ++s) {
          if (!found[s]) {
            continue;
          }
          const Money occ = occurrence_term(terms, ground_up[s]);
          annual += occ;
          occurrence_net[s] += occ * terms.share;
          ++out.elt_lookups;
        }
        const Money consumed = aggregate_term(terms, annual);
        const Money net = consumed * terms.share;
        out.contracts[c][t] += net;
        out.portfolio[t] += net;
        out.reinstatement[t] +=
            layer.reinstatements.premium_due(consumed, terms.occ_limit, layer.upfront_premium);
      }
    }
    for (const Money net : occurrence_net) {
      out.occurrence[t] = std::max(out.occurrence[t], net);
    }
  }
  return out;
}

OracleResult run_oracle(const finance::Portfolio& portfolio,
                        const data::YearEventLossTable& yelt,
                        const core::EngineConfig& config) {
  return run_oracle(portfolio, yelt, config.secondary_uncertainty, config.seed,
                    config.trial_base);
}

void expect_equals_oracle(const core::EngineResult& result, const OracleResult& expected,
                          const std::string& what) {
  const auto trials = static_cast<TrialId>(expected.portfolio.size());
  ASSERT_EQ(result.portfolio_ylt.trials(), trials) << what;
  for (TrialId t = 0; t < trials; ++t) {
    ASSERT_EQ(result.portfolio_ylt[t], expected.portfolio[t]) << what << " AEP trial " << t;
    ASSERT_EQ(result.reinstatement_premium[t], expected.reinstatement[t])
        << what << " reinstatement trial " << t;
  }
  if (result.portfolio_occurrence_ylt.trials() > 0) {
    ASSERT_EQ(result.portfolio_occurrence_ylt.trials(), trials) << what;
    for (TrialId t = 0; t < trials; ++t) {
      ASSERT_EQ(result.portfolio_occurrence_ylt[t], expected.occurrence[t])
          << what << " OEP trial " << t;
    }
  }
  if (!result.contract_ylts.empty()) {
    ASSERT_EQ(result.contract_ylts.size(), expected.contracts.size()) << what;
    for (std::size_t c = 0; c < expected.contracts.size(); ++c) {
      for (TrialId t = 0; t < trials; ++t) {
        ASSERT_EQ(result.contract_ylts[c][t], expected.contracts[c][t])
            << what << " contract " << c << " trial " << t;
      }
    }
  }
  EXPECT_EQ(result.elt_lookups, expected.elt_lookups) << what;
  EXPECT_EQ(result.occurrences_processed, expected.occurrences) << what;
}

Book spread_event_ids(const finance::Portfolio& portfolio, const data::YearEventLossTable& yelt,
                      EventId stride) {
  Book book;
  for (const auto& contract : portfolio.contracts()) {
    std::vector<data::EltRow> rows;
    for (std::size_t r = 0; r < contract.elt().size(); ++r) {
      data::EltRow row = contract.elt().row(r);
      row.event_id *= stride;
      rows.push_back(row);
    }
    book.portfolio.add(finance::Contract(contract.id(),
                                         data::EventLossTable::from_rows(std::move(rows)),
                                         contract.layers(), contract.region(), contract.lob(),
                                         contract.peril()));
  }
  data::YearEventLossTable::Builder builder(yelt.trials());
  for (TrialId t = 0; t < yelt.trials(); ++t) {
    builder.begin_trial();
    const auto events = yelt.trial_events(t);
    const auto days = yelt.trial_days(t);
    for (std::size_t s = 0; s < events.size(); ++s) {
      builder.add(events[s] * stride, days[s]);
    }
  }
  book.yelt = builder.finish();
  return book;
}

}  // namespace riskan::oracle
