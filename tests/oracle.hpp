// A reference oracle for stage 2, and the sparse-id book fixture.
//
// run_oracle is aggregate analysis written straight from its definition,
// one trial and one occurrence at a time, sharing no code with the trial
// kernel it checks: it finds each occurrence's ELT row by a linear scan of
// the table's event ids, draws the secondary-uncertainty loss through the
// occurrence stream key (or takes the ELT mean), applies the occurrence and
// aggregate terms and the share as finance/terms.hpp defines them, and
// sums contracts, then layers, in book order. The equivalence matrices
// compare every lowering against it, so they prove "equals the definition"
// and not only "equals each other".
//
// spread_event_ids rebuilds a book and its YELT with every event id
// multiplied by a stride, so each ELT's ids are too sparse for an
// event→row table (row_lookup() is empty) and the engine binary-searches.
// Draws are keyed by trial position, not event id, so the spread book's
// YLTs equal the original's bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "data/yelt.hpp"
#include "finance/contract.hpp"

namespace riskan::oracle {

/// What the definition says one run must produce.
struct OracleResult {
  std::vector<Money> portfolio;                ///< per-trial annual net (AEP sample)
  std::vector<Money> occurrence;               ///< per-trial max occurrence net (OEP sample)
  std::vector<Money> reinstatement;            ///< per-trial reinstatement premium
  std::vector<std::vector<Money>> contracts;   ///< per-contract annual net
  std::uint64_t elt_lookups = 0;               ///< found occurrences × layers
  std::uint64_t occurrences = 0;               ///< YELT entries × layers
};

/// Aggregate analysis of `portfolio` over `yelt` by definition, with the
/// engine's seed, sampling switch and trial base.
OracleResult run_oracle(const finance::Portfolio& portfolio,
                        const data::YearEventLossTable& yelt, bool secondary,
                        std::uint64_t seed, TrialId trial_base);

/// The oracle for `config`'s seed, sampling switch and trial base.
OracleResult run_oracle(const finance::Portfolio& portfolio,
                        const data::YearEventLossTable& yelt, const core::EngineConfig& config);

/// Asserts `result` equals `expected` bit for bit: portfolio, OEP (when the
/// run computed it), reinstatement and contract YLTs (when kept), lookups
/// and occurrence counts.
void expect_equals_oracle(const core::EngineResult& result, const OracleResult& expected,
                          const std::string& what);

struct Book {
  finance::Portfolio portfolio;
  data::YearEventLossTable yelt;
};

/// `portfolio` and `yelt` with every event id multiplied by `stride`, in
/// both the ELTs and the YELT; layers, contract ids and days unchanged.
Book spread_event_ids(const finance::Portfolio& portfolio, const data::YearEventLossTable& yelt,
                      EventId stride = 1024);

}  // namespace riskan::oracle
