// A golden sampling-on book: stage 2 with secondary uncertainty pinned to
// committed bits.
//
// Sampled losses come from util/lane_math.hpp rather than libm, so a
// sampling-on YLT is the same on every host, compiler and lane width. This
// test pins one: two contracts of two layers each, over ELT rows of every
// sampler class (degenerate three ways, both shapes ≥ 1, an alpha boost, a
// beta boost, and both shapes < 1, which rejects often enough that the
// rejection tail runs), and a 64-trial YELT written out below. Nothing
// that builds the book calls libm. The portfolio AEP and OEP and both
// contract YLTs must equal the hex-float tables below bit for bit on both
// backends, both kernels and both gathers; CI's RISKAN_SIMD=off pass runs
// the width-1 decode against the same tables. A mismatch prints the table
// this host produced, in the form below.
#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "core/secondary.hpp"
#include "data/resolved_yelt.hpp"
#include "finance/contract.hpp"

namespace riskan::core {
namespace {

/// Contract 1: the shapes of test_simd.cpp's sampler_class_elt().
data::EventLossTable elt_one() {
  const Money exposure = 4e6;
  return data::EventLossTable::from_rows({
      {0, 0.0, 1e5, exposure},       // degenerate: zero mean
      {1, exposure, 1e5, exposure},  // degenerate: pinned at the exposure
      {2, 1e6, 1e-6, exposure},      // degenerate: deterministic
      {3, 2e6, 6e5, exposure},       // alpha, beta both >= 1
      {4, 1e5, 2e5, exposure},       // alpha < 1: alpha boost
      {5, 3.9e6, 2e5, exposure},     // beta < 1: beta boost
      {6, 4e5, 1e6, exposure},       // both shapes < 1: rejection-heavy
  });
}

/// Contract 2: the same classes over events 2..8, at another exposure.
data::EventLossTable elt_two() {
  const Money exposure = 2.5e6;
  return data::EventLossTable::from_rows({
      {2, 0.0, 5e4, exposure},
      {3, exposure, 1e5, exposure},
      {4, 8e5, 1e-6, exposure},
      {5, 1.2e6, 4e5, exposure},
      {6, 6e4, 1.5e5, exposure},
      {7, 2.4e6, 1.2e5, exposure},
      {8, 5e5, 9e5, exposure},
  });
}

finance::Portfolio book() {
  finance::Layer low;  // 1.5M xs 200k
  low.terms.occ_retention = 2e5;
  low.terms.occ_limit = 1.5e6;
  finance::Layer high;  // 2M xs 1.7M, 3M aggregate limit
  high.terms.occ_retention = 1.7e6;
  high.terms.occ_limit = 2e6;
  high.terms.agg_limit = 3e6;
  finance::Layer franchise;  // 1M franchise at 500k
  franchise.terms.occ_retention = 5e5;
  franchise.terms.occ_limit = 1e6;
  franchise.terms.retention_kind = finance::RetentionKind::Franchise;
  finance::Layer shared;  // 50% of 1M xs 1.5M, 400k aggregate retention
  shared.terms.occ_retention = 1.5e6;
  shared.terms.occ_limit = 1e6;
  shared.terms.agg_retention = 4e5;
  shared.terms.share = 0.5;
  finance::Portfolio portfolio;
  portfolio.add(finance::Contract(1, elt_one(), {low, high}));
  portfolio.add(finance::Contract(2, elt_two(), {franchise, shared}));
  return portfolio;
}

/// The 64 trials, one string each: the events of its occurrences in order.
constexpr const char* kTrials[64] = {
    "36",    "4",    "5678", "",      "6",     "3366", "8",     "157",  "24",    "6868",
    "0",     "35",   "",     "66",    "4455",  "8",    "7",     "368",  "12",    "6",
    "88",    "3",    "46",   "5",     "6666",  "",     "78",    "0123", "4567",  "8",
    "6",     "36",   "38",   "",      "56",    "4",    "6",     "88",   "7",     "65",
    "13579", "2468", "6",    "8",     "",      "34",   "66",    "8",    "5",     "68",
    "7",     "3",    "46",   "886",   "6",     "0",    "345",   "",     "6",     "8",
    "3636",  "77",   "4",    "68",
};

data::YearEventLossTable lens() {
  data::YearEventLossTable::Builder builder;
  for (const char* trial : kTrials) {
    builder.begin_trial();
    for (const char* e = trial; *e != '\0'; ++e) {
      builder.add(static_cast<EventId>(*e - '0'), static_cast<std::uint16_t>(e - trial));
    }
  }
  return builder.finish();
}

// clang-format off
const std::vector<Money> kAep = {
    0x1.26408935be7eap+21, 0x1.86ap+19, 0x1.e43cc2e5366bep+22, 0x0p+0,
    0x1.ab3fp+21, 0x1.26b23a15c8e9ep+23, 0x0p+0, 0x1.f625a4dd30e3cp+22,
    0x1.86ap+20, 0x1.23f01989ff9ap+22, 0x0p+0, 0x1.d437f94f0f5bap+22,
    0x0p+0, 0x1.17fd7a9bca18ap+19, 0x1.19050f5d3106dp+23, 0x0p+0,
    0x1.38084b0cf9ab4p+20, 0x1.df710db67d42cp+21, 0x1.06738p+22, 0x0p+0,
    0x0p+0, 0x1.8734dd1237cf5p+21, 0x1.86ap+19, 0x1.0a5727d6fdedp+22,
    0x1.a49e6f47b3e1ap+21, 0x0p+0, 0x1.0f6bcb89ea862p+21, 0x1.ee628p+22,
    0x1.8c5c830b3c9cp+22, 0x0p+0, 0x0p+0, 0x1.b7a0bf9834d68p+21,
    0x1.17d8cf418cc46p+22, 0x0p+0, 0x1.0718aac488554p+22, 0x1.dd1f475010d06p+19,
    0x0p+0, 0x0p+0, 0x1.3c79da8bf668cp+20, 0x1.0a16809fe117ap+22,
    0x1.4cba01129aa1ap+23, 0x1.86ap+20, 0x0p+0, 0x0p+0,
    0x0p+0, 0x1.41fdce32fcf12p+22, 0x1.1cdbef259036cp+19, 0x1.00d5a4241de81p+20,
    0x1.12a88p+22, 0x1.90713f926852ap+21, 0x1.3d2dd7e54cb5ep+20, 0x1.efe85160bcc28p+20,
    0x1.86ap+19, 0x1.84d41663e8fb4p+21, 0x0p+0, 0x0p+0,
    0x1.d8bc7b6d20005p+22, 0x0p+0, 0x0p+0, 0x0p+0,
    0x1.b303e05c7cdf9p+22, 0x1.3b23ba6045edp+21, 0x1.86ap+19, 0x0p+0,
};
const std::vector<Money> kOep = {
    0x1.392e6ee4c242ep+21, 0x1.86ap+19, 0x1.12a88p+22, 0x0p+0,
    0x1.ab3fp+21, 0x1.1457106772085p+22, 0x0p+0, 0x1.12a88p+22,
    0x1.86ap+19, 0x1.ab3fp+21, 0x0p+0, 0x1.100caab12efc8p+22,
    0x0p+0, 0x1.17fd7a9bca18ap+19, 0x1.1cb1d35b9d272p+22, 0x0p+0,
    0x1.68dc4b0cf9ab4p+20, 0x1.f7db0db67d42cp+21, 0x1.ab3fp+21, 0x0p+0,
    0x0p+0, 0x1.9f9edd1237cf5p+21, 0x1.86ap+19, 0x1.0a5727d6fdedp+22,
    0x1.a49e6f47b3e1ap+21, 0x0p+0, 0x1.634e1a4a1bbb2p+20, 0x1.ea27798aed56dp+21,
    0x1.0c628c8c32dc5p+22, 0x0p+0, 0x0p+0, 0x1.d00abf9834d68p+21,
    0x1.99ac7b167d1d6p+21, 0x0p+0, 0x1.0718aac488554p+22, 0x1.dd1f475010d06p+19,
    0x0p+0, 0x0p+0, 0x1.6d4dda8bf668cp+20, 0x1.0a16809fe117ap+22,
    0x1.f853b71090f4cp+21, 0x1.86ap+19, 0x0p+0, 0x0p+0,
    0x0p+0, 0x1.1d5ece32fcf12p+22, 0x1.1cdbef259036cp+19, 0x1.31a9a4241de81p+20,
    0x1.1507da2d449dp+22, 0x1.90713f926852ap+21, 0x1.6e01d7e54cb5ep+20, 0x1.105e28b05e614p+21,
    0x1.86ap+19, 0x1.1b6110739acd7p+21, 0x0p+0, 0x0p+0,
    0x1.12a88p+22, 0x0p+0, 0x0p+0, 0x0p+0,
    0x1.e9ca477c70b49p+21, 0x1.677508dd4657fp+20, 0x1.86ap+19, 0x0p+0,
};
const std::vector<Money> kContractOne = {
    0x1.0f1f126b7cfd5p+20, 0x0p+0, 0x1.f95e2c58033d4p+21, 0x0p+0,
    0x1.ab3fp+21, 0x1.a27e742b91d3dp+22, 0x0p+0, 0x1.6e36p+22,
    0x1.86ap+19, 0x1.ab3fp+21, 0x0p+0, 0x1.4a724e9de05f2p+22,
    0x0p+0, 0x0p+0, 0x1.666511873531p+22, 0x0p+0,
    0x0p+0, 0x1.40c00db67d42cp+21, 0x1.06738p+22, 0x0p+0,
    0x0p+0, 0x1.d107ba246f9eap+20, 0x0p+0, 0x1.ab3fp+21,
    0x1.a49e6f47b3e1ap+21, 0x0p+0, 0x0p+0, 0x1.9f0ap+22,
    0x1.ab3fp+21, 0x0p+0, 0x0p+0, 0x1.18efbf9834d68p+21,
    0x1.c522f62cfa3abp+20, 0x0p+0, 0x1.ab3fp+21, 0x1.59fd1d404341ap+17,
    0x0p+0, 0x0p+0, 0x0p+0, 0x1.ab3fp+21,
    0x1.c9c38p+22, 0x1.86ap+19, 0x0p+0, 0x0p+0,
    0x0p+0, 0x1.83a29c65f9e24p+21, 0x0p+0, 0x0p+0,
    0x1.ab3fp+21, 0x1.90713f926852ap+21, 0x0p+0, 0x1.650ca2c179851p+19,
    0x0p+0, 0x1.1b6110739acd7p+21, 0x0p+0, 0x0p+0,
    0x1.1b86fb6d20005p+22, 0x0p+0, 0x0p+0, 0x0p+0,
    0x1.081de05c7cdf9p+22, 0x0p+0, 0x0p+0, 0x0p+0,
};
const std::vector<Money> kContractTwo = {
    0x1.3d62p+20, 0x1.86ap+19, 0x1.cf1b5972699a8p+21, 0x0p+0,
    0x0p+0, 0x1.55ccp+21, 0x0p+0, 0x1.0fdf49ba61c78p+21,
    0x1.86ap+19, 0x1.39426627fe68p+20, 0x0p+0, 0x1.138b55625df9p+21,
    0x0p+0, 0x1.17fd7a9bca18ap+19, 0x1.974a1a6659b95p+21, 0x0p+0,
    0x1.38084b0cf9ab4p+20, 0x1.3d62p+20, 0x0p+0, 0x0p+0,
    0x0p+0, 0x1.3d62p+20, 0x1.86ap+19, 0x1.a5bd3eb7ef67dp+19,
    0x0p+0, 0x0p+0, 0x1.0f6bcb89ea862p+21, 0x1.3d62p+20,
    0x1.6d7a061679381p+21, 0x0p+0, 0x0p+0, 0x1.3d62p+20,
    0x1.4d20236c9c6b7p+21, 0x0p+0, 0x1.8bc9562442aa2p+19, 0x1.86ap+19,
    0x0p+0, 0x0p+0, 0x1.3c79da8bf668cp+20, 0x1.a3b804ff08bd4p+19,
    0x1.9f61044a6a868p+21, 0x1.86ap+19, 0x0p+0, 0x0p+0,
    0x0p+0, 0x1.0059p+21, 0x1.1cdbef259036cp+19, 0x1.00d5a4241de81p+20,
    0x1.e848p+19, 0x0p+0, 0x1.3d2dd7e54cb5ep+20, 0x1.3d62p+20,
    0x1.86ap+19, 0x1.a5cc17c138b72p+19, 0x0p+0, 0x0p+0,
    0x1.7a6bp+21, 0x0p+0, 0x0p+0, 0x0p+0,
    0x1.55ccp+21, 0x1.3b23ba6045edp+21, 0x1.86ap+19, 0x0p+0,
};
// clang-format on

/// Compares every cell; on a mismatch prints the produced table as the
/// literal to commit.
void expect_table(std::span<const Money> actual, const std::vector<Money>& expected,
                  const std::string& what) {
  bool same = actual.size() == expected.size();
  for (std::size_t t = 0; same && t < actual.size(); ++t) {
    same = actual[t] == expected[t];
  }
  if (same) {
    return;
  }
  std::string table;
  char cell[40];
  for (std::size_t t = 0; t < actual.size(); ++t) {
    std::snprintf(cell, sizeof cell, "%s%a,", t % 4 == 0 ? "\n    " : " ", actual[t]);
    table += cell;
  }
  ADD_FAILURE() << what << " differs from its committed table; this host produced:" << table;
}

TEST(GoldenSampling, YltsMatchTheCommittedBits) {
  const auto portfolio = book();
  const auto yelt = lens();
  for (const Backend backend : kAllBackends) {
    for (const Kernel kernel : kAllKernels) {
      for (const bool compact : {false, true}) {
        data::ResolverCache cache;
        EngineConfig config;
        config.backend = backend;
        config.kernel = kernel;
        config.seed = 2012;
        config.secondary_uncertainty = true;
        config.batch_contracts = compact;
        config.resolver_cache = &cache;
        const std::string what = std::string(to_string(backend)) + "/" + to_string(kernel) +
                                 (compact ? "/compact" : "/lookup");
        const EngineResult result = run_aggregate_analysis(portfolio, yelt, config);
        expect_table(result.portfolio_ylt.losses(), kAep, what + " AEP");
        expect_table(result.portfolio_occurrence_ylt.losses(), kOep, what + " OEP");
        ASSERT_EQ(result.contract_ylts.size(), 2u);
        expect_table(result.contract_ylts[0].losses(), kContractOne, what + " contract 1");
        expect_table(result.contract_ylts[1].losses(), kContractTwo, what + " contract 2");
      }
    }
  }
}

TEST(GoldenSampling, TheBookRunsTheRejectionTail) {
  // The fixture pins the fallback too: some first attempt of the book's
  // draws rejects and re-samples on a fresh stream.
  const auto portfolio = book();
  const auto yelt = lens();
  const Philox4x32 engine(2012);
  std::uint64_t fast = 0;
  std::uint64_t tail = 0;
  for (const finance::Contract& contract : portfolio.contracts()) {
    const SecondarySampler sampler(contract.elt());
    std::vector<std::uint32_t> rows;
    std::vector<std::uint64_t> lo;
    for (TrialId t = 0; t < yelt.trials(); ++t) {
      const auto events = yelt.trial_events(t);
      for (std::uint32_t seq = 0; seq < events.size(); ++seq) {
        const std::size_t row = contract.elt().find(events[seq]);
        if (row != data::EventLossTable::npos) {
          rows.push_back(static_cast<std::uint32_t>(row));
          lo.push_back(occurrence_lo_key(t, seq));
        }
      }
    }
    std::vector<Money> out(rows.size());
    sampler.sample_lanes(engine, occurrence_hi_key(contract.id()), rows.data(), lo.data(),
                         rows.size(), out.data(), fast, tail);
  }
  EXPECT_GT(tail, 0u);
  EXPECT_GT(fast, tail);
}

}  // namespace
}  // namespace riskan::core
