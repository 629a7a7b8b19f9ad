// The vector kernel — dispatch, the Kernel::Auto fallback rules and the
// bit-identity contract.
//
// The vectorized kernel is pure scheduling: Kernel::Auto on the Sequential
// and Threaded backends must reproduce Kernel::Scalar to the bit across the
// whole feature matrix (secondary sampling, OEP, batched and per-contract
// entry points, grain sizes, lane tails, low-coverage books, books whose
// ids are too sparse for an event→row table). Auto never rejects a config:
// without a usable ISA (RISKAN_SIMD=off, a foreign ISA, an architecture
// without a stamp) it runs the scalar kernel, so the matrices run
// everywhere and only their lane-count assertions depend on the host.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "core/portfolio_batch.hpp"
#include "core/secondary.hpp"
#include "core/batch_simd.hpp"
#include "core/simd.hpp"
#include "data/elt.hpp"
#include "data/resolved_yelt.hpp"
#include "finance/contract.hpp"
#include "finance/terms.hpp"
#include "obs/obs.hpp"
#include "oracle.hpp"
#include "scenario/sweep.hpp"
#include "util/require.hpp"

namespace riskan::core {
namespace {

/// Scoped environment override that restores the previous value on exit
/// (simd_dispatch() re-reads the environment on every call).
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    if (value) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvGuard() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

TEST(SimdDispatch, DecisionIsSelfConsistent) {
  const exec::SimdDispatch d = exec::simd_dispatch();
  if (d.width > 0) {
    EXPECT_TRUE(d.compiled);
    EXPECT_NE(d.kernel, nullptr);
    EXPECT_NE(d.isa, exec::SimdIsa::None);
    EXPECT_STRNE(d.name, "none");
    EXPECT_TRUE(d.width == 2 || d.width == 4 || d.width == 8) << d.width;
  } else {
    EXPECT_EQ(d.kernel, nullptr);
    EXPECT_EQ(d.isa, exec::SimdIsa::None);
    EXPECT_STRNE(d.reason, "") << "rejection must carry a reason";
  }
}

TEST(SimdDispatch, EnvOffDisablesDispatch) {
  for (const char* off : {"off", "0"}) {
    EnvGuard guard("RISKAN_SIMD", off);
    const exec::SimdDispatch d = exec::simd_dispatch();
    EXPECT_EQ(d.width, 0u) << off;
    EXPECT_EQ(d.kernel, nullptr) << off;
    EXPECT_NE(std::string(d.reason).find("RISKAN_SIMD"), std::string::npos)
        << "reason should name the override: " << d.reason;
  }
}

TEST(SimdDispatch, EnvRequiringForeignIsaRejects) {
  // Requiring the ISA this host does not dispatch must fail closed.
  exec::SimdDispatch base;
  {
    EnvGuard guard("RISKAN_SIMD", nullptr);
    base = exec::simd_dispatch();
  }
  const char* foreign =
      base.isa == exec::SimdIsa::Neon ? "avx2" : "neon";
  EnvGuard guard("RISKAN_SIMD", foreign);
  const exec::SimdDispatch d = exec::simd_dispatch();
  EXPECT_EQ(d.width, 0u);
  EXPECT_EQ(d.kernel, nullptr);
}

TEST(ApplyOccurrenceLanes, MatchesScalarBitwiseBothRetentionKinds) {
  // Property surface of the lane algebra: every element of the dispatched
  // lane call must equal the scalar finance::apply_occurrence bit for bit,
  // including retention/limit boundaries, zeros and odd (tail) lengths.
  for (const auto kind :
       {finance::RetentionKind::Deductible, finance::RetentionKind::Franchise}) {
    finance::LayerTerms terms = finance::LayerTerms::typical();
    terms.occ_retention = 1e6;
    terms.occ_limit = 5e6;
    terms.retention_kind = kind;
    terms.validate();

    const std::vector<Money> ground_up = {
        0.0,    1e5,       1e6 - 1e-3, 1e6,         1e6 + 1e-3,
        2.5e6,  5e6,       6e6 - 1.0,  6e6,         6e6 + 1.0,
        1e9,    1e6 * 0.5, 7.25e6,     // 13 entries: odd, exercises tails
    };
    for (std::size_t n = 0; n <= ground_up.size(); ++n) {
      std::vector<Money> lanes(n, -1.0);
      batch::apply_occurrence_lanes(terms, ground_up.data(), n, lanes.data());
      for (std::size_t i = 0; i < n; ++i) {
        const Money scalar = finance::apply_occurrence(terms, ground_up[i]);
        ASSERT_EQ(lanes[i], scalar)
            << "kind=" << static_cast<int>(kind) << " n=" << n << " i=" << i
            << " gu=" << ground_up[i];
      }
    }
  }
}

/// An ELT covering every parameter class of the batched sampler: zero-mean
/// and pinned-at-exposure degenerates, a deterministic (tiny-sigma) row,
/// both-shapes >= 1, single-boost rows on each side, and a very high-CV row
/// where both shapes sit well below 1 (rejection-heavy).
data::EventLossTable sampler_class_elt() {
  const Money exposure = 4e6;
  std::vector<data::EltRow> rows;
  rows.push_back({0, 0.0, 1e5, exposure});     // degenerate: zero mean
  rows.push_back({1, exposure, 1e5, exposure});  // degenerate: pinned at limit
  rows.push_back({2, 1e6, 1e-6, exposure});    // degenerate: deterministic
  rows.push_back({3, 2e6, 6e5, exposure});     // alpha, beta both >= 1
  rows.push_back({4, 1e5, 2e5, exposure});     // CV 2: alpha < 1 (boost)
  rows.push_back({5, 3.9e6, 2e5, exposure});   // mirrored: beta < 1 (boost)
  rows.push_back({6, 4e5, 1e6, exposure});     // CV 2.5: both shapes < 1
  return data::EventLossTable::from_rows(std::move(rows));
}

TEST(SecondarySamplerLanes, MatchesScalarSampleBitwise) {
  // sample_lanes must commit, per occurrence, exactly the bits the scalar
  // sampler draws from occurrence_stream — fast path and rejection-tail
  // fallback alike — across every parameter class and across batch sizes
  // that exercise sub-width lane tails and the 64-occurrence batching.
  const auto elt = sampler_class_elt();
  const SecondarySampler sampler(elt);
  const Philox4x32 engine(0xB10CDEADu);
  const std::uint64_t hi_key = (std::uint64_t{12} << 16) | 3u;  // any stream key works

  std::uint64_t fast = 0;
  std::uint64_t tail = 0;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5},
        std::size_t{17}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        std::size_t{130}, std::size_t{257}}) {
    std::vector<std::uint32_t> rows(n);
    std::vector<std::uint64_t> lo(n);
    for (std::size_t i = 0; i < n; ++i) {
      rows[i] = static_cast<std::uint32_t>(i % sampler.size());
      lo[i] = (static_cast<std::uint64_t>(i) << 20) | static_cast<std::uint64_t>(i % 7);
    }
    std::vector<Money> out(n, -1.0);
    const std::uint64_t fast_before = fast;
    const std::uint64_t tail_before = tail;
    sampler.sample_lanes(engine, hi_key, rows.data(), lo.data(), n, out.data(), fast,
                         tail);
    EXPECT_EQ((fast - fast_before) + (tail - tail_before), n) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i) {
      PhiloxStream stream(engine, hi_key, lo[i]);
      const Money scalar = sampler.sample(rows[i], stream);
      ASSERT_EQ(out[i], scalar) << "n=" << n << " i=" << i << " row=" << rows[i];
    }
  }

  // The same contract holds with vector dispatch forced off: the facade
  // falls back to the scalar block body without moving a bit.
  EnvGuard guard("RISKAN_SIMD", "off");
  const std::size_t n = 130;
  std::vector<std::uint32_t> rows(n);
  std::vector<std::uint64_t> lo(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows[i] = static_cast<std::uint32_t>(i % sampler.size());
    lo[i] = (static_cast<std::uint64_t>(i) << 20) | static_cast<std::uint64_t>(i % 7);
  }
  std::vector<Money> out(n, -1.0);
  sampler.sample_lanes(engine, hi_key, rows.data(), lo.data(), n, out.data(), fast,
                       tail);
  for (std::size_t i = 0; i < n; ++i) {
    PhiloxStream stream(engine, hi_key, lo[i]);
    ASSERT_EQ(out[i], sampler.sample(rows[i], stream)) << "off-mode i=" << i;
  }
}

TEST(SecondarySamplerLanes, RejectionHeavyRowsExerciseTheFallback) {
  // A table of only very high-CV rows (both gamma shapes < 1) rejects the
  // first Marsaglia–Tsang attempt often enough that the scalar fallback
  // must fire — and every fallback sample still matches the scalar path.
  std::vector<data::EltRow> heavy;
  heavy.push_back({0, 4e5, 1e6, 4e6});
  heavy.push_back({1, 1e5, 2.4e5, 4e6});
  const auto elt = data::EventLossTable::from_rows(std::move(heavy));
  const SecondarySampler sampler(elt);
  const Philox4x32 engine(0x7E57u);
  const std::uint64_t hi_key = (std::uint64_t{1} << 16) | 1u;

  const std::size_t n = 2048;
  std::vector<std::uint32_t> rows(n);
  std::vector<std::uint64_t> lo(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows[i] = static_cast<std::uint32_t>(i & 1);
    lo[i] = static_cast<std::uint64_t>(i) << 20;
  }
  std::vector<Money> out(n);
  std::uint64_t fast = 0;
  std::uint64_t tail = 0;
  sampler.sample_lanes(engine, hi_key, rows.data(), lo.data(), n, out.data(), fast,
                       tail);
  EXPECT_EQ(fast + tail, n);
  EXPECT_GT(tail, 0u) << "high-CV rows should reject some first attempts";
  EXPECT_GT(fast, 0u) << "most first attempts should still accept";
  for (std::size_t i = 0; i < n; ++i) {
    PhiloxStream stream(engine, hi_key, lo[i]);
    ASSERT_EQ(out[i], sampler.sample(rows[i], stream)) << "i=" << i;
  }
}

TEST(MaxRangeLanes, MatchesScalarMaxIncludingTails) {
  // The OEP finish's vector scan: bitwise-equal to the scalar running max on
  // its input class (non-NaN, >= +0.0) for every length and seed value,
  // including ties and sub-width tails.
  const std::vector<Money> values = {0.0, 3.5e6, 1.0, 3.5e6, 2e9,  0.0, 7.25,
                                     2e9, 1e-12, 5.0, 42.0,  42.0, 41.0};
  for (std::size_t n = 0; n <= values.size(); ++n) {
    for (const Money init : {0.0, 1.0, 1e12}) {
      Money scalar = init;
      for (std::size_t i = 0; i < n; ++i) {
        scalar = std::max(scalar, values[i]);
      }
      EXPECT_EQ(batch::max_range_lanes(values.data(), n, init), scalar)
          << "n=" << n << " init=" << init;
    }
  }
  EnvGuard guard("RISKAN_SIMD", "off");
  EXPECT_EQ(batch::max_range_lanes(values.data(), values.size(), 0.0), 2e9);
}

finance::Portfolio simd_book(std::size_t contracts, int layers,
                             std::uint64_t seed = 99, EventId catalog = 800,
                             std::size_t elt_rows = 150) {
  finance::PortfolioGenConfig pg;
  pg.contracts = contracts;
  pg.catalog_events = catalog;
  pg.elt_rows = elt_rows;
  pg.layers_per_contract = layers;
  pg.seed = seed;
  return finance::generate_portfolio(pg);
}

data::YearEventLossTable simd_lens(TrialId trials, EventId catalog = 800,
                                   std::uint64_t seed = 7,
                                   double events_per_year = 10.0) {
  data::YeltGenConfig yg;
  yg.trials = trials;
  yg.seed = seed;
  yg.mean_events_per_year = events_per_year;
  return data::generate_yelt(catalog, yg);
}

void expect_identical(const EngineResult& a, const EngineResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.portfolio_ylt.trials(), b.portfolio_ylt.trials()) << what;
  for (TrialId t = 0; t < a.portfolio_ylt.trials(); ++t) {
    ASSERT_EQ(a.portfolio_ylt[t], b.portfolio_ylt[t]) << what << " AEP trial " << t;
    ASSERT_EQ(a.reinstatement_premium[t], b.reinstatement_premium[t])
        << what << " reinstatement trial " << t;
  }
  ASSERT_EQ(a.portfolio_occurrence_ylt.trials(), b.portfolio_occurrence_ylt.trials())
      << what;
  for (TrialId t = 0; t < a.portfolio_occurrence_ylt.trials(); ++t) {
    ASSERT_EQ(a.portfolio_occurrence_ylt[t], b.portfolio_occurrence_ylt[t])
        << what << " OEP trial " << t;
  }
  ASSERT_EQ(a.contract_ylts.size(), b.contract_ylts.size()) << what;
  for (std::size_t c = 0; c < a.contract_ylts.size(); ++c) {
    for (TrialId t = 0; t < a.contract_ylts[c].trials(); ++t) {
      ASSERT_EQ(a.contract_ylts[c][t], b.contract_ylts[c][t])
          << what << " contract " << c << " trial " << t;
    }
  }
}

/// A run's exec.simd.* occurrence counter deltas.
struct LaneCounts {
  double vector = 0.0;
  double tail = 0.0;
  double scalar = 0.0;
};

LaneCounts lane_counts(const std::shared_ptr<const obs::ObsReport>& report) {
  return {report->metrics.counter_value("exec.simd.vector_occurrences"),
          report->metrics.counter_value("exec.simd.tail_occurrences"),
          report->metrics.counter_value("exec.simd.scalar_occurrences")};
}

/// Runs `config` with a metrics report; returns the result and its counts.
std::pair<EngineResult, LaneCounts> run_counted(const finance::Portfolio& portfolio,
                                                const data::YearEventLossTable& yelt,
                                                EngineConfig config) {
  config.obs.collect_report = true;
  auto result = run_aggregate_analysis(portfolio, yelt, config);
  const LaneCounts counts = lane_counts(result.obs_report);
  return {std::move(result), counts};
}

EngineResult run_scalar(const finance::Portfolio& portfolio,
                        const data::YearEventLossTable& yelt, EngineConfig config) {
  config.kernel = Kernel::Scalar;
  return run_aggregate_analysis(portfolio, yelt, config);
}

TEST(SimdDispatch, AutoUnderEnvOffRunsScalarAndEqualsScalar) {
  // RISKAN_SIMD=off takes the vector kernel away on every build; Auto must
  // then run — not reject — the scalar kernel.
  const auto portfolio = simd_book(/*contracts=*/2, /*layers=*/2);
  const auto yelt = simd_lens(400);
  for (const Backend backend : kAllBackends) {
    EngineConfig config;
    config.backend = backend;
    const auto reference = run_scalar(portfolio, yelt, config);
    EnvGuard guard("RISKAN_SIMD", "off");
    const auto [result, counts] = run_counted(portfolio, yelt, config);
    expect_identical(reference, result, std::string("env-off/") + to_string(backend));
    EXPECT_EQ(counts.vector, 0.0) << to_string(backend);
    if (obs::enabled()) {
      EXPECT_EQ(counts.scalar, static_cast<double>(result.occurrences_processed))
          << to_string(backend);
    }
  }
}

TEST(SimdDispatch, AutoWithUnusableIsaRunsScalar) {
  // Requiring an ISA this host cannot run leaves Auto without a vector
  // kernel — the case of a host or architecture without one. The config
  // still validates and the scalar kernel runs.
  exec::SimdDispatch base;
  {
    EnvGuard guard("RISKAN_SIMD", nullptr);
    base = exec::simd_dispatch();
  }
  const auto portfolio = simd_book(/*contracts=*/2, /*layers=*/2);
  const auto yelt = simd_lens(400);
  const auto reference = run_scalar(portfolio, yelt, {});

  EnvGuard guard("RISKAN_SIMD", base.isa == exec::SimdIsa::Neon ? "avx2" : "neon");
  ASSERT_EQ(exec::simd_dispatch().kernel, nullptr);
  EXPECT_NO_THROW(validate_engine_config(EngineConfig{}));
  const auto [result, counts] = run_counted(portfolio, yelt, {});
  expect_identical(reference, result, "foreign ISA");
  EXPECT_EQ(counts.vector, 0.0);
}

TEST(VectorKernel, DefaultConfigRunsTheVectorKernel) {
  // The default EngineConfig (Threaded × Auto) takes the vector kernel on
  // any host that dispatches an ISA, and still equals the scalar kernel bit
  // for bit.
  const auto portfolio = simd_book(/*contracts=*/3, /*layers=*/2);
  const auto yelt = simd_lens(900);
  for (const bool batched : {false, true}) {
    EngineConfig config;
    config.batch_contracts = batched;
    const auto reference = run_scalar(portfolio, yelt, config);
    const auto [result, counts] = run_counted(portfolio, yelt, config);
    const std::string what = batched ? "batched" : "per-contract";
    expect_identical(reference, result, what);
    if (obs::enabled() && exec::simd_available()) {
      EXPECT_GT(counts.vector, 0.0) << what;
      EXPECT_EQ(counts.scalar, 0.0) << what;
    }
  }
}

TEST(VectorKernel, LowCoverageDenseBookWalksHitsOnly) {
  // The per-contract lowering reads every occurrence's row from the ELT's
  // event→row table. With each ELT over ~10% of the catalogue most
  // occurrences miss; the vector
  // pass must walk the hits only — its lane count is found rows × layers,
  // not YELT entries × layers — and still equal the scalar kernel.
  const EventId catalog = 2'000;
  const auto portfolio = simd_book(/*contracts=*/4, /*layers=*/3, /*seed=*/17, catalog,
                                   /*elt_rows=*/200);
  const auto yelt = simd_lens(1'300, catalog, /*seed=*/29, /*events_per_year=*/12.0);
  for (const bool secondary : {false, true}) {
    for (const bool oep : {false, true}) {
      for (const Backend backend : kAllBackends) {
        EngineConfig config;
        config.backend = backend;
        config.trial_grain = 97;
        config.secondary_uncertainty = secondary;
        config.compute_oep = oep;
        const auto reference = run_scalar(portfolio, yelt, config);
        const auto [result, counts] = run_counted(portfolio, yelt, config);
        const std::string what = std::string(to_string(backend)) +
                                 (secondary ? "/secondary" : "/means") +
                                 (oep ? "/oep" : "");
        expect_identical(reference, result, what);
        EXPECT_EQ(reference.elt_lookups, result.elt_lookups) << what;
        ASSERT_LT(result.elt_lookups * 5, result.occurrences_processed)
            << "the book should miss most occurrences";
        if (obs::enabled() && exec::simd_available()) {
          EXPECT_EQ(counts.vector + counts.tail, static_cast<double>(result.elt_lookups))
              << what;
          EXPECT_EQ(counts.scalar, 0.0) << what;
        }
      }
    }
  }
}

TEST(VectorKernel, SparseIdBookEqualsTheScalarKernel) {
  // Spread ids leave every ELT without an event→row table, so per-contract
  // lookup groups binary-search in the scalar kernel even under Auto, while
  // the batched lowering's compact groups still vectorize. Either way Auto
  // equals Scalar, and both equal the same book with dense ids.
  const auto dense = simd_book(/*contracts=*/3, /*layers=*/2);
  const auto dense_lens = simd_lens(900);
  const auto sparse = oracle::spread_event_ids(dense, dense_lens);
  for (const auto& contract : sparse.portfolio.contracts()) {
    ASSERT_TRUE(contract.elt().row_lookup().empty());
  }
  for (const bool secondary : {false, true}) {
    for (const bool batched : {false, true}) {
      for (const Backend backend : kAllBackends) {
        EngineConfig config;
        config.backend = backend;
        config.secondary_uncertainty = secondary;
        config.batch_contracts = batched;
        config.trial_grain = 97;
        const auto reference = run_scalar(sparse.portfolio, sparse.yelt, config);
        const auto [result, counts] = run_counted(sparse.portfolio, sparse.yelt, config);
        const std::string what = std::string(to_string(backend)) +
                                 (secondary ? "/secondary" : "/means") +
                                 (batched ? "/batched" : "/per-contract");
        expect_identical(reference, result, what);
        EXPECT_EQ(reference.elt_lookups, result.elt_lookups) << what;
        expect_identical(run_scalar(dense, dense_lens, config), result, what + " vs dense ids");
        if (obs::enabled()) {
          EXPECT_EQ(counts.vector > 0.0, batched && exec::simd_available()) << what;
        }
      }
    }
  }
}

TEST(VectorKernel, BitIdenticalToScalarAcrossFeatureMatrix) {
  const auto portfolio = simd_book(/*contracts=*/6, /*layers=*/3);
  const auto yelt = simd_lens(1'500);

  for (const bool secondary : {false, true}) {
    for (const bool batched : {false, true}) {
      EngineConfig config;
      config.backend = Backend::Sequential;
      config.secondary_uncertainty = secondary;
      config.batch_contracts = batched;
      const auto reference = run_scalar(portfolio, yelt, config);

      const auto simd = run_aggregate_analysis(portfolio, yelt, config);
      const std::string what = std::string(secondary ? "secondary" : "means") +
                               (batched ? "/batched" : "/per-contract");
      expect_identical(reference, simd, "sequential/" + what);
      EXPECT_EQ(reference.elt_lookups, simd.elt_lookups) << what;
      EXPECT_EQ(reference.occurrences_processed, simd.occurrences_processed) << what;

      for (const std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{97}}) {
        config.backend = Backend::Threaded;
        config.trial_grain = grain;
        const auto threaded = run_aggregate_analysis(portfolio, yelt, config);
        expect_identical(reference, threaded,
                         "threaded/" + what + "/grain=" + std::to_string(grain));
      }
    }
  }
}

TEST(VectorKernel, LaneTailsOnHeavyAndOddHitCounts) {
  // An ELT covering the full catalogue makes every occurrence a hit, and a
  // high occurrence rate gives trials with hit counts well past the vector
  // width — including counts not divisible by it, so the scalar lane tail
  // runs on most trials. A second, thin lens (1–2 events per year) keeps
  // sub-width trials in the mix.
  const EventId catalog = 120;
  const auto portfolio =
      simd_book(/*contracts=*/3, /*layers=*/2, /*seed=*/5, catalog,
                /*elt_rows=*/catalog);
  for (const double events_per_year : {1.5, 23.0}) {
    const auto yelt = simd_lens(600, catalog, /*seed=*/13, events_per_year);
    for (const bool secondary : {false, true}) {
      for (const bool batched : {false, true}) {
        EngineConfig config;
        config.secondary_uncertainty = secondary;
        config.batch_contracts = batched;
        config.backend = Backend::Sequential;
        const auto reference = run_scalar(portfolio, yelt, config);
        const auto simd = run_aggregate_analysis(portfolio, yelt, config);
        expect_identical(reference, simd,
                         "tails/rate=" + std::to_string(events_per_year) +
                             (secondary ? "/secondary" : "/means") +
                             (batched ? "/batched" : "/per-contract"));
      }
    }
  }
}

TEST(SimdTower, MultiSlotGroupsStayOnTheVectorPath) {
  // A contract's layers form one gather group; the vector pass must take
  // the whole tower — compact (batched) and dense (per-contract) — with no
  // scalar fallback, bit-identical to the scalar kernel, across OEP ×
  // secondary and lane-tail hit counts.
  const auto portfolio = simd_book(/*contracts=*/4, /*layers=*/3);
  for (const double events_per_year : {1.5, 10.0, 37.0}) {
    const auto yelt = simd_lens(700, 800, /*seed=*/19, events_per_year);
    for (const bool batched : {false, true}) {
      for (const bool secondary : {false, true}) {
        for (const bool oep : {false, true}) {
          EngineConfig config;
          config.batch_contracts = batched;
          config.secondary_uncertainty = secondary;
          config.compute_oep = oep;
          config.backend = Backend::Sequential;
          const auto reference = run_scalar(portfolio, yelt, config);
          const auto [simd, counts] = run_counted(portfolio, yelt, config);
          const std::string what = std::string(batched ? "batched" : "per-contract") +
                                   (secondary ? "/secondary" : "/means") +
                                   (oep ? "/oep" : "") +
                                   "/rate=" + std::to_string(events_per_year);
          expect_identical(reference, simd, what);
          EXPECT_EQ(reference.elt_lookups, simd.elt_lookups) << what;
          if (obs::enabled() && exec::simd_available()) {
            EXPECT_GT(counts.vector, 0.0) << what;
            EXPECT_EQ(counts.scalar, 0.0) << what;
          }
        }
      }
    }
  }
}

TEST(SimdTower, WideScenarioGroupsVectorizeWithoutMasks) {
  // Surge and conditioning scenarios widen each contract's group to
  // (layers × scenarios) slots — wider than one trial block of annual
  // sums, so the vector pass sub-blocks the trials. Only a mask column
  // sends a group to the scalar kernel.
  const auto portfolio = simd_book(/*contracts=*/3, /*layers=*/4);
  const auto yelt = simd_lens(1'100);
  std::vector<scenario::ScenarioSpec> specs;
  for (int i = 0; i < 12; ++i) {
    scenario::ScenarioSpec spec;
    spec.name = "surge-" + std::to_string(i);
    spec.loss_scale = 1.0 + 0.05 * (i + 1);
    specs.push_back(spec);
  }
  scenario::ScenarioSpec post;
  post.name = "post-event";
  post.conditioning =
      scenario::PostEventConditioning{portfolio.contract(1).elt().event_ids()[3], 0.9};
  specs.push_back(post);
  scenario::ScenarioSpec mask;
  mask.name = "mask";
  mask.excluded_events = {1, 2, 3, 5, 8, 13, 21};

  for (const bool with_mask : {false, true}) {
    auto run_specs = specs;
    if (with_mask) {
      run_specs.push_back(mask);
    }
    for (const bool secondary : {false, true}) {
      EngineConfig config;
      config.secondary_uncertainty = secondary;
      config.backend = Backend::Sequential;
      config.kernel = Kernel::Scalar;
      const auto reference = scenario::run_scenario_sweep(portfolio, yelt, run_specs, config);
      config.kernel = Kernel::Auto;
      config.obs.collect_report = true;
      const auto simd = scenario::run_scenario_sweep(portfolio, yelt, run_specs, config);
      const LaneCounts counts = lane_counts(simd.obs_report);
      const std::string what = std::string(with_mask ? "masked" : "mask-free") +
                               (secondary ? "/secondary" : "/means");
      expect_identical(reference.base, simd.base, what + " base");
      for (std::size_t s = 0; s < run_specs.size(); ++s) {
        expect_identical(reference.scenarios[s], simd.scenarios[s],
                         what + " " + run_specs[s].name);
      }
      if (obs::enabled()) {
        // The mask rides every contract's group, so it takes them all —
        // and with no vector group left the plan runs the scalar kernel
        // directly, its occurrences still counted.
        EXPECT_EQ(counts.vector > 0.0, !with_mask && exec::simd_available()) << what;
        EXPECT_EQ(counts.scalar > 0.0, with_mask || !exec::simd_available()) << what;
      }
    }
  }
}

TEST(SimdTower, GroupsWiderThanTheAnnualBufferMatchTheScalarKernel) {
  // One contract read by 4100 slots — more than the vector pass's annual
  // buffer holds for even one trial — must fall back to the scalar kernel
  // and still match it, rather than overrun the buffer.
  const exec::SimdDispatch dispatch = exec::simd_dispatch();
  if (dispatch.kernel == nullptr) {
    GTEST_SKIP() << "no wide ISA dispatched on this build/host";
  }
  const auto portfolio = simd_book(/*contracts=*/1, /*layers=*/1);
  const auto yelt = simd_lens(12);
  const auto& contract = portfolio.contract(0);
  data::ResolverCache cache;
  const auto compact = cache.get_or_build(contract.elt(), yelt, {});
  const SecondarySampler sampler(contract.elt());

  constexpr std::size_t kSlots = 4'100;
  static_assert(kSlots > batch::kVectorAnnuals);
  std::vector<Money> scalar_losses(yelt.trials(), 0.0);
  std::vector<Money> simd_losses(yelt.trials(), 0.0);
  std::vector<Money> scalar_reinst(yelt.trials(), 0.0);
  std::vector<Money> simd_reinst(yelt.trials(), 0.0);
  const auto make_slots = [&](std::vector<Money>& losses, std::vector<Money>& reinst) {
    std::vector<batch::Slot> slots(kSlots);
    for (std::size_t i = 0; i < kSlots; ++i) {
      batch::Slot& s = slots[i];
      s.hit_offsets = compact->trial_offsets().data();
      s.seqs = compact->seqs().data();
      s.rows = compact->rows().data();
      s.elt = &contract.elt();
      s.means = contract.elt().mean_loss().data();
      s.sampler = &sampler;
      s.contract_id = contract.id();
      s.terms = contract.layers().front().terms;
      s.terms.occ_retention *= 1.0 + 1e-4 * static_cast<double>(i % 97);
      s.portfolio_losses = losses;
      s.reinstatement_prem = reinst;
    }
    return slots;
  };
  const auto scalar_slots = make_slots(scalar_losses, scalar_reinst);
  const auto simd_slots = make_slots(simd_losses, simd_reinst);
  const auto groups = batch::group_slots(scalar_slots);
  ASSERT_EQ(groups.size(), 1u);

  const Philox4x32 philox(2012);
  std::vector<Money> scratch(kSlots);
  batch::SimdStats stats;
  (void)batch::process_trials(scalar_slots, groups, yelt.offsets(), philox, true, 0, 0,
                              yelt.trials(), scratch, {});
  (void)dispatch.kernel(simd_slots, groups, yelt.offsets(), philox, true, 0, 0,
                        yelt.trials(), scratch, {}, stats);
  EXPECT_EQ(stats.vector_occurrences, 0u);
  EXPECT_GT(stats.scalar_occurrences, 0u);
  for (TrialId t = 0; t < yelt.trials(); ++t) {
    ASSERT_EQ(scalar_losses[t], simd_losses[t]) << t;
    ASSERT_EQ(scalar_reinst[t], simd_reinst[t]) << t;
  }
}

TEST(VectorKernel, EmptyAndDegenerateTrials) {
  // Near-empty lens: most trials have zero occurrences (n == 0 early-out).
  const auto portfolio = simd_book(/*contracts=*/2, /*layers=*/1);
  const auto yelt = simd_lens(400, 800, /*seed=*/3, /*events_per_year=*/0.3);

  for (const bool batched : {false, true}) {
    EngineConfig config;
    config.batch_contracts = batched;
    config.backend = Backend::Sequential;
    const auto reference = run_scalar(portfolio, yelt, config);
    const auto simd = run_aggregate_analysis(portfolio, yelt, config);
    expect_identical(reference, simd, batched ? "sparse lens/batched" : "sparse lens");
  }
}

}  // namespace
}  // namespace riskan::core
