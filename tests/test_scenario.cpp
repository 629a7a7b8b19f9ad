// Scenario engine — what-if sweeps sharing one streamed YELT pass.
//
// The sweep's value rests on two hard equivalence contracts (ISSUE 3):
//   * the identity scenario is bit-identical to run_portfolio_batch on the
//     base book, even while perturbed scenarios ride the same pass;
//   * an exclusion-mask scenario is bit-identical to run_portfolio_batch on
//     the physically filtered YELT (filter_yelt) — including secondary
//     uncertainty, whose streams are keyed by the occurrence sequence the
//     occurrence would have in the filtered table.
// Both are checked across backends × secondary-uncertainty × grain sizes.
// Beyond those, term overrides / contract add+drop are bit-identical to
// physically materialised books, loss scaling to physically scaled ELTs on
// the means path, conditioning is consistent with PostEventAnalyzer, and
// the planner's dedupe telemetry (shared resolutions, mask dedupe) is
// asserted against a private ResolverCache.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <latch>
#include <limits>
#include <mutex>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "core/portfolio_batch.hpp"
#include "core/post_event.hpp"
#include "core/streaming.hpp"
#include "data/resolved_yelt.hpp"
#include "data/serialize.hpp"
#include "data/trial_source.hpp"
#include "finance/contract.hpp"
#include "obs/obs.hpp"
#include "oracle.hpp"
#include "scenario/plan.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"
#include "util/bytes.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"

namespace riskan::scenario {
namespace {

finance::Portfolio book(std::size_t contracts, int layers, std::uint64_t seed = 99,
                        EventId catalog = 800, std::size_t elt_rows = 150) {
  finance::PortfolioGenConfig pg;
  pg.contracts = contracts;
  pg.catalog_events = catalog;
  pg.elt_rows = elt_rows;
  pg.layers_per_contract = layers;
  pg.seed = seed;
  return finance::generate_portfolio(pg);
}

data::YearEventLossTable lens(TrialId trials, EventId catalog = 800,
                              std::uint64_t seed = 7) {
  data::YeltGenConfig yg;
  yg.trials = trials;
  yg.seed = seed;
  return data::generate_yelt(catalog, yg);
}

void expect_identical(const core::EngineResult& a, const core::EngineResult& b,
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

/// A set of events that actually occur in the generated YELT and hit the
/// generated book, so exclusion scenarios change real losses.
std::vector<EventId> busy_events() { return {1, 2, 3, 5, 8, 13, 21, 34, 55, 89}; }

/// One row of the equivalence matrices: where the plan runs and which
/// host kernel runs the sweep (references run the scalar kernel).
struct ExecRow {
  core::Backend backend;
  core::Kernel kernel;
};

/// Every backend under both kernels. Auto rows run the vector kernel
/// wherever an ISA dispatches (mask scenarios exercise its scalar rule)
/// and the scalar kernel elsewhere, so nothing skips.
std::vector<ExecRow> exec_rows() {
  std::vector<ExecRow> rows;
  for (const core::Backend backend : core::kAllBackends) {
    for (const core::Kernel kernel : core::kAllKernels) {
      rows.push_back({backend, kernel});
    }
  }
  return rows;
}

std::string row_name(const ExecRow& row) {
  return std::string(core::to_string(row.backend)) + "/" + core::to_string(row.kernel);
}

/// `config` with the row's backend, under the scalar kernel (the reference
/// side of a row) or the row's kernel.
core::EngineConfig with_row(core::EngineConfig config, const ExecRow& row, bool reference) {
  config.backend = row.backend;
  config.kernel = reference ? core::Kernel::Scalar : row.kernel;
  return config;
}

TEST(ScenarioSweep, IdentityBitIdenticalAcrossBackendsGrainsAndSecondary) {
  const auto portfolio = book(/*contracts=*/4, /*layers=*/3);
  const auto yelt = lens(1'200);

  // The identity rides alongside perturbed scenarios — sharing the pass
  // with them must not contaminate it.
  std::vector<ScenarioSpec> specs(3);
  specs[0] = ScenarioSpec::identity("identity");
  specs[1].name = "surge";
  specs[1].loss_scale = 1.4;
  specs[2].name = "exclusion";
  specs[2].excluded_events = busy_events();

  for (const bool secondary : {false, true}) {
    for (const ExecRow& row : exec_rows()) {
      for (const std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{97}}) {
        if (row.backend != core::Backend::Threaded && grain != 0) {
          continue;  // grain only affects the chunk-partitioned backend
        }
        core::EngineConfig config;
        config.secondary_uncertainty = secondary;
        config.trial_grain = grain;

        const auto reference =
            core::run_portfolio_batch(portfolio, yelt, with_row(config, row, true));
        const auto sweep =
            run_scenario_sweep(portfolio, yelt, specs, with_row(config, row, false));

        const std::string what = row_name(row) + (secondary ? "/secondary" : "/means") +
                                 "/grain=" + std::to_string(grain);
        expect_identical(reference, sweep.base, what + " base");
        expect_identical(reference, sweep.scenarios[0], what + " identity");
        // Every backend lowers through the same plan, so the lookup
        // telemetry agrees too.
        EXPECT_EQ(reference.elt_lookups, sweep.base.elt_lookups) << what;
        EXPECT_EQ(reference.occurrences_processed, sweep.base.occurrences_processed)
            << what;
        // The perturbed scenarios really are perturbed.
        EXPECT_NE(sweep.scenarios[1].portfolio_ylt.total(),
                  reference.portfolio_ylt.total())
            << what;
      }
    }
  }
}

TEST(ScenarioSweep, MaskBitIdenticalToFilteredYeltAcrossBackendsGrainsAndSecondary) {
  const auto portfolio = book(/*contracts=*/4, /*layers=*/2);
  const auto yelt = lens(1'200);
  const auto excluded = busy_events();
  const auto filtered = filter_yelt(yelt, excluded);
  ASSERT_LT(filtered.entries(), yelt.entries()) << "mask must remove occurrences";

  std::vector<ScenarioSpec> specs(1);
  specs[0].name = "mask";
  specs[0].excluded_events = excluded;

  for (const bool secondary : {false, true}) {
    for (const ExecRow& row : exec_rows()) {
      for (const std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{97}}) {
        if (row.backend != core::Backend::Threaded && grain != 0) {
          continue;
        }
        core::EngineConfig config;
        config.secondary_uncertainty = secondary;
        config.trial_grain = grain;

        const auto reference =
            core::run_portfolio_batch(portfolio, filtered, with_row(config, row, true));
        const auto sweep =
            run_scenario_sweep(portfolio, yelt, specs, with_row(config, row, false));

        expect_identical(reference, sweep.scenarios[0],
                         row_name(row) + (secondary ? "/secondary" : "/means") +
                             "/grain=" + std::to_string(grain) + " mask");
      }
    }
  }
}

TEST(ScenarioSweep, MaskOnRejectionHeavyBookBitIdenticalToFilteredYelt) {
  // High-CV ELT rows (both beta shapes < 1) make the batched sampler's
  // rejection-tail fallback fire constantly; the mask re-keys occurrence
  // sequences on top of that. The filtered-table equivalence must survive
  // the combination on every backend, vectorized ones included.
  const EventId catalog = 80;
  std::vector<data::EltRow> heavy_rows;
  for (EventId e = 0; e < catalog; ++e) {
    const Money mean = 1e5 + 2e4 * static_cast<Money>(e % 9);
    heavy_rows.push_back({e, mean, 2.3 * mean, 4e6});
  }
  finance::Layer layer;
  layer.id = 1;
  layer.terms = finance::LayerTerms::typical();
  layer.terms.occ_retention = 5e4;
  layer.terms.occ_limit = 3e6;
  finance::Portfolio portfolio;
  portfolio.add(
      finance::Contract(1, data::EventLossTable::from_rows(heavy_rows), {layer}));

  const auto yelt = lens(500, catalog, /*seed=*/23);
  const std::vector<EventId> excluded = {2, 7, 11, 30, 55};
  const auto filtered = filter_yelt(yelt, excluded);
  ASSERT_LT(filtered.entries(), yelt.entries());

  std::vector<ScenarioSpec> specs(1);
  specs[0].name = "mask";
  specs[0].excluded_events = excluded;

  for (const ExecRow& row : exec_rows()) {
    core::EngineConfig config;
    config.secondary_uncertainty = true;

    const auto reference =
        core::run_portfolio_batch(portfolio, filtered, with_row(config, row, true));
    const auto sweep =
        run_scenario_sweep(portfolio, yelt, specs, with_row(config, row, false));
    expect_identical(reference, sweep.scenarios[0], "rejection-heavy mask/" + row_name(row));
  }
}

TEST(ScenarioSweep, CrowdedTrialsKeepBothContracts) {
  // Hundreds of occurrences per trial, every one a hit: a trial overflows
  // the kernel's per-trial buffer, so masks, loss scaling and conditioning
  // run through the chunked path. Both equivalence contracts must hold
  // there too, and the per-contract lowering must match the batched one.
  const EventId catalog = 150;
  const auto portfolio =
      book(/*contracts=*/2, /*layers=*/3, /*seed=*/31, catalog, /*elt_rows=*/catalog);
  data::YeltGenConfig yg;
  yg.trials = 30;
  yg.seed = 41;
  yg.mean_events_per_year = 650.0;
  const auto yelt = data::generate_yelt(catalog, yg);
  const std::vector<EventId> excluded = {3, 17, 40, 99};
  const auto filtered = filter_yelt(yelt, excluded);

  std::vector<ScenarioSpec> specs(4);
  specs[0] = ScenarioSpec::identity("identity");
  specs[1].name = "mask";
  specs[1].excluded_events = excluded;
  specs[2].name = "surge";
  specs[2].loss_scale = 1.3;
  specs[3].name = "post-event";
  specs[3].conditioning =
      PostEventConditioning{portfolio.contract(0).elt().event_ids()[5], 1.2};

  for (const ExecRow& row : exec_rows()) {
    core::EngineConfig config;
    config.secondary_uncertainty = true;
    const core::EngineConfig ref_config = with_row(config, row, true);
    config = with_row(config, row, false);
    const std::string what = row_name(row);

    const auto reference = core::run_portfolio_batch(portfolio, yelt, ref_config);
    const auto sweep = run_scenario_sweep(portfolio, yelt, specs, config);
    expect_identical(reference, sweep.base, what + " base");
    expect_identical(reference, sweep.scenarios[0], what + " identity");
    expect_identical(core::run_portfolio_batch(portfolio, filtered, ref_config),
                     sweep.scenarios[1], what + " mask");

    config.batch_contracts = false;
    expect_identical(reference, core::run_aggregate_analysis(portfolio, yelt, config),
                     what + " per-contract");
  }
}

TEST(ScenarioSweep, DeviceSimBlockDimSweepIsBitIdentical) {
  // The device model prices the sweep's plan like any other; its block
  // partition (32/128/512 trials per block) is pure accounting and must
  // not move a bit of any scenario's outputs vs the unmodeled pass.
  const auto portfolio = book(/*contracts=*/3, /*layers=*/2);
  const auto yelt = lens(900);

  std::vector<ScenarioSpec> specs(2);
  specs[0].name = "surge";
  specs[0].loss_scale = 1.3;
  specs[1].name = "exclusion";
  specs[1].excluded_events = busy_events();

  core::EngineConfig config;
  config.backend = core::Backend::Sequential;
  const auto reference = run_scenario_sweep(portfolio, yelt, specs, config);

  for (const int block_dim : {32, 128, 512}) {
    core::DeviceRunInfo info;
    config.device_info = &info;
    config.device_block_dim = block_dim;
    const auto device = run_scenario_sweep(portfolio, yelt, specs, config);
    EXPECT_EQ(info.launches, 1);
    const std::string what = "sweep block dim " + std::to_string(block_dim);
    expect_identical(reference.base, device.base, what + " base");
    for (std::size_t s = 0; s < reference.scenarios.size(); ++s) {
      expect_identical(reference.scenarios[s], device.scenarios[s],
                       what + " scenario " + std::to_string(s));
    }
  }
}

TEST(ScenarioSweep, TermOverridesBitIdenticalToMaterializedBook) {
  const auto portfolio = book(/*contracts=*/3, /*layers=*/3);
  const auto yelt = lens(1'000);

  ScenarioSpec spec;
  spec.name = "re-strike";
  // Double one layer's attachment, halve another contract's shares, and add
  // a reinstatement schedule — addressed both per-layer and whole-contract.
  TargetedOverride raise_attach;
  raise_attach.contract = portfolio.contract(0).id();
  raise_attach.layer = portfolio.contract(0).layers()[1].id;
  raise_attach.override.occ_retention =
      portfolio.contract(0).layers()[1].terms.occ_retention * 2.0;
  spec.overrides.push_back(raise_attach);

  TargetedOverride halve_share;
  halve_share.contract = portfolio.contract(2).id();
  halve_share.override.share = 0.5;
  spec.overrides.push_back(halve_share);

  TargetedOverride reinstate;
  reinstate.contract = portfolio.contract(1).id();
  reinstate.layer = portfolio.contract(1).layers()[0].id;
  reinstate.override.reinstatement_count = 2;
  reinstate.override.reinstatement_rate = 1.0;
  reinstate.override.upfront_premium = 1e6;
  spec.overrides.push_back(reinstate);

  const auto materialized = materialize_portfolio(spec, portfolio);

  for (const bool secondary : {false, true}) {
    core::EngineConfig config;
    config.backend = core::Backend::Threaded;
    config.secondary_uncertainty = secondary;

    const auto reference = core::run_portfolio_batch(materialized, yelt, config);
    const auto sweep = run_scenario_sweep(portfolio, yelt, {&spec, 1}, config);
    expect_identical(reference, sweep.scenarios[0],
                     secondary ? "overrides/secondary" : "overrides/means");
    // The sweep's base stays the unmodified book.
    expect_identical(core::run_portfolio_batch(portfolio, yelt, config), sweep.base,
                     "base alongside overrides");
  }
}

TEST(ScenarioSweep, DropAndAddBitIdenticalToMaterializedBook) {
  const auto portfolio = book(/*contracts=*/4, /*layers=*/2, /*seed=*/11);
  const auto extra_book = book(/*contracts=*/2, /*layers=*/2, /*seed=*/333);
  const auto yelt = lens(900);

  ScenarioSpec spec;
  spec.name = "recompose";
  spec.dropped_contracts = {portfolio.contract(1).id()};
  spec.added_contracts = {&extra_book.contract(0)};

  const auto materialized = materialize_portfolio(spec, portfolio);
  ASSERT_EQ(materialized.size(), portfolio.size());  // -1 drop, +1 add

  core::EngineConfig config;
  config.backend = core::Backend::Threaded;
  const auto reference = core::run_portfolio_batch(materialized, yelt, config);
  const auto sweep = run_scenario_sweep(portfolio, yelt, {&spec, 1}, config);
  expect_identical(reference, sweep.scenarios[0], "drop+add");
}

TEST(ScenarioSweep, LossScaleBitIdenticalToScaledEltOnMeansPath) {
  const auto portfolio = book(/*contracts=*/3, /*layers=*/2);
  const auto yelt = lens(800);
  const double scale = 1.35;

  // Physically scale every ELT mean — the demand-surge reference book.
  finance::Portfolio scaled;
  for (const auto& contract : portfolio.contracts()) {
    const auto& elt = contract.elt();
    std::vector<data::EltRow> rows;
    rows.reserve(elt.size());
    for (std::size_t i = 0; i < elt.size(); ++i) {
      rows.push_back({elt.event_ids()[i], elt.mean_loss()[i] * scale,
                      elt.sigma_loss()[i], elt.exposure()[i]});
    }
    scaled.add(finance::Contract(contract.id(), data::EventLossTable::from_rows(rows),
                                 contract.layers(), contract.region(), contract.lob(),
                                 contract.peril()));
  }

  ScenarioSpec spec;
  spec.name = "surge";
  spec.loss_scale = scale;

  core::EngineConfig config;
  config.backend = core::Backend::Threaded;
  config.secondary_uncertainty = false;  // sampling responds nonlinearly to the
                                         // mean; the bit-contract is means-path
  const auto reference = core::run_portfolio_batch(scaled, yelt, config);
  const auto sweep = run_scenario_sweep(portfolio, yelt, {&spec, 1}, config);
  expect_identical(reference, sweep.scenarios[0], "loss scale means path");

  // Under secondary uncertainty the semantic is "scale the sampled loss":
  // strictly monotone in the scale.
  config.secondary_uncertainty = true;
  const auto sweep2 = run_scenario_sweep(portfolio, yelt, {&spec, 1}, config);
  EXPECT_GT(sweep2.scenarios[0].portfolio_ylt.total(), sweep2.base.portfolio_ylt.total());
}

TEST(ScenarioSweep, ConditioningSubsumesPostEventWhatIf) {
  // Single contract, single layer, share 1, no binding aggregate: the
  // conditioned trial loss is base + the event's occurrence loss, and that
  // occurrence loss is exactly what PostEventAnalyzer reports.
  const EventId event = 42;
  std::vector<data::EltRow> rows;
  for (EventId e = 0; e < 100; ++e) {
    rows.push_back({e, 2e6 + 1e4 * e, 5e5, 1e7});
  }
  finance::Layer layer;
  layer.id = 0;
  layer.terms.occ_retention = 1e6;
  layer.terms.occ_limit = 8e6;
  layer.terms.agg_retention = 0.0;
  layer.terms.agg_limit = std::numeric_limits<Money>::max();
  layer.terms.share = 1.0;
  finance::Portfolio portfolio;
  portfolio.add(finance::Contract(7, data::EventLossTable::from_rows(rows), {layer}));

  const auto yelt = lens(600, /*catalog=*/100);
  const double intensity = 1.2;

  ScenarioSpec spec;
  spec.name = "post-event";
  spec.conditioning = PostEventConditioning{event, intensity};

  core::EngineConfig config;
  config.backend = core::Backend::Threaded;
  config.secondary_uncertainty = false;

  const auto sweep = run_scenario_sweep(portfolio, yelt, {&spec, 1}, config);

  const core::PostEventAnalyzer analyzer(portfolio);
  const auto impact = analyzer.analyse(event, intensity);
  ASSERT_EQ(impact.layers.size(), 1u);
  const Money occ = impact.layers[0].occurrence_loss;
  ASSERT_GT(occ, 0.0);
  EXPECT_EQ(impact.layers[0].net_loss, occ);  // share 1, no prior losses

  for (TrialId t = 0; t < yelt.trials(); ++t) {
    EXPECT_NEAR(sweep.scenarios[0].portfolio_ylt[t], sweep.base.portfolio_ylt[t] + occ,
                1e-6)
        << "trial " << t;
    // The injected occurrence participates in the OEP too.
    EXPECT_GE(sweep.scenarios[0].portfolio_occurrence_ylt[t] + 1e-9, occ) << t;
  }
  EXPECT_NEAR(sweep.report.rows[0].delta_aal, occ, 1e-6);
}

TEST(ScenarioSweep, PlannerDedupesResolutionsAndMasks) {
  const auto portfolio = book(/*contracts=*/3, /*layers=*/2);
  const auto yelt = lens(700);
  data::ResolverCache cache;

  core::EngineConfig config;
  config.backend = core::Backend::Threaded;
  config.resolver_cache = &cache;

  // A base batched run first: the sweep must reuse its resolutions.
  core::run_portfolio_batch(portfolio, yelt, config);
  EXPECT_EQ(cache.miss_count(), portfolio.size());

  std::vector<ScenarioSpec> specs(4);
  specs[0].name = "mask-a";
  specs[0].excluded_events = busy_events();
  specs[1].name = "mask-a-again";
  specs[1].excluded_events = busy_events();
  specs[2].name = "mask-b";
  specs[2].excluded_events = {400, 401};
  specs[3].name = "surge";
  specs[3].loss_scale = 2.0;

  const auto sweep = run_scenario_sweep(portfolio, yelt, specs, config);

  // No scenario re-resolved anything: every transform preserves event-id
  // structure, so the base resolutions serve all five (incl. base) books.
  EXPECT_EQ(cache.miss_count(), portfolio.size());
  EXPECT_EQ(cache.hit_count(), portfolio.size());

  EXPECT_EQ(sweep.plan.scenarios, 5u);  // 4 specs + implicit base
  EXPECT_EQ(sweep.plan.contracts_resolved, 3u);
  EXPECT_EQ(sweep.plan.resolutions_avoided, 5u * 3u - 3u);
  EXPECT_EQ(sweep.plan.distinct_masks, 2u);  // mask-a shared, mask-b separate
  EXPECT_EQ(sweep.plan.mask_references, 3u);
  EXPECT_EQ(sweep.plan.slots, 5u * portfolio.layer_count());
  // One gather group per contract: its layers and scenarios share a draw.
  EXPECT_EQ(sweep.plan.gather_groups, portfolio.size());
}

TEST(ScenarioSweep, ReportDeltasAreCoherent) {
  const auto portfolio = book(/*contracts=*/4, /*layers=*/2);
  const auto yelt = lens(1'000);

  std::vector<ScenarioSpec> specs(3);
  specs[0] = ScenarioSpec::identity("identity");
  specs[1].name = "surge";
  specs[1].loss_scale = 1.5;
  specs[2].name = "exclusion";
  specs[2].excluded_events = busy_events();

  const auto sweep = run_scenario_sweep(portfolio, yelt, specs, {});

  ASSERT_EQ(sweep.report.rows.size(), 3u);
  EXPECT_EQ(sweep.report.rows[0].name, "identity");
  EXPECT_EQ(sweep.report.rows[0].delta_aal, 0.0);
  EXPECT_EQ(sweep.report.rows[0].delta_var_99, 0.0);
  EXPECT_EQ(sweep.report.rows[0].delta_tvar_99, 0.0);
  EXPECT_EQ(sweep.report.rows[0].delta_pml_250, 0.0);
  EXPECT_GT(sweep.report.rows[1].delta_aal, 0.0);
  ASSERT_EQ(sweep.report.return_periods.size(), sweep.report.rows[0].aep.size());
  ASSERT_EQ(sweep.report.rows[0].oep.size(), sweep.report.rows[0].aep.size());
  for (std::size_t i = 0; i < sweep.report.rows[0].aep.size(); ++i) {
    EXPECT_EQ(sweep.report.rows[0].delta_aep[i], 0.0);
    EXPECT_EQ(sweep.report.rows[0].delta_oep[i], 0.0);
  }

  // Excluding events lowers the sampled AAL only in expectation: a mask
  // re-keys each later occurrence of the trial to its filtered-table
  // sequence, so those occurrences draw fresh samples. With sampling off
  // the exclusion can only remove losses, so the sign holds per trial.
  core::EngineConfig means;
  means.secondary_uncertainty = false;
  const auto means_sweep = run_scenario_sweep(portfolio, yelt, specs, means);
  const auto& base = means_sweep.base.portfolio_ylt;
  const auto& excluded = means_sweep.scenarios[2].portfolio_ylt;
  bool any_lower = false;
  for (TrialId t = 0; t < yelt.trials(); ++t) {
    ASSERT_LE(excluded[t], base[t]) << "trial " << t;
    any_lower = any_lower || excluded[t] < base[t];
  }
  EXPECT_TRUE(any_lower);
  EXPECT_LT(means_sweep.report.rows[2].delta_aal, 0.0);
}

/// Checks a report row against metrics of its YLTs computed from sorted
/// copies (the way rows were computed before they selected), bit for bit.
/// The base row carries zero scalar deltas and no curve deltas.
void expect_row_equals_sorted_metrics(const ScenarioRow& row, const ScenarioRow& base,
                                      const core::EngineResult& result,
                                      std::span<const double> return_periods) {
  const bool is_base = &row == &base;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto sorted = [](const data::YearLossTable& ylt) {
    std::vector<double> copy(ylt.losses().begin(), ylt.losses().end());
    std::sort(copy.begin(), copy.end());
    return copy;
  };
  const auto aep = sorted(result.portfolio_ylt);
  EXPECT_EQ(bits(row.aal), bits(result.portfolio_ylt.mean())) << row.name;
  EXPECT_EQ(bits(row.var_99), bits(quantile_sorted(aep, 0.99))) << row.name;
  EXPECT_EQ(bits(row.tvar_99), bits(tail_mean_above(aep, 0.99))) << row.name;
  EXPECT_EQ(bits(row.pml_250), bits(quantile_sorted(aep, 1.0 - 1.0 / 250.0))) << row.name;
  EXPECT_EQ(bits(row.delta_aal), bits(row.aal - base.aal)) << row.name;
  EXPECT_EQ(bits(row.delta_var_99), bits(row.var_99 - base.var_99)) << row.name;
  EXPECT_EQ(bits(row.delta_tvar_99), bits(row.tvar_99 - base.tvar_99)) << row.name;
  EXPECT_EQ(bits(row.delta_pml_250), bits(row.pml_250 - base.pml_250)) << row.name;
  ASSERT_EQ(row.aep.size(), return_periods.size()) << row.name;
  for (std::size_t i = 0; i < return_periods.size(); ++i) {
    const double level = 1.0 - 1.0 / return_periods[i];
    EXPECT_EQ(bits(row.aep[i]), bits(quantile_sorted(aep, level))) << row.name << " " << i;
  }
  const auto oep = sorted(result.portfolio_occurrence_ylt);
  ASSERT_EQ(row.oep.size(), return_periods.size()) << row.name;
  for (std::size_t i = 0; i < return_periods.size(); ++i) {
    const double level = 1.0 - 1.0 / return_periods[i];
    EXPECT_EQ(bits(row.oep[i]), bits(quantile_sorted(oep, level))) << row.name << " " << i;
  }
  ASSERT_EQ(row.delta_aep.size(), is_base ? 0 : return_periods.size()) << row.name;
  ASSERT_EQ(row.delta_oep.size(), is_base ? 0 : return_periods.size()) << row.name;
  for (std::size_t i = 0; i < row.delta_aep.size(); ++i) {
    EXPECT_EQ(bits(row.delta_aep[i]), bits(row.aep[i] - base.aep[i])) << row.name;
    EXPECT_EQ(bits(row.delta_oep[i]), bits(row.oep[i] - base.oep[i])) << row.name;
  }
}

TEST(ScenarioReport, RowsEqualSortBasedMetricsOnBothHostBackends) {
  const auto portfolio = book(/*contracts=*/4, /*layers=*/2);
  const auto yelt = lens(3'000);
  std::vector<ScenarioSpec> specs(5);
  specs[0] = ScenarioSpec::identity("identity");
  specs[1].name = "surge";
  specs[1].loss_scale = 1.3;
  specs[2].name = "exclusion";
  specs[2].excluded_events = busy_events();
  specs[3].name = "drop";
  specs[3].dropped_contracts = {portfolio.contract(3).id()};
  specs[4].name = "conditioned";
  specs[4].conditioning = PostEventConditioning{portfolio.contract(0).elt().event_ids()[0], 1.0};

  for (const core::Backend backend : {core::Backend::Sequential, core::Backend::Threaded}) {
    SCOPED_TRACE(core::to_string(backend));
    core::EngineConfig config;
    config.backend = backend;
    const auto sweep = run_scenario_sweep(portfolio, yelt, specs, config);
    const auto& report = sweep.report;
    EXPECT_EQ(report.base.name, "base");
    expect_row_equals_sorted_metrics(report.base, report.base, sweep.base,
                                     report.return_periods);
    ASSERT_EQ(report.rows.size(), specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s) {
      EXPECT_EQ(report.rows[s].name, specs[s].name);
      expect_row_equals_sorted_metrics(report.rows[s], report.base, sweep.scenarios[s],
                                       report.return_periods);
    }
  }
}

TEST(ScenarioReport, SequentialSweepQueuesNoPoolWork) {
  // A Sequential sweep stays off the pool: report rows and OEP work run on
  // the calling thread even when the config names a pool. Both workers of
  // a private pool are kept busy: one runs the sweep, the other waits for
  // it to finish. Work the sweep queued on the pool could only run once
  // that wait timed out.
  const auto portfolio = book(/*contracts=*/3, /*layers=*/2);
  const auto yelt = lens(500);
  std::vector<ScenarioSpec> specs(2);
  specs[0].name = "surge";
  specs[0].loss_scale = 1.2;
  specs[1].name = "exclusion";
  specs[1].excluded_events = busy_events();
  core::EngineConfig config;
  config.backend = core::Backend::Sequential;
  const auto reference = run_scenario_sweep(portfolio, yelt, specs, config);

  ThreadPool pool(2);
  config.pool = &pool;
  std::latch both_running(2);
  std::mutex mutex;
  std::condition_variable swept_cv;
  bool swept = false;
  bool waited_out = false;
  ScenarioSweepResult result;
  pool.submit([&] {
    both_running.arrive_and_wait();
    result = run_scenario_sweep(portfolio, yelt, specs, config);
    {
      std::lock_guard lock(mutex);
      swept = true;
    }
    swept_cv.notify_all();
  });
  pool.submit([&] {
    both_running.arrive_and_wait();
    std::unique_lock lock(mutex);
    waited_out = !swept_cv.wait_for(lock, std::chrono::seconds(30), [&] { return swept; });
  });
  pool.wait_idle();

  EXPECT_FALSE(waited_out) << "the Sequential sweep queued work on the pool";
  expect_identical(result.base, reference.base, "base");
  ASSERT_EQ(result.report.rows.size(), specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    EXPECT_EQ(result.report.rows[s].tvar_99, reference.report.rows[s].tvar_99);
    EXPECT_EQ(result.report.rows[s].oep, reference.report.rows[s].oep);
  }
}

TEST(ScenarioSweep, RejectsIllFormedSpecs) {
  const auto portfolio = book(/*contracts=*/2, /*layers=*/1);
  const auto yelt = lens(300);

  ScenarioSpec bad_target;
  bad_target.name = "bad-target";
  TargetedOverride stray;
  stray.contract = 9999;
  bad_target.overrides.push_back(stray);
  const std::span<const ScenarioSpec> bad_target_span(&bad_target, 1);
  EXPECT_THROW(run_scenario_sweep(portfolio, yelt, bad_target_span, {}),
               ContractViolation);

  ScenarioSpec bad_scale;
  bad_scale.name = "bad-scale";
  bad_scale.loss_scale = 0.0;
  const std::span<const ScenarioSpec> bad_scale_span(&bad_scale, 1);
  EXPECT_THROW(run_scenario_sweep(portfolio, yelt, bad_scale_span, {}),
               ContractViolation);

  // Infinite scales are rejected too: 0 × inf is NaN, and the scalar and
  // vector kernels would price it differently.
  ScenarioSpec infinite_scale;
  infinite_scale.name = "infinite-scale";
  infinite_scale.loss_scale = std::numeric_limits<double>::infinity();
  const std::span<const ScenarioSpec> infinite_scale_span(&infinite_scale, 1);
  EXPECT_THROW(run_scenario_sweep(portfolio, yelt, infinite_scale_span, {}),
               ContractViolation);

  ScenarioSpec infinite_intensity;
  infinite_intensity.name = "infinite-intensity";
  infinite_intensity.conditioning = PostEventConditioning{
      portfolio.contract(0).elt().event_ids()[0], std::numeric_limits<double>::infinity()};
  const std::span<const ScenarioSpec> infinite_intensity_span(&infinite_intensity, 1);
  EXPECT_THROW(run_scenario_sweep(portfolio, yelt, infinite_intensity_span, {}),
               ContractViolation);

  ScenarioSpec empty_book;
  empty_book.name = "empty-book";
  for (const auto& contract : portfolio.contracts()) {
    empty_book.dropped_contracts.push_back(contract.id());
  }
  const std::span<const ScenarioSpec> empty_book_span(&empty_book, 1);
  EXPECT_THROW(run_scenario_sweep(portfolio, yelt, empty_book_span, {}),
               ContractViolation);

  // A conditioning event no contract models would silently degenerate to
  // the identity — the plan rejects it instead.
  ScenarioSpec ghost_event;
  ghost_event.name = "ghost-event";
  ghost_event.conditioning = PostEventConditioning{999'999, 1.0};
  const std::span<const ScenarioSpec> ghost_event_span(&ghost_event, 1);
  EXPECT_THROW(run_scenario_sweep(portfolio, yelt, ghost_event_span, {}),
               ContractViolation);
}

double global_counter(const std::string& name) {
  return obs::MetricsRegistry::global().snapshot().counter_value(name);
}

TEST(ScenarioSweep, StreamedSweepBuildsNoResolution) {
  // A streamed block dies with the pass, so a streamed sweep gathers every
  // run by lookup, transforms included: it builds and probes no
  // resolution, and every run still equals the resident (compact) sweep
  // bit for bit, and the base the definition. Two spec lists: every
  // transform (a mask makes each group scalar), and every transform but the
  // mask (loss scale and conditioning then run the vector lookup pass).
  const auto portfolio = book(/*contracts=*/4, /*layers=*/2);
  const auto yelt = lens(900);
  const std::string path = ::testing::TempDir() + "riskan_sweep_no_resolution.yeltc";
  core::save_yelt_chunked(yelt, path, 250);
  ByteWriter writer;
  data::encode(yelt, writer);

  ScenarioSpec surge;
  surge.name = "surge";
  surge.loss_scale = 1.3;
  ScenarioSpec drop;
  drop.name = "drop";
  drop.dropped_contracts = {portfolio.contract(1).id()};
  ScenarioSpec restrike;
  restrike.name = "re-strike";
  TargetedOverride halve_share;
  halve_share.contract = portfolio.contract(2).id();
  halve_share.override.share = 0.5;
  restrike.overrides.push_back(halve_share);
  ScenarioSpec conditioned;
  conditioned.name = "conditioned";
  conditioned.loss_scale = 1.1;
  conditioned.conditioning =
      PostEventConditioning{portfolio.contract(0).elt().event_ids()[0], 2.0};
  ScenarioSpec mask;
  mask.name = "mask";
  mask.excluded_events = busy_events();
  const std::vector<std::vector<ScenarioSpec>> spec_lists = {
      {surge, drop, restrike, conditioned, mask}, {surge, drop, restrike, conditioned}};

  for (const auto& specs : spec_lists) {
    const std::string list = specs.size() == 5 ? "with mask" : "without mask";
    for (const bool secondary : {false, true}) {
      core::EngineConfig definition;
      definition.secondary_uncertainty = secondary;
      const auto expected_base = oracle::run_oracle(portfolio, yelt, definition);
      // The drop scenario's lookups are the definition's found rows ×
      // layers over the materialised book, under either gather.
      const std::uint64_t expected_drop_lookups =
          oracle::run_oracle(materialize_portfolio(drop, portfolio), yelt, definition)
              .elt_lookups;
      for (const ExecRow& row : exec_rows()) {
        core::EngineConfig config = definition;
        data::ResolverCache cache;
        config.resolver_cache = &cache;
        const auto resident = run_scenario_sweep(portfolio, yelt, specs,
                                                 with_row(config, row, /*reference=*/true));
        ASSERT_GT(resident.base.resolve_seconds, 0.0) << "a resident sweep gathers compact";

        data::ChunkedFileSource chunked(path);
        data::InMemorySource whole(yelt);
        data::ReblockedSource reblocked(whole, 200);
        data::EncodedBlockSource encoded(writer.buffer());
        const std::pair<const char*, data::TrialSource*> sources[] = {
            {"chunked file", &chunked}, {"re-blocked", &reblocked}, {"encoded block", &encoded}};
        for (const auto& [name, source] : sources) {
          const std::string what = list + "/" + row_name(row) +
                                   (secondary ? "/secondary/" : "/means/") + name;
          const double misses = global_counter("resolver.misses");
          const auto streamed =
              run_scenario_sweep(portfolio, *source, specs, with_row(config, row, false));
          EXPECT_EQ(global_counter("resolver.misses"), misses) << what;
          EXPECT_EQ(cache.size(), portfolio.size()) << what;

          const auto expect_run = [&](const core::EngineResult& expected,
                                      const core::EngineResult& run, const std::string& id) {
            EXPECT_EQ(run.resolve_seconds, 0.0) << what << " " << id;
            expect_identical(expected, run, what + " " + id);
            EXPECT_EQ(expected.elt_lookups, run.elt_lookups) << what << " " << id;
            EXPECT_EQ(expected.occurrences_processed, run.occurrences_processed)
                << what << " " << id;
          };
          expect_run(resident.base, streamed.base, "base");
          ASSERT_EQ(streamed.scenarios.size(), specs.size()) << what;
          for (std::size_t s = 0; s < specs.size(); ++s) {
            expect_run(resident.scenarios[s], streamed.scenarios[s], specs[s].name);
          }
          oracle::expect_equals_oracle(streamed.base, expected_base, what + " base vs oracle");
          EXPECT_EQ(resident.scenarios[1].elt_lookups, expected_drop_lookups) << what;
          EXPECT_EQ(streamed.scenarios[1].elt_lookups, expected_drop_lookups) << what;
        }
      }
    }
  }
  std::remove(path.c_str());
}

TEST(MaskColumn, AdjustedSequencesMatchFilteredTable) {
  const auto yelt = lens(400, /*catalog=*/200);
  const std::vector<EventId> excluded = {3, 14, 15, 92};
  const auto mask = MaskColumn::build(yelt, excluded);
  const auto filtered = filter_yelt(yelt, excluded);

  ASSERT_EQ(mask.adjusted_seq.size(), yelt.entries());
  EXPECT_EQ(yelt.entries() - mask.excluded_occurrences, filtered.entries());

  // Walking the original table with the mask must enumerate exactly the
  // filtered table's occurrences, with matching sequence numbers.
  const auto offsets = yelt.offsets();
  for (TrialId t = 0; t < yelt.trials(); ++t) {
    const auto original = yelt.trial_events(t);
    const auto kept = filtered.trial_events(t);
    std::size_t expected_seq = 0;
    for (std::size_t i = 0; i < original.size(); ++i) {
      const std::uint32_t adjusted = mask.adjusted_seq[offsets[t] + i];
      if (adjusted == core::batch::kMaskedOut) {
        continue;
      }
      ASSERT_EQ(adjusted, expected_seq) << "trial " << t;
      ASSERT_EQ(original[i], kept[expected_seq]) << "trial " << t;
      ++expected_seq;
    }
    ASSERT_EQ(expected_seq, kept.size()) << "trial " << t;
  }
}

}  // namespace
}  // namespace riskan::scenario
