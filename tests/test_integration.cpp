// End-to-end integration: the full three-stage pipeline of the paper,
// catalogue + exposure -> ELT -> aggregate analysis -> metrics -> DFA ->
// warehouse, with cross-stage invariants.
#include <gtest/gtest.h>

#include "catmod/event_catalog.hpp"
#include "catmod/exposure.hpp"
#include "catmod/pipeline.hpp"
#include "catmod/yelt_bridge.hpp"
#include "core/aggregate_engine.hpp"
#include "core/metrics.hpp"
#include "core/pricer.hpp"
#include "data/serialize.hpp"
#include "dfa/dfa_engine.hpp"
#include "util/bytes.hpp"
#include "warehouse/cube.hpp"

namespace riskan {
namespace {

class FullPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Stage 1: catastrophe modelling.
    catmod::CatalogConfig cc;
    cc.events = 600;
    cc.seed = 31;
    catalog_ = new catmod::EventCatalog(catmod::EventCatalog::generate(cc));

    catmod::ExposureConfig ec;
    ec.sites = 400;
    ec.seed = 32;
    exposure_ = new catmod::ExposureDatabase(catmod::ExposureDatabase::generate(ec));

    elt_ = new data::EventLossTable(catmod::run_cat_model(*catalog_, *exposure_));

    // Build a small portfolio around the modelled ELT: three layers at
    // different attachment points on the same book.
    auto make_layer = [](LayerId id, double attach_factor) {
      finance::Layer layer;
      layer.id = id;
      Money scale = 0.0;
      for (const auto m : elt_->mean_loss()) {
        scale = std::max(scale, m);
      }
      layer.terms.occ_retention = scale * attach_factor;
      layer.terms.occ_limit = scale * 0.5;
      layer.terms.agg_limit = scale;
      layer.terms.share = 1.0;
      layer.upfront_premium = scale * 0.05;
      return layer;
    };
    finance::Portfolio portfolio;
    portfolio.add(finance::Contract(0, *elt_, {make_layer(0, 0.05)},
                                    Region::NorthAmerica, LineOfBusiness::Property,
                                    Peril::Earthquake));
    portfolio.add(finance::Contract(1, *elt_, {make_layer(0, 0.20)}, Region::Europe,
                                    LineOfBusiness::Marine, Peril::Hurricane));
    portfolio.add(finance::Contract(2, *elt_, {make_layer(0, 0.50)}, Region::Asia,
                                    LineOfBusiness::Energy, Peril::Flood));
    portfolio_ = new finance::Portfolio(std::move(portfolio));

    // Stage 2 input: the pre-simulated YELT from the catalogue's rates.
    catmod::CatalogYeltConfig yc;
    yc.trials = 2'000;
    yc.seed = 33;
    yelt_ = new data::YearEventLossTable(catmod::simulate_yelt(*catalog_, yc));
  }

  static void TearDownTestSuite() {
    delete catalog_;
    delete exposure_;
    delete elt_;
    delete portfolio_;
    delete yelt_;
    catalog_ = nullptr;
    exposure_ = nullptr;
    elt_ = nullptr;
    portfolio_ = nullptr;
    yelt_ = nullptr;
  }

  static catmod::EventCatalog* catalog_;
  static catmod::ExposureDatabase* exposure_;
  static data::EventLossTable* elt_;
  static finance::Portfolio* portfolio_;
  static data::YearEventLossTable* yelt_;
};

catmod::EventCatalog* FullPipeline::catalog_ = nullptr;
catmod::ExposureDatabase* FullPipeline::exposure_ = nullptr;
data::EventLossTable* FullPipeline::elt_ = nullptr;
finance::Portfolio* FullPipeline::portfolio_ = nullptr;
data::YearEventLossTable* FullPipeline::yelt_ = nullptr;

TEST_F(FullPipeline, Stage1ProducesUsableElt) {
  EXPECT_GT(elt_->size(), 10u);
  EXPECT_GT(elt_->total_mean_loss(), 0.0);
}

TEST_F(FullPipeline, Stage2LowerAttachmentMeansMoreLoss) {
  core::EngineConfig config;
  config.secondary_uncertainty = false;
  const auto result = core::run_aggregate_analysis(*portfolio_, *yelt_, config);
  ASSERT_EQ(result.contract_ylts.size(), 3u);
  // Contract 0 attaches lowest -> sees the most loss.
  EXPECT_GE(result.contract_ylts[0].total(), result.contract_ylts[1].total());
  EXPECT_GE(result.contract_ylts[1].total(), result.contract_ylts[2].total());
}

TEST_F(FullPipeline, Stage2ToStage3EndToEnd) {
  core::EngineConfig config;
  const auto stage2 = core::run_aggregate_analysis(*portfolio_, *yelt_, config);

  dfa::DfaEngine dfa_engine(dfa::standard_risk_sources(99), dfa::DfaConfig{});
  const auto stage3 = dfa_engine.run(stage2.portfolio_ylt);
  EXPECT_EQ(stage3.enterprise_ylt.trials(), yelt_->trials());
  EXPECT_GT(stage3.economic_capital, 0.0);

  const warehouse::RiskCube cube(*portfolio_, stage2);
  EXPECT_EQ(cube.total().contracts, 3u);
}

TEST_F(FullPipeline, FileBasedStageBoundariesRoundTrip) {
  // Stage boundaries as files: ELT and YELT written by one stage, read by
  // the next; results identical to the in-memory handoff.
  const std::string elt_path = "/tmp/riskan_integ_elt.bin";
  const std::string yelt_path = "/tmp/riskan_integ_yelt.bin";
  data::save_elt(*elt_, elt_path);
  data::save_yelt(*yelt_, yelt_path);
  const auto elt2 = data::load_elt(elt_path);
  const auto yelt2 = data::load_yelt(yelt_path);

  finance::Layer layer = portfolio_->contract(0).layers()[0];
  finance::Portfolio direct;
  direct.add(finance::Contract(0, *elt_, {layer}));
  finance::Portfolio via_files;
  via_files.add(finance::Contract(0, elt2, {layer}));

  core::EngineConfig config;
  config.backend = core::Backend::Sequential;
  const auto a = core::run_aggregate_analysis(direct, *yelt_, config);
  const auto b = core::run_aggregate_analysis(via_files, yelt2, config);
  for (TrialId t = 0; t < yelt_->trials(); ++t) {
    ASSERT_EQ(a.portfolio_ylt[t], b.portfolio_ylt[t]);
  }
  remove_file(elt_path);
  remove_file(yelt_path);
}

TEST_F(FullPipeline, PricingQuoteFromModelledElt) {
  core::EngineConfig config;
  config.backend = core::Backend::Sequential;
  const core::RealTimePricer pricer(*yelt_, config);
  const auto quote =
      pricer.price(portfolio_->contract(0), portfolio_->contract(0).layers()[0]);
  EXPECT_GT(quote.technical_premium, 0.0);
  EXPECT_GT(quote.rate_on_line, 0.0);
}

TEST_F(FullPipeline, MetricsChainIsCoherentAcrossStages) {
  core::EngineConfig config;
  const auto stage2 = core::run_aggregate_analysis(*portfolio_, *yelt_, config);
  const auto aep = core::summarise(stage2.portfolio_ylt);
  const auto oep = core::summarise(stage2.portfolio_occurrence_ylt);
  // Occurrence tail cannot exceed aggregate tail at matching levels.
  EXPECT_LE(oep.var_99, aep.var_99 + 1e-9);
  EXPECT_LE(oep.pml_250, aep.pml_250 + 1e-9);
  EXPECT_LE(oep.max_loss, aep.max_loss + 1e-9);
}

}  // namespace
}  // namespace riskan
