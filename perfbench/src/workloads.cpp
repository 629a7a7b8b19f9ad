#include "workloads.hpp"

#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "catmod/event_catalog.hpp"
#include "catmod/exposure.hpp"
#include "catmod/pipeline.hpp"
#include "catmod/yelt_bridge.hpp"
#include "check.hpp"
#include "core/aggregate_engine.hpp"
#include "core/metrics.hpp"
#include "core/portfolio_batch.hpp"
#include "core/pricer.hpp"
#include "core/streaming.hpp"
#include "data/resolved_yelt.hpp"
#include "data/trial_source.hpp"
#include "dfa/dfa_engine.hpp"
#include "dfa/risk_sources.hpp"
#include "finance/contract.hpp"
#include "scenario/sweep.hpp"

namespace perfbench {
namespace {

using namespace riskan;

/// Independent sub-seeds of the workload seed (splitmix64 finaliser).
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// A generated 16-contract x 4-layer book over a generated YELT: the
/// stage-2 input of `whatif` and `outofcore`.
struct Book {
  finance::Portfolio portfolio;
  data::YearEventLossTable yelt;
};

constexpr EventId kBookCatalogEvents = 10'000;

Book make_book(std::uint64_t seed, TrialId trials) {
  finance::PortfolioGenConfig pg;
  pg.contracts = 16;
  pg.catalog_events = kBookCatalogEvents;
  pg.elt_rows = 1'000;
  pg.layers_per_contract = 4;
  pg.seed = sub_seed(seed, 1);
  data::YeltGenConfig yg;
  yg.trials = trials;
  yg.seed = sub_seed(seed, 2);
  return Book{finance::generate_portfolio(pg), data::generate_yelt(kBookCatalogEvents, yg)};
}

core::EngineConfig sampling_off() {
  core::EngineConfig config;
  config.secondary_uncertainty = false;
  return config;
}

/// Reference runs resolve through their own cache, so they leave nothing in
/// the process-wide one the measured ops use.
core::EngineResult reference_run(const finance::Portfolio& portfolio,
                                 const data::YearEventLossTable& yelt,
                                 core::EngineConfig config) {
  data::ResolverCache cache;
  config.resolver_cache = &cache;
  return core::run_aggregate_analysis(portfolio, yelt, config);
}

/// Stage 2 streamed from the chunked YELT file at `path`: open the source,
/// run, close it (which joins its prefetch thread).
core::EngineResult streamed_run(Tracer& trace, Attrs& attrs, const finance::Portfolio& portfolio,
                                const std::string& path, const core::EngineConfig& config) {
  std::unique_ptr<data::ChunkedFileSource> source;
  {
    Tracer::Scope span(trace, "data.open");
    source = std::make_unique<data::ChunkedFileSource>(path);
  }
  core::EngineResult result;
  {
    Tracer::Scope span(trace, "core.run_aggregate_analysis");
    result = core::run_aggregate_analysis(portfolio, *source, config);
  }
  attrs["decode_s"] = source->stats().produce_seconds;
  attrs["wait_s"] = source->stats().wait_seconds;
  attrs["bytes_read"] = static_cast<double>(source->stats().bytes_read);
  attrs["resolve_s"] = result.resolve_seconds;
  attrs["occ_evals"] = static_cast<double>(result.occurrences_processed);
  Tracer::Scope span(trace, "data.close");
  source.reset();
  return result;
}

std::vector<double> values(const core::RiskSummary& s) {
  return {s.mean_annual_loss, s.stdev_annual_loss, s.var_95,  s.var_99, s.var_99_6,
          s.tvar_99,          s.pml_100,           s.pml_250, s.max_loss};
}

std::vector<double> values(const std::vector<core::EpPoint>& curve) {
  std::vector<double> out;
  for (const auto& p : curve) {
    out.push_back(p.loss);
  }
  return out;
}

// ---- pipeline --------------------------------------------------------------

/// The paper's three stages, cold: catalogue x exposure -> ELTs (stage 1),
/// YELT simulation written to a chunked file, a streamed roll-up (stage 2),
/// then metrics and DFA (stage 3).
class Pipeline final : public Workload {
 public:
  static constexpr EventId kEvents = 2'000;
  static constexpr int kBooks = 16;
  static constexpr LocationId kSites = 500;
  static constexpr TrialId kTrials = 2'500;
  static constexpr TrialId kBlocks = 2;
  static constexpr int kLayers = 4;

  bool setup(std::uint64_t seed, const std::string& workdir) override {
    catmod::CatalogConfig cc;
    cc.events = kEvents;
    cc.seed = sub_seed(seed, 10);
    catalog_ = catmod::EventCatalog::generate(cc);
    books_.clear();
    for (int b = 0; b < kBooks; ++b) {
      catmod::ExposureConfig ec;
      ec.sites = kSites;
      ec.seed = sub_seed(seed, 100 + static_cast<std::uint64_t>(b));
      books_.push_back(catmod::ExposureDatabase::generate(ec));
    }
    yelt_seed_ = sub_seed(seed, 11);
    dfa_seed_ = sub_seed(seed, 12);
    path_ = workdir + "/pipeline.yeltc";

    warm_up();
    // Reference: the same stage-2 analysis on the resident table.
    reference_ = reference_run(portfolio_, yelt_, {});
    Tracer off(false);
    reference_report_ = report(off, reference_);
    return check();
  }

  void op(Tracer& trace, Attrs& attrs) override {
    portfolio_ = finance::Portfolio();
    double pairs = 0.0;
    for (int b = 0; b < kBooks; ++b) {
      catmod::PipelineStats stats;
      data::EventLossTable elt;
      {
        Tracer::Scope span(trace, "catmod.run_cat_model");
        elt = catmod::run_cat_model(catalog_, books_[static_cast<std::size_t>(b)], {}, &stats);
      }
      pairs += static_cast<double>(stats.event_exposure_pairs);
      Tracer::Scope span(trace, "finance.contract");
      portfolio_.add(contract(static_cast<ContractId>(b), std::move(elt)));
    }
    {
      Tracer::Scope span(trace, "catmod.simulate_yelt");
      catmod::CatalogYeltConfig yc;
      yc.trials = kTrials;
      yc.seed = yelt_seed_;
      yelt_ = catmod::simulate_yelt(catalog_, yc);
    }
    {
      Tracer::Scope span(trace, "data.save_yelt_chunked");
      core::save_yelt_chunked(yelt_, path_, kTrials / kBlocks);
    }
    result_ = streamed_run(trace, attrs, portfolio_, path_, {});
    report_ = report(trace, result_);
    attrs["pairs"] = pairs;
    attrs["bytes_written"] = static_cast<double>(std::filesystem::file_size(path_));
    attrs["dfa_trials"] = static_cast<double>(result_.portfolio_ylt.trials());
  }

  bool check() const override {
    return same_bits(result_, reference_) &&
           same_bits(values(report_.summary), values(reference_report_.summary)) &&
           same_bits(values(report_.aep), values(reference_report_.aep)) &&
           same_bits(values(report_.oep), values(reference_report_.oep)) &&
           same_bits(values(report_.enterprise), values(reference_report_.enterprise));
  }

  double stage2_sampling_off_seconds() override {
    data::ChunkedFileSource source(path_);
    const std::int64_t start = now_ns();
    core::run_aggregate_analysis(portfolio_, source, sampling_off());
    return seconds_since(start);
  }

  void corrupt_reference() override { corrupt(reference_); }

 private:
  struct Report {
    core::RiskSummary summary;
    std::vector<core::EpPoint> aep;
    std::vector<core::EpPoint> oep;
    core::RiskSummary enterprise;
  };

  /// Stage 3 over a stage-2 result: risk metrics and AEP/OEP curves, then
  /// DFA with the standard risk sources.
  Report report(Tracer& trace, const core::EngineResult& r) const {
    Report out;
    {
      Tracer::Scope span(trace, "core.metrics");
      out.summary = core::summarise(r.portfolio_ylt);
      out.aep = core::exceedance_curve(r.portfolio_ylt, core::standard_return_periods());
      out.oep =
          core::exceedance_curve(r.portfolio_occurrence_ylt, core::standard_return_periods());
    }
    Tracer::Scope span(trace, "dfa.run");
    dfa::DfaEngine engine(dfa::standard_risk_sources(dfa_seed_));
    out.enterprise = engine.run(r.portfolio_ylt).enterprise_summary;
    return out;
  }

  /// Wraps one book's ELT in a contract with kLayers layers whose terms
  /// scale with the ELT's mean loss, so they attach inside the
  /// distribution.
  static finance::Contract contract(ContractId id, data::EventLossTable elt) {
    if (elt.empty()) {
      throw std::runtime_error("stage 1 produced an empty ELT");
    }
    const Money scale = elt.total_mean_loss() / static_cast<double>(elt.size());
    std::vector<finance::Layer> layers;
    for (int l = 0; l < kLayers; ++l) {
      finance::Layer layer;
      layer.id = static_cast<LayerId>(l);
      layer.terms.occ_retention = scale * (0.5 + 0.5 * l);
      layer.terms.occ_limit = scale * (2.0 + l);
      layer.terms.agg_limit = layer.terms.occ_limit * 2.0;
      layer.reinstatements.count = 1;
      layer.reinstatements.premium_rate = 1.0;
      layer.upfront_premium = scale * 0.25;
      layers.push_back(layer);
    }
    return finance::Contract(id, std::move(elt), std::move(layers));
  }

  catmod::EventCatalog catalog_;
  std::vector<catmod::ExposureDatabase> books_;
  std::uint64_t yelt_seed_ = 0;
  std::uint64_t dfa_seed_ = 0;
  std::string path_;

  finance::Portfolio portfolio_;
  data::YearEventLossTable yelt_;
  core::EngineResult result_;
  Report report_;

  core::EngineResult reference_;
  Report reference_report_;
};

// ---- quotes ----------------------------------------------------------------

/// Real-time pricing: one op prices one layer with RealTimePricer::price
/// against a resident YELT, cycling through a seeded request stream.
class Quotes final : public Workload {
 public:
  static constexpr EventId kCatalogEvents = 100'000;
  static constexpr TrialId kTrials = 250'000;
  static constexpr std::size_t kContracts = 8;
  static constexpr std::size_t kEltRows = 10'000;
  static constexpr double kAttachments[] = {0.5, 1.0, 2.0, 4.0};
  static constexpr std::size_t kStream = 4'096;

  bool setup(std::uint64_t seed, const std::string& /*workdir*/) override {
    finance::PortfolioGenConfig pg;
    pg.contracts = kContracts;
    pg.catalog_events = kCatalogEvents;
    pg.elt_rows = kEltRows;
    pg.seed = sub_seed(seed, 20);
    book_ = finance::generate_portfolio(pg);
    data::YeltGenConfig yg;
    yg.trials = kTrials;
    yg.seed = sub_seed(seed, 21);
    yelt_ = data::generate_yelt(kCatalogEvents, yg);
    pricer_ = std::make_unique<core::RealTimePricer>(yelt_);

    requests_.clear();
    for (std::size_t c = 0; c < kContracts; ++c) {
      for (const double factor : kAttachments) {
        finance::Layer layer = book_.contract(c).layers().front();
        layer.terms.occ_retention *= factor;
        requests_.push_back({c, layer});
      }
    }
    Xoshiro256ss rng(sub_seed(seed, 22));
    order_.resize(kStream);
    for (auto& r : order_) {
      r = static_cast<std::size_t>(rng() % requests_.size());
    }
    next_ = 0;

    // Reference: the first quote of every distinct request.
    reference_.clear();
    for (std::size_t r = 0; r < requests_.size(); ++r) {
      reference_.push_back(price(r));
    }
    warm_up();
    return check();
  }

  void op(Tracer& trace, Attrs& attrs) override {
    last_ = order_[next_++ % order_.size()];
    {
      Tracer::Scope span(trace, "core.price");
      quote_ = price(last_);
    }
    attrs["quote_sim_s"] = quote_.seconds;
    // A one-layer run walks every occurrence once (EngineResult's count).
    attrs["occ_evals"] = static_cast<double>(yelt_.entries());
  }

  bool check() const override {
    const auto& ref = reference_[last_];
    return same_bits(std::vector<double>{quote_.technical_premium, quote_.pml_250,
                                         quote_.loss_stats.expected_loss},
                     std::vector<double>{ref.technical_premium, ref.pml_250,
                                         ref.loss_stats.expected_loss});
  }

  double stage2_sampling_off_seconds() override {
    const core::RealTimePricer pricer(yelt_, sampling_off());
    const Request& r = requests_[last_];
    return pricer.price(book_.contract(r.contract), r.layer).seconds;
  }

  void corrupt_reference() override {
    for (auto& q : reference_) {
      q.technical_premium = std::nextafter(q.technical_premium, 0.0);
    }
  }

 private:
  struct Request {
    std::size_t contract = 0;
    finance::Layer layer;
  };

  core::PricingQuote price(std::size_t r) const {
    return pricer_->price(book_.contract(requests_[r].contract), requests_[r].layer);
  }

  finance::Portfolio book_;
  data::YearEventLossTable yelt_;
  std::unique_ptr<core::RealTimePricer> pricer_;  // refers to yelt_
  std::vector<Request> requests_;
  std::vector<std::size_t> order_;
  std::size_t next_ = 0;
  std::size_t last_ = 0;
  core::PricingQuote quote_;
  std::vector<core::PricingQuote> reference_;
};

// ---- whatif ----------------------------------------------------------------

/// A 16-scenario sweep (run_scenario_sweep) over a resident book and YELT,
/// sampling on, resolver cache warm.
class Whatif final : public Workload {
 public:
  static constexpr TrialId kTrials = 25'000;

  bool setup(std::uint64_t seed, const std::string& /*workdir*/) override {
    book_ = make_book(seed, kTrials);
    specs_ = make_specs(seed);
    // Reference for the base: the batched engine, which the sweep's
    // identity scenario must match bit for bit.
    reference_base_ = core::run_portfolio_batch(book_.portfolio, book_.yelt, {});
    warm_up();
    reference_prints_.clear();
    for (const auto& r : sweep_.scenarios) {
      reference_prints_.push_back(fingerprint(r));
    }
    return check();
  }

  void op(Tracer& trace, Attrs& attrs) override {
    {
      Tracer::Scope span(trace, "scenario.run_scenario_sweep");
      sweep_ = scenario::run_scenario_sweep(book_.portfolio, book_.yelt, specs_, {});
    }
    double occ = static_cast<double>(sweep_.base.occurrences_processed);
    for (const auto& r : sweep_.scenarios) {
      occ += static_cast<double>(r.occurrences_processed);
    }
    attrs["occ_evals"] = occ;
    attrs["resolve_s"] = sweep_.base.resolve_seconds;
    attrs["scenario_slots"] = static_cast<double>(sweep_.plan.slots);
    attrs["scenario_resolutions_avoided"] = static_cast<double>(sweep_.plan.resolutions_avoided);
    attrs["scenario_distinct_masks"] = static_cast<double>(sweep_.plan.distinct_masks);
  }

  bool check() const override {
    if (!same_bits(sweep_.base, reference_base_) ||
        sweep_.scenarios.size() != reference_prints_.size()) {
      return false;
    }
    for (std::size_t s = 0; s < reference_prints_.size(); ++s) {
      if (fingerprint(sweep_.scenarios[s]) != reference_prints_[s]) {
        return false;
      }
    }
    return true;
  }

  double stage2_sampling_off_seconds() override {
    const std::int64_t start = now_ns();
    scenario::run_scenario_sweep(book_.portfolio, book_.yelt, specs_, sampling_off());
    return seconds_since(start);
  }

  void corrupt_reference() override { reference_prints_.front() ^= 1u; }

 private:
  /// 5 attachment strikes, 4 surge scales, 3 exclusion masks (two with the
  /// same content), 3 post-event conditionings and 1 contract drop.
  std::vector<scenario::ScenarioSpec> make_specs(std::uint64_t seed) const {
    const finance::Portfolio& p = book_.portfolio;
    std::vector<scenario::ScenarioSpec> specs;
    for (int i = 0; i < 5; ++i) {
      scenario::ScenarioSpec spec;
      spec.name = "attach-" + std::to_string(i);
      for (const auto& layer : p.contract(0).layers()) {
        scenario::TargetedOverride o;
        o.contract = p.contract(0).id();
        o.layer = layer.id;
        o.override.occ_retention = layer.terms.occ_retention * (1.0 + 0.1 * (i + 1));
        spec.overrides.push_back(o);
      }
      specs.push_back(std::move(spec));
    }
    for (int i = 0; i < 4; ++i) {
      scenario::ScenarioSpec spec;
      spec.name = "surge-" + std::to_string(i);
      spec.loss_scale = 1.1 + 0.1 * i;
      specs.push_back(std::move(spec));
    }
    Xoshiro256ss rng(sub_seed(seed, 30));
    const EventId first = static_cast<EventId>(rng() % (kBookCatalogEvents - 100));
    const EventId second = static_cast<EventId>(rng() % (kBookCatalogEvents - 100));
    for (int i = 0; i < 3; ++i) {
      scenario::ScenarioSpec spec;
      spec.name = "mask-" + std::to_string(i);
      const EventId base = i == 2 ? second : first;
      for (EventId e = base; e < base + 50; ++e) {
        spec.excluded_events.push_back(e);
      }
      specs.push_back(std::move(spec));
    }
    const auto events = p.contract(0).elt().event_ids();
    const EventId occurred = events[rng() % events.size()];
    for (int i = 0; i < 3; ++i) {
      scenario::ScenarioSpec spec;
      spec.name = "post-event-" + std::to_string(i);
      spec.conditioning = scenario::PostEventConditioning{occurred, 0.8 + 0.2 * i};
      specs.push_back(std::move(spec));
    }
    scenario::ScenarioSpec drop;
    drop.name = "drop-last";
    drop.dropped_contracts = {p.contract(p.size() - 1).id()};
    specs.push_back(std::move(drop));
    return specs;
  }

  Book book_;
  std::vector<scenario::ScenarioSpec> specs_;
  scenario::ScenarioSweepResult sweep_;
  core::EngineResult reference_base_;
  std::vector<std::uint64_t> reference_prints_;
};

// ---- outofcore -------------------------------------------------------------

/// A streamed roll-up (run_aggregate_analysis over a ChunkedFileSource)
/// with sampling off, over a YELT staged to disk at set-up.
class OutOfCore final : public Workload {
 public:
  static constexpr TrialId kTrials = 250'000;
  static constexpr TrialId kBlocks = 32;

  bool setup(std::uint64_t seed, const std::string& workdir) override {
    path_ = workdir + "/outofcore.yeltc";
    {
      Book book = make_book(seed, kTrials);
      core::save_yelt_chunked(book.yelt, path_, kTrials / kBlocks);
      // Reference: the same analysis on the resident table, which is then
      // dropped — only the file serves the ops.
      reference_ = reference_run(book.portfolio, book.yelt, sampling_off());
      portfolio_ = std::move(book.portfolio);
    }
    warm_up();
    return check();
  }

  void op(Tracer& trace, Attrs& attrs) override {
    result_ = streamed_run(trace, attrs, portfolio_, path_, sampling_off());
  }

  bool check() const override { return same_bits(result_, reference_); }

  void corrupt_reference() override { corrupt(reference_); }

 private:
  std::string path_;
  finance::Portfolio portfolio_;
  core::EngineResult result_;
  core::EngineResult reference_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "pipeline") {
    return std::make_unique<Pipeline>();
  }
  if (name == "quotes") {
    return std::make_unique<Quotes>();
  }
  if (name == "whatif") {
    return std::make_unique<Whatif>();
  }
  if (name == "outofcore") {
    return std::make_unique<OutOfCore>();
  }
  return nullptr;
}

}  // namespace perfbench
