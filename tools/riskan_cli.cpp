// riskan — command-line front end for the pipeline's file formats.
//
// Subcommands mirror the stage boundaries:
//   gen-yelt    pre-simulate a YELT (stage-2 input) to a file
//   gen-elt     run a synthetic stage-1 (catalogue + exposure -> ELT file,
//               run_cat_model's default output; prints the pairs covered)
//   aggregate   stage 2: ELT + YELT + layer terms -> YLT file
//   metrics     stage 2/3 reporting: YLT -> summary + EP curve
//   info        identify a riskan binary file and print its shape
//
// Example end-to-end session:
//   riskan gen-elt  --events 20000 --sites 2000 --out /tmp/book.elt
//   riskan gen-yelt --events 20000 --trials 100000 --out /tmp/lens.yelt
//   riskan aggregate --elt /tmp/book.elt --yelt /tmp/lens.yelt
//          --retention 4e7 --limit 6e7 --out /tmp/book.ylt
//   riskan metrics --ylt /tmp/book.ylt
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "catmod/event_catalog.hpp"
#include "catmod/exposure.hpp"
#include "catmod/pipeline.hpp"
#include "catmod/yelt_bridge.hpp"
#include "core/aggregate_engine.hpp"
#include "core/bootstrap.hpp"
#include "core/metrics.hpp"
#include "data/serialize.hpp"
#include "util/bytes.hpp"
#include "util/format.hpp"
#include "util/report.hpp"
#include "util/require.hpp"

namespace riskan::cli {
namespace {

/// --key value argument map with typed getters and defaults.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      RISKAN_REQUIRE(key.rfind("--", 0) == 0, "expected --flag, got: " + key);
      values_[key.substr(2)] = argv[i + 1];
    }
    RISKAN_REQUIRE((argc - first) % 2 == 0, "flags must come in --key value pairs");
  }

  std::string str(const std::string& key, const std::string& fallback = {}) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      RISKAN_REQUIRE(!fallback.empty(), "missing required flag --" + key);
      return fallback;
    }
    return it->second;
  }

  double num(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
  }

  std::uint64_t integer(const std::string& key, std::uint64_t fallback) const {
    return static_cast<std::uint64_t>(num(key, static_cast<double>(fallback)));
  }

  bool has(const std::string& key) const { return values_.contains(key); }

 private:
  std::map<std::string, std::string> values_;
};

int cmd_gen_yelt(const Args& args) {
  data::YeltGenConfig config;
  config.trials = static_cast<TrialId>(args.integer("trials", 10'000));
  config.seed = args.integer("seed", 42);
  config.mean_events_per_year = args.num("rate", 10.0);
  config.dispersion = args.num("dispersion", 0.0);
  config.sort_by_day = args.integer("sort-by-day", 0) != 0;
  const auto events = static_cast<EventId>(args.integer("events", 10'000));
  const auto out = args.str("out");

  const auto yelt = data::generate_yelt(events, config);
  data::save_yelt(yelt, out);
  std::cout << "wrote " << out << ": " << yelt.trials() << " trials, "
            << format_count(static_cast<double>(yelt.entries())) << " occurrences ("
            << format_bytes(static_cast<double>(yelt.byte_size())) << " columnar)\n";
  return 0;
}

int cmd_gen_elt(const Args& args) {
  catmod::CatalogConfig cc;
  cc.events = static_cast<EventId>(args.integer("events", 10'000));
  cc.seed = args.integer("seed", 42);
  catmod::ExposureConfig ec;
  ec.sites = static_cast<LocationId>(args.integer("sites", 1'000));
  ec.seed = cc.seed + 1;
  const auto out = args.str("out");

  const auto catalog = catmod::EventCatalog::generate(cc);
  const auto exposure = catmod::ExposureDatabase::generate(ec);
  catmod::PipelineStats stats;
  const auto elt = run_cat_model(catalog, exposure, {}, &stats);
  data::save_elt(elt, out);
  std::cout << "cat model: "
            << format_count(static_cast<double>(stats.event_exposure_pairs))
            << " pairs in " << format_seconds(stats.seconds) << "\n"
            << "wrote " << out << ": " << elt.size() << " ELT rows, total mean loss "
            << format_count(elt.total_mean_loss()) << "\n";
  if (args.has("yelt-out")) {
    catmod::CatalogYeltConfig yc;
    yc.trials = static_cast<TrialId>(args.integer("trials", 10'000));
    yc.seed = cc.seed + 2;
    const auto yelt = simulate_yelt(catalog, yc);
    data::save_yelt(yelt, args.str("yelt-out"));
    std::cout << "wrote " << args.str("yelt-out") << ": " << yelt.trials()
              << " trials from the catalogue's rates\n";
  }
  return 0;
}

int cmd_aggregate(const Args& args) {
  const auto elt = data::load_elt(args.str("elt"));
  const auto yelt = data::load_yelt(args.str("yelt"));
  const auto out = args.str("out");

  finance::Layer layer;
  layer.id = 0;
  layer.terms.occ_retention = args.num("retention", 0.0);
  layer.terms.occ_limit = args.num("limit", 1e18);
  layer.terms.agg_retention = args.num("agg-retention", 0.0);
  layer.terms.agg_limit = args.num("agg-limit", 1e18);
  layer.terms.share = args.num("share", 1.0);
  if (args.has("franchise") && args.integer("franchise", 0) != 0) {
    layer.terms.retention_kind = finance::RetentionKind::Franchise;
  }

  finance::Portfolio portfolio;
  portfolio.add(finance::Contract(0, elt, {layer}));

  core::EngineConfig config;
  config.seed = args.integer("seed", 2012);
  config.secondary_uncertainty = args.integer("secondary", 1) != 0;
  config.compute_oep = false;
  config.keep_contract_ylts = false;
  config.backend = core::Backend::Threaded;

  const auto result = core::run_aggregate_analysis(portfolio, yelt, config);
  data::save_ylt(result.portfolio_ylt, out);
  std::cout << "aggregate analysis: " << yelt.trials() << " trials in "
            << format_seconds(result.seconds) << " ("
            << format_rate(static_cast<double>(result.occurrences_processed) /
                           result.seconds)
            << " occurrences)\n"
            << "wrote " << out << ": mean annual loss "
            << format_count(result.portfolio_ylt.mean()) << "\n";
  return 0;
}

int cmd_metrics(const Args& args) {
  const auto ylt = data::load_ylt(args.str("ylt"));
  const auto summary = core::summarise(ylt);

  ReportTable table({"metric", "value"});
  table.add_row({"trials", format_count(static_cast<double>(ylt.trials()))});
  table.add_row({"mean annual loss", format_count(summary.mean_annual_loss)});
  table.add_row({"stdev", format_count(summary.stdev_annual_loss)});
  table.add_row({"VaR 95%", format_count(summary.var_95)});
  table.add_row({"VaR 99%", format_count(summary.var_99)});
  table.add_row({"TVaR 99%", format_count(summary.tvar_99)});
  table.add_row({"PML 100y", format_count(summary.pml_100)});
  table.add_row({"PML 250y", format_count(summary.pml_250)});
  table.add_row({"max loss", format_count(summary.max_loss)});
  table.print(std::cout);

  std::cout << "\nEP curve\n";
  ReportTable curve({"return period", "loss"});
  const auto rps = core::standard_return_periods();
  for (const auto& point : core::exceedance_curve(ylt, rps)) {
    curve.add_row({format_fixed(point.return_period_years, 0) + "y",
                   format_count(point.loss)});
  }
  curve.print(std::cout);

  if (args.has("ci") && args.integer("ci", 0) != 0) {
    const auto pml = core::bootstrap_pml(ylt, 250.0);
    std::cout << "\nPML 250y 90% CI: [" << format_count(pml.lo) << ", "
              << format_count(pml.hi) << "]\n";
  }
  return 0;
}

int cmd_info(const Args& args) {
  const auto path = args.str("file");
  const auto data = read_file(path);
  RISKAN_REQUIRE(data.size() >= 4, "file too small to identify: " + path);
  ByteReader reader(data);
  const auto magic = reader.u32();
  std::cout << path << ": " << format_bytes(static_cast<double>(data.size())) << ", ";
  switch (magic) {
    case 0x454C5431: {
      ByteReader fresh(data);
      const auto elt = data::decode_elt(fresh);
      std::cout << "ELT, " << elt.size() << " rows, total mean loss "
                << format_count(elt.total_mean_loss()) << "\n";
      return 0;
    }
    case 0x59454C31: {
      ByteReader fresh(data);
      const auto yelt = data::decode_yelt(fresh);
      std::cout << "YELT, " << yelt.trials() << " trials, "
                << format_count(static_cast<double>(yelt.entries()))
                << " occurrences, " << format_fixed(yelt.mean_events_per_trial(), 2)
                << " events/year\n";
      return 0;
    }
    case 0x594C5431: {
      ByteReader fresh(data);
      const auto ylt = data::decode_ylt(fresh);
      std::cout << "YLT '" << ylt.label() << "', " << ylt.trials()
                << " trials, mean " << format_count(ylt.mean()) << "\n";
      return 0;
    }
    default:
      std::cout << "unknown format (magic 0x" << std::hex << magic << ")\n";
      return 1;
  }
}

void usage(std::ostream& os) {
  os << "riskan — reinsurance risk-analytics pipeline CLI\n\n"
     << "  riskan gen-yelt   --out F [--events N --trials T --rate R --seed S\n"
     << "                    --dispersion D --sort-by-day 1]\n"
     << "  riskan gen-elt    --out F [--events N --sites M --seed S --yelt-out F2 --trials T]\n"
     << "                    (stage 1 over events x sites; only pairs that can lose\n"
     << "                    reach the damage and loss modules)\n"
     << "  riskan aggregate  --elt F --yelt F --out F [--retention X --limit X\n"
     << "                    --agg-retention X --agg-limit X --share X --franchise 1\n"
     << "                    --secondary 0|1 --seed S]\n"
     << "  riskan metrics    --ylt F [--ci 1]\n"
     << "  riskan info       --file F\n";
}

int dispatch(int argc, char** argv) {
  if (argc < 2) {
    usage(std::cerr);
    return 2;
  }
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    usage(std::cout);
    return 0;
  }
  const Args args(argc, argv, 2);
  if (command == "gen-yelt") {
    return cmd_gen_yelt(args);
  }
  if (command == "gen-elt") {
    return cmd_gen_elt(args);
  }
  if (command == "aggregate") {
    return cmd_aggregate(args);
  }
  if (command == "metrics") {
    return cmd_metrics(args);
  }
  if (command == "info") {
    return cmd_info(args);
  }
  std::cerr << "unknown command: " << command << "\n";
  usage(std::cerr);
  return 2;
}

}  // namespace
}  // namespace riskan::cli

int main(int argc, char** argv) {
  try {
    return riskan::cli::dispatch(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
