// Shared workload builders and reporting helpers for the experiment
// benches (E1..E9). Every bench prints the rows of the paper claim it
// reproduces (see DESIGN.md section 3) and mirrors them to CSV next to the
// binary when RISKAN_BENCH_CSV_DIR is set.
#pragma once

#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/simd.hpp"
#include "data/yelt.hpp"
#include "finance/contract.hpp"
#include "obs/obs.hpp"
#include "util/format.hpp"
#include "util/report.hpp"

namespace riskan::bench {

/// Standard stage-2 workload used across E2/E4/E5/E6: a mid-size book over
/// a 10k-event catalogue.
struct Workload {
  finance::Portfolio portfolio;
  data::YearEventLossTable yelt;
  EventId catalog_events = 0;
};

inline Workload make_workload(std::size_t contracts, std::size_t elt_rows, TrialId trials,
                              double events_per_year = 10.0,
                              EventId catalog_events = 10'000,
                              int layers_per_contract = 1) {
  Workload w;
  w.catalog_events = catalog_events;

  finance::PortfolioGenConfig pg;
  pg.contracts = contracts;
  pg.catalog_events = catalog_events;
  pg.elt_rows = elt_rows;
  pg.layers_per_contract = layers_per_contract;
  pg.seed = 4242;
  w.portfolio = finance::generate_portfolio(pg);

  data::YeltGenConfig yg;
  yg.trials = trials;
  yg.mean_events_per_year = events_per_year;
  yg.seed = 777;
  w.yelt = data::generate_yelt(catalog_events, yg);
  return w;
}

/// Quick mode shrinks trial counts ~10x so the full bench suite stays fast
/// in CI; set RISKAN_BENCH_QUICK=1.
inline bool quick_mode() {
  const char* env = std::getenv("RISKAN_BENCH_QUICK");
  return env != nullptr && env[0] == '1';
}

inline TrialId scaled_trials(TrialId full) {
  return quick_mode() ? std::max<TrialId>(1'000, full / 10) : full;
}

/// Resolves the directory bench artifacts land in: $RISKAN_BENCH_CSV_DIR
/// when set, else the working directory.
inline std::string artifact_path(const std::string& filename) {
  if (const char* dir = std::getenv("RISKAN_BENCH_CSV_DIR")) {
    return std::string(dir) + "/" + filename;
  }
  return filename;
}

/// Prints the table and optionally mirrors it to $RISKAN_BENCH_CSV_DIR/<id>.csv.
inline void emit(const std::string& experiment_id, const ReportTable& table) {
  table.print(std::cout);
  if (std::getenv("RISKAN_BENCH_CSV_DIR") != nullptr) {
    table.write_csv(artifact_path(experiment_id + ".csv"));
  }
}

inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Wall seconds of two arms, one sample of each per round.
struct PairedRounds {
  std::vector<double> a;
  std::vector<double> b;
};

/// Times `a` and `b` once per round, alternating which runs first, so that
/// host drift between the two does not land on one arm.
template <typename RunA, typename RunB>
PairedRounds alternating_rounds(int rounds, const RunA& a, const RunB& b) {
  PairedRounds out;
  const auto time_into = [](const auto& run, std::vector<double>& seconds) {
    obs::Timer watch("bench.round");
    run();
    seconds.push_back(watch.stop());
  };
  for (int r = 0; r < rounds; ++r) {
    if (r % 2 == 0) {
      time_into(a, out.a);
      time_into(b, out.b);
    } else {
      time_into(b, out.b);
      time_into(a, out.a);
    }
  }
  return out;
}

/// A paired timing as the gates read it: each arm's median round, and the
/// median, least and largest per-round ratio b / a.
struct PairedSummary {
  double a = 0.0;
  double b = 0.0;
  double ratio = 0.0;
  double ratio_min = 0.0;
  double ratio_max = 0.0;
};

inline PairedSummary summarize(const PairedRounds& timed) {
  std::vector<double> ratios;
  for (std::size_t r = 0; r < timed.a.size(); ++r) {
    ratios.push_back(timed.b[r] / timed.a[r]);
  }
  const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
  return {median(timed.a), median(timed.b), median(ratios), *lo, *hi};
}

#ifndef RISKAN_BUILD_TYPE
#define RISKAN_BUILD_TYPE "unknown"
#endif

/// Flat machine-readable bench record: ordered key→value pairs serialised
/// as one JSON object, so future PRs can track a perf trajectory without
/// parsing the ASCII tables. Numbers are emitted as numbers, everything
/// else as strings. Every record ends with the host_* provenance block
/// perfbench prints: the CPUs this process may run on, the hardware
/// threads, the SIMD ISA compiled and dispatched, the compiler and the
/// build type (a compile definition of the bench targets). No git sha: a
/// binary cannot know it without a configure-time stamp, which goes stale
/// as soon as a file changes without a re-configure.
class JsonReport {
 public:
  void set(const std::string& key, double value) {
    entries_.emplace_back(key, format_fixed(value, 6));
  }
  void set(const std::string& key, std::uint64_t value) {
    entries_.emplace_back(key, std::to_string(value));
  }
  void set(const std::string& key, const std::string& value) {
    entries_.emplace_back(key, "\"" + value + "\"");
  }

  /// Writes `{ "k": v, ... }`. Keys are expected to be plain identifiers
  /// (no escaping is performed).
  void write(const std::string& path) const {
    JsonReport record = *this;
    record.add_provenance();
    std::ofstream out(path);
    out << "{\n";
    for (std::size_t i = 0; i < record.entries_.size(); ++i) {
      out << "  \"" << record.entries_[i].first << "\": " << record.entries_[i].second;
      out << (i + 1 < record.entries_.size() ? ",\n" : "\n");
    }
    out << "}\n";
  }

 private:
  void add_provenance() {
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    const int nproc = sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
    const auto simd = core::exec::simd_dispatch();
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    set("host_nproc", static_cast<std::uint64_t>(nproc));
    set("host_hardware_concurrency",
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    set("host_simd_compiled", std::string(simd.compiled ? "true" : "false"));
    set("host_simd_dispatched", std::string(simd.name));
    set("host_compiler", compiler);
    set("host_build_type", std::string(RISKAN_BUILD_TYPE));
  }

  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace riskan::bench
