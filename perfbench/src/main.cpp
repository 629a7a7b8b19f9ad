// perfbench — one closed-loop, single-threaded client that sets one
// workload up, runs it for a fixed time and writes the set-up time and every
// op's raw measurements (and, when traced, its spans and library-reported
// numbers) as one JSON file. run.py builds this program, runs it (three
// times per untraced run, so each set-up starts from a fresh process) and
// turns the files into metrics.
//
//   perfbench --workload <pipeline|quotes|whatif|outofcore> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir> --out <file>
//             [--corrupt-reference]
//
// A traced run alternates untraced and traced ops, so the two can be
// compared for tracing overhead; after each traced op the stage-2 call is
// repeated with sampling off (the sampling probe).
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/simd.hpp"
#include "obs/registry.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string workdir;
  std::string out;
  bool corrupt_reference = false;
};

bool parse(int argc, char** argv, Args& args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      args.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--out") {
      args.out = value;
    } else {
      return false;
    }
  }
  return have_seed && args.seconds > 0.0 && !args.workload.empty() &&
         !args.workdir.empty() && !args.out.empty();
}

/// Process CPU seconds, user + system, all threads.
double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct OpRecord {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  bool ok = false;
  bool traced = false;
  std::string error;
  Attrs attrs;
};

/// Registry deltas over one traced op: resolver hits and build time, SIMD
/// lane use.
void add_registry_deltas(const riskan::obs::RegistrySnapshot& before,
                         const riskan::obs::RegistrySnapshot& after, Attrs& attrs) {
  const auto delta = riskan::obs::RegistrySnapshot::delta(before, after);
  attrs["resolver_hits"] = delta.counter_value("resolver.hits");
  attrs["resolver_misses"] = delta.counter_value("resolver.misses");
  const auto* build = delta.histogram("resolver.build_seconds");
  attrs["resolver_build_s"] = build != nullptr ? build->sum : 0.0;
  attrs["simd_vector"] = delta.counter_value("exec.simd.vector_occurrences");
  attrs["simd_tail"] = delta.counter_value("exec.simd.tail_occurrences");
  attrs["simd_scalar"] = delta.counter_value("exec.simd.scalar_occurrences");
}

OpRecord run_op(Workload& workload, Tracer& tracer, int id, bool traced) {
  OpRecord rec;
  rec.traced = traced;
  Tracer off(false);
  Tracer& trace = traced ? tracer : off;
  trace.set_op(id);
  const auto& registry = riskan::obs::MetricsRegistry::global();
  riskan::obs::RegistrySnapshot before;
  if (traced) {
    before = registry.snapshot();
  }
  try {
    const double cpu0 = process_cpu_seconds();
    const std::int64_t t0 = now_ns();
    {
      Tracer::Scope span(trace, "op");
      workload.op(trace, rec.attrs);
    }
    rec.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    rec.cpu_s = process_cpu_seconds() - cpu0;
    if (traced) {
      add_registry_deltas(before, registry.snapshot(), rec.attrs);
      rec.attrs["stage2_off_s"] = workload.stage2_sampling_off_seconds();
    }
    rec.ok = workload.check();
    if (!rec.ok) {
      rec.error = "output differs from the reference";
    }
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  trace.set_op(-1);
  return rec;
}

std::string provenance_json(const Args& args) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  const auto simd = riskan::core::exec::simd_dispatch();
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream out;
  out << "{\"nproc\": " << nproc
      << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"simd_compiled\": " << (simd.compiled ? "true" : "false")
      << ", \"simd_dispatched\": " << quoted(simd.name)
      << ", \"compiler\": " << quoted(compiler)
      << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
      << ", \"workload\": " << quoted(args.workload) << ", \"seed\": " << args.seed << "}";
  return out.str();
}

void write_result(const Args& args, double setup_s, bool warmup_ok,
                  const std::vector<OpRecord>& ops, const Tracer& tracer) {
  std::ofstream out(args.out);
  out << "{\"provenance\": " << provenance_json(args) << ",\n\"setup_s\": " << number(setup_s)
      << ",\n\"warmup_ok\": " << (warmup_ok ? "true" : "false")
      << ",\n\"peak_rss_mb\": " << number(peak_rss_mb()) << ",\n\"ops\": [";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& op = ops[i];
    out << (i ? ",\n" : "\n") << "{\"wall_s\": " << number(op.wall_s)
        << ", \"cpu_s\": " << number(op.cpu_s) << ", \"ok\": " << (op.ok ? "true" : "false")
        << ", \"traced\": " << (op.traced ? "true" : "false")
        << ", \"error\": " << quoted(op.error) << ", \"attrs\": {";
    bool first = true;
    for (const auto& [name, value] : op.attrs) {
      out << (first ? "" : ", ") << quoted(name) << ": " << number(value);
      first = false;
    }
    out << "}}";
  }
  out << "],\n\"spans\": [";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\": " << quoted(s.name) << ", \"start_ns\": "
        << s.start_ns << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"op\": " << s.op << "}";
  }
  out << "]}\n";
  if (!out) {
    throw std::runtime_error("cannot write " + args.out);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse(argc, argv, args)) {
      std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                   "--workdir <dir> --out <file> [--corrupt-reference]\n";
      return 2;
    }
    const std::int64_t t0 = now_ns();
    const auto workload = make_workload(args.workload);
    if (workload == nullptr) {
      std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
      return 2;
    }
    const bool warmup_ok = workload->setup(args.seed, args.workdir);
    const double setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
    if (args.corrupt_reference) {
      workload->corrupt_reference();
    }

    // Closed loop: the next op starts when the previous one has finished,
    // until the time is up (at least kMinOps ops).
    constexpr int kMinOps = 4;
    Tracer tracer(args.trace);
    std::vector<OpRecord> ops;
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
    for (int i = 0; i < kMinOps || now_ns() < deadline; ++i) {
      ops.push_back(run_op(*workload, tracer, i, args.trace && i % 2 == 1));
    }
    write_result(args, setup_s, warmup_ok, ops, tracer);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
