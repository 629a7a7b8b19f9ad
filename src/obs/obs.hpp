// Observability facade: per-run configuration, end-of-run reports, and the
// Timer that replaces ad-hoc Stopwatch call sites on engine paths.
//
//   ObsConfig   — rides EngineConfig; validated up
//                 front by validate_obs_config (bad trace paths and bucket
//                 configs are rejected before any work starts, matching
//                 the PR-4 validate_engine_config pattern).
//   ObsReport   — snapshot-delta of the global registry over one run plus
//                 trace-buffer accounting; JSON-exportable.
//   RunObsScope — RAII helper each top-level entry point owns: arms
//                 tracing per config on entry, and on finish() produces
//                 the ObsReport / exports the chrome trace. Delegating
//                 entry points clear `obs` on the inner config so exactly
//                 one scope — the outermost — observes the run.
//   Timer       — Stopwatch-backed duration probe that also emits a trace
//                 span per timed interval. The one timing API for engine
//                 paths and benches.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace riskan::obs {

/// Per-run observability knobs (zero-initialized = everything off).
struct ObsConfig {
  /// Collect a RegistrySnapshot delta over the run into an ObsReport.
  bool collect_report = false;
  /// Write the ObsReport JSON here at end of run ("" = don't write;
  /// implies collect_report).
  std::string report_path;
  /// Start tracing at run entry and export chrome://tracing JSON here at
  /// end of run ("" = leave tracing as the process-wide RISKAN_TRACE
  /// state).
  std::string trace_path;
  /// Override histogram bounds for run-scoped duration histograms; empty
  /// = default_seconds_bounds(). Must be strictly increasing and finite.
  std::vector<double> histogram_bounds;

  bool any() const noexcept {
    return collect_report || !report_path.empty() || !trace_path.empty();
  }
};

/// Rejects malformed configs before any work: unwritable/denormal paths,
/// non-increasing or non-finite bucket edges. Throws ContractViolation.
void validate_obs_config(const ObsConfig& config);

/// End-of-run observability summary: what this run added to the global
/// registry, plus tracing accounting.
struct ObsReport {
  RegistrySnapshot metrics;        ///< delta over the run
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_dropped = 0;
  double seconds = 0.0;            ///< run wall-clock, same clock as spans

  /// {"seconds":…, "spans":{…}, "metrics":{counters/gauges/histograms}}.
  std::string to_json() const;
};

/// RAII per-entry-point scope. Construct with the run's ObsConfig; call
/// finish() when the run's result is ready (destruction without finish()
/// still restores trace state but produces no report).
class RunObsScope {
 public:
  explicit RunObsScope(const ObsConfig& config);
  ~RunObsScope();

  RunObsScope(const RunObsScope&) = delete;
  RunObsScope& operator=(const RunObsScope&) = delete;

  /// Ends the observation window: exports the trace (config.trace_path),
  /// writes/returns the report (config.collect_report / report_path).
  /// Returns nullptr when no report was requested. Idempotent.
  std::shared_ptr<const ObsReport> finish();

 private:
  ObsConfig config_;
  bool observing_ = false;
  bool started_trace_ = false;
  bool finished_ = false;
  Stopwatch watch_;
  RegistrySnapshot before_;
  std::size_t spans_before_ = 0;
  std::uint64_t dropped_before_ = 0;
};

/// Duration probe: a Stopwatch that doubles as a trace span emitter.
/// seconds() reads without ending the interval; stop() (or destruction)
/// ends it, recording one span named at construction. reset() ends the
/// current interval (recording it) and starts a new one — matching the
/// Stopwatch reset-and-reuse idiom at existing call sites.
class Timer {
 public:
  /// `name` must be a literal/stable string; interned once per call via
  /// the global buffer (cheap — one mutex hop per distinct name). Tracing
  /// state is sampled at construction: a Timer born with tracing off
  /// measures but never emits.
  explicit Timer(std::string_view name) : traced_(TraceBuffer::global().active()) {
    if (traced_) {
      name_id_ = span_id(name);
    }
  }

  ~Timer() { stop(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Elapsed seconds of the current interval (does not end it).
  double seconds() const noexcept { return stopped_ ? stopped_seconds_ : watch_.seconds(); }
  double millis() const noexcept { return seconds() * 1e3; }

  /// Ends the current interval, emits its span, returns its seconds.
  /// Idempotent (subsequent calls return the recorded duration).
  double stop() noexcept {
    if (stopped_) {
      return stopped_seconds_;
    }
    stopped_ = true;
    stopped_seconds_ = watch_.seconds();
    emit();
    return stopped_seconds_;
  }

  /// Ends the current interval (emitting its span) and starts a new one.
  void reset() noexcept {
    if (!stopped_) {
      emit();
    }
    stopped_ = false;
    stopped_seconds_ = 0.0;
    start_ns_ = trace_now_ns();
    watch_.reset();
  }

 private:
  void emit() noexcept {
    if (!traced_) {
      return;
    }
    const std::uint64_t end_ns = trace_now_ns();
    const std::uint64_t dur = end_ns > start_ns_ ? end_ns - start_ns_ : 1;
    TraceBuffer::global().record(name_id_, /*lane=*/0, trace_thread_id(), start_ns_, dur);
  }

  bool traced_ = false;
  std::uint32_t name_id_ = 0;
  std::uint64_t start_ns_ = trace_now_ns();
  Stopwatch watch_;
  bool stopped_ = false;
  double stopped_seconds_ = 0.0;
};

}  // namespace riskan::obs
