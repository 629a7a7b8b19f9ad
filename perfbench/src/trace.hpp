// Benchmark-side span recorder.
//
// The benchmark wraps each public call it makes into the library in a span:
// name, start, end, parent span and op id. Spans stay in memory and are
// written out with the run's result at the end; run.py derives per-layer
// self times and trace coverage from them. Nothing inside the library is
// instrumented by this file. A disabled tracer records nothing, so the
// timed (untraced) runs pay one branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";   ///< literal, so the record stays valid for the run
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;         ///< index into Tracer::spans(), -1 = top level
  int op = -1;             ///< op id the span belongs to, -1 = outside any op
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const noexcept { return on_; }

  /// Spans opened from now on carry this op id.
  void set_op(int op) noexcept { op_ = op; }

  /// RAII span: opened at construction, closed at destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer), index_(tracer.open(name)) {}
    ~Scope() { tracer_.close(index_); }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

 private:
  int open(const char* name) {
    if (!on_) {
      return -1;
    }
    SpanRecord span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.op = op_;
    span.start_ns = now_ns();
    spans_.push_back(span);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int index) {
    if (index < 0) {
      return;
    }
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

  bool on_;
  int op_ = -1;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
