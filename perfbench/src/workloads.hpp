// The benchmark's four workloads. Each drives only public entry points of
// the library with the default EngineConfig, setting just the fields that
// define the workload.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "trace.hpp"

namespace perfbench {

/// Library-reported numbers of one traced op, by name; run.py turns them
/// into per-layer metrics.
using Attrs = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from `seed`, stages files under `workdir`,
  /// computes reference outputs through an independent public path and
  /// runs one warm-up op. Returns whether the warm-up op passed its check.
  virtual bool setup(std::uint64_t seed, const std::string& workdir) = 0;

  /// One unit of user work. Every public call runs inside a span of
  /// `trace`; numbers the library reports about the call land in `attrs`.
  virtual void op(Tracer& trace, Attrs& attrs) = 0;

  /// Compares the last op's outputs with the references, bit for bit.
  virtual bool check() const = 0;

  /// Re-runs the last op's stage-2 call with sampling off and returns its
  /// wall seconds; 0 where the workload samples nothing.
  virtual double stage2_sampling_off_seconds() { return 0.0; }

  /// Flips one bit of a reference output, so every later check fails.
  virtual void corrupt_reference() = 0;

 protected:
  /// One untraced op, as set-up's warm-up.
  void warm_up() {
    Tracer off(false);
    Attrs ignored;
    op(off, ignored);
  }
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
