// Reinsurance program engine — ordered layers with inuring recoveries.
//
// A test-side reference, beside the oracle (oracle.hpp): no entry point
// runs inuring programs, so the library keeps one trial loop and this
// per-occurrence cascade checks the layer tower against it
// (tests/test_program.cpp).
//
// The flat aggregate engine treats every layer independently against the
// same ground-up loss, which is exact for side-by-side quota shares and
// non-overlapping towers. Real programs also contain *inuring* structures:
// layer k+1 attaches to the loss net of what layers 1..k already paid (a
// per-risk cover inures to the benefit of the cat tower, etc.). The
// cascade couples the layers per occurrence, so it cannot be decomposed
// layer-major; this engine walks each occurrence through the ordered
// layers, maintaining per-layer annual aggregates, and emits per-layer and
// program-net YLTs.
//
// Invariants (tested): total recoveries never exceed the ground-up loss;
// with non-overlapping layers the cascade equals the flat engine; adding
// an inuring layer never increases losses to the layers after it.
#pragma once

#include <vector>

#include "data/yelt.hpp"
#include "data/ylt.hpp"
#include "finance/contract.hpp"

namespace riskan::core {

struct ProgramConfig {
  std::uint64_t seed = 2012;
  bool secondary_uncertainty = false;
  /// Occurrence losses cascade: each layer sees the ground-up loss net of
  /// recoveries from the layers before it in `contract.layers()` order.
  /// When false this engine reproduces the flat engine exactly (tested).
  bool inuring = true;
};

struct ProgramResult {
  /// Per-layer net YLTs, in the contract's layer order.
  std::vector<data::YearLossTable> layer_ylts;
  /// Ground-up annual losses per trial (before any recovery).
  data::YearLossTable gross_ylt;
  /// Retained: gross minus all recoveries.
  data::YearLossTable retained_ylt;
  double seconds = 0.0;
};

/// Runs the cascade for one contract's layer program over the YELT.
ProgramResult run_program(const finance::Contract& contract,
                          const data::YearEventLossTable& yelt,
                          const ProgramConfig& config = {});

}  // namespace riskan::core
