// Secondary uncertainty — sampling an actual loss around the ELT mean.
//
// Catastrophe models report, per event, a mean loss and a spread; the loss
// given that the event occurs is Beta-distributed on [0, exposure]
// (industry convention; see Meyers et al. [5] of the paper). Aggregate
// analysis optionally samples this distribution per (trial, event)
// occurrence, which is the dominant FLOP cost of stage 2.
//
// Determinism contract: the sample depends only on (seed, contract, trial,
// occurrence-sequence) through a counter-based Philox stream, so all engine
// backends produce bit-identical YLTs regardless of scheduling. The layer
// is not part of the key: every layer of a contract's tower, and every
// scenario variant of it, sees the same sampled ground-up loss for the same
// occurrence (kStreamKeyVersion below).
#pragma once

#include <cstdint>
#include <vector>

#include "data/elt.hpp"
#include "util/aligned.hpp"
#include "util/distributions.hpp"
#include "util/prng.hpp"

namespace riskan::core {

/// Precomputed per-ELT-row beta parameters (method of moments on the
/// normalised loss mean/sigma). Computing these once per table keeps the
/// per-occurrence hot path to a gamma-pair draw.
///
/// Two layouts over the same parameters: the AoS Param array serves the
/// scalar per-occurrence path, and a cache-line-packed LaneRow array
/// serves sample_lanes — the vector pass's batched path, which draws all
/// Philox blocks lane-parallel and runs the Marsaglia–Tsang first-attempt
/// fast path per lane, falling back to the
/// scalar sampler (fresh stream, in occurrence order) for the rejection
/// tail. Fallback recomputes from the stream's start, so a bail at any
/// point costs draws, never correctness. Occurrence rows arrive in random
/// catalogue order, so everything the fast path touches for one row —
/// squeeze constants for both marginals, boost exponents, exposure, flags
/// — is packed into exactly one 64-byte line.
class SecondarySampler {
 public:
  /// Precomputes parameters for every row of `elt`.
  explicit SecondarySampler(const data::EventLossTable& elt);

  /// Samples the loss for ELT row `row` under stream `stream`.
  /// Mean of the samples converges to the row's mean_loss.
  template <typename Rng>
  Money sample(std::size_t row, Rng& rng) const {
    const Param& p = params_[row];
    if (p.degenerate) {
      return p.exposure * p.mean_ratio;
    }
    return p.exposure * sample_beta(rng, p.alpha, p.beta);
  }

  /// Batched sampling for the vector pass: out[i] = sample(rows[i], s_i)
  /// where s_i is the occurrence stream (engine, hi_key, lo[i]) — exactly
  /// what the scalar kernel would construct per occurrence. `fast` / `tail`
  /// count occurrences resolved by the lane fast path (degenerate rows
  /// included) vs the scalar rejection-tail fallback.
  void sample_lanes(const Philox4x32& engine, std::uint64_t hi_key,
                    const std::uint32_t* rows, const std::uint64_t* lo, std::size_t n,
                    Money* out, std::uint64_t& fast, std::uint64_t& tail) const;

  std::size_t size() const noexcept { return params_.size(); }

  /// One row's beta parameters (the device model packs one per resident
  /// ELT row).
  struct Param {
    double alpha = 1.0;
    double beta = 1.0;
    Money exposure = 0.0;
    double mean_ratio = 0.0;
    bool degenerate = false;
  };

 private:
  // Row classification bits of LaneRow::flags.
  static constexpr std::uint32_t kDegenerate = 1;  ///< no draws; value precomputed
  static constexpr std::uint32_t kBoostAlpha = 2;  ///< alpha < 1: one boost uniform
  static constexpr std::uint32_t kBoostBeta = 4;   ///< beta < 1: one boost uniform

  /// One cache line of everything sample_lanes reads for a row. The squeeze
  /// constants are precomputed per gamma marginal with the boosted shape
  /// where the scalar sampler would boost, via the same expressions
  /// sample_gamma evaluates — so the committed fast-path values are
  /// bit-identical. Degenerate rows stash their precomputed value in d_a
  /// (the gamma constants are never read for them).
  struct alignas(64) LaneRow {
    double d_a = 0.0;   ///< alpha marginal: shape - 1/3 (degenerate: the value)
    double c_a = 0.0;   ///< alpha marginal: 1/sqrt(9 d)
    double inv_a = 0.0; ///< 1/alpha (read only when kBoostAlpha)
    double d_b = 0.0;
    double c_b = 0.0;
    double inv_b = 0.0;
    Money exposure = 0.0;
    std::uint32_t flags = 0;
    std::uint32_t pad_ = 0;
  };
  static_assert(sizeof(LaneRow) == 64, "LaneRow must fill one cache line");

  std::vector<Param> params_;
  util::AlignedVector<LaneRow> lane_rows_;
};

/// Version of the occurrence stream-key layout below; bump it whenever the
/// layout changes, because every secondary-on YLT changes with it.
///   1 — hi = contract << 16 | layer: each layer of a tower drew its own
///       ground-up loss, so layers disagreed about the same occurrence.
///   2 — hi = contract << 16 (the layer field is fixed at 0): one draw per
///       (contract, trial, occurrence), shared by every layer and every
///       scenario variant of the contract. This is the key run_program has
///       always used, so the flat engine equals run_program(inuring=false).
inline constexpr int kStreamKeyVersion = 2;

/// The per-contract half of an occurrence stream key.
inline std::uint64_t occurrence_hi_key(ContractId contract) noexcept {
  return static_cast<std::uint64_t>(contract) << 16;
}

/// The per-occurrence half: global trial and in-trial occurrence sequence.
inline std::uint64_t occurrence_lo_key(TrialId trial, std::uint32_t occurrence_seq) noexcept {
  return (static_cast<std::uint64_t>(trial) << 20) | static_cast<std::uint64_t>(occurrence_seq);
}

/// Builds the Philox stream for one (contract, trial, occurrence).
inline PhiloxStream occurrence_stream(const Philox4x32& engine, ContractId contract,
                                      TrialId trial, std::uint32_t occurrence_seq) noexcept {
  return PhiloxStream(engine, occurrence_hi_key(contract),
                      occurrence_lo_key(trial, occurrence_seq));
}

}  // namespace riskan::core
