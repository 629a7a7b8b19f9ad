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
// occurrence (kStreamKeyVersion below). The draw's arithmetic is the lane
// math of util/lane_math.hpp, not libm, so a sampled loss is also the same
// on every host and at every lane width.
#pragma once

#include <cstddef>
#include <cstdint>

#include "data/elt.hpp"
#include "util/aligned.hpp"
#include "util/lane_math.hpp"
#include "util/prng.hpp"

namespace riskan::core {

// ---------------------------------------------------------------------------
// The Marsaglia–Tsang attempt, written once over a lane policy
// ---------------------------------------------------------------------------

namespace beta_lanes {

/// One Marsaglia–Tsang proposal on W lanes: the Box–Muller normal x of two
/// open uniforms, v = 1 + c·x and its cube v3; `live` where v > 0 (the
/// attempt goes on to its acceptance uniform only there).
template <typename V>
struct Proposal {
  typename V::Vec x;
  typename V::Vec v3;
  typename V::Mask live;
};

template <typename V>
inline Proposal<V> gamma_proposal(typename V::Vec u1, typename V::Vec u2,
                                  typename V::Vec c) noexcept {
  const auto x = V::mul(V::sqrt(V::mul(V::broadcast(-2.0), lane_math::log<V>(u1))),
                        lane_math::cos_2pi<V>(u2));
  const auto v = V::add(V::broadcast(1.0), V::mul(c, x));
  return {x, V::mul(V::mul(v, v), v), V::lt(V::broadcast(0.0), v)};
}

/// The acceptance of proposal `p` with open uniform `u` and d = shape − 1/3:
/// the squeeze u < 1 − 0.0331·x⁴, else log(u) < x²/2 + d·(1 − v3 + log v3).
/// The log test runs only when some live lane fails the squeeze; dead lanes
/// feed log a 1, and are rejected.
template <typename V>
inline typename V::Mask gamma_accept(const Proposal<V>& p, typename V::Vec u,
                                     typename V::Vec d) noexcept {
  const auto one = V::broadcast(1.0);
  const auto x2 = V::mul(p.x, p.x);
  const auto squeeze = V::lt(u, V::sub(one, V::mul(V::mul(V::broadcast(0.0331), x2), x2)));
  const auto ok = V::land(p.live, squeeze);
  const auto need = V::landnot(squeeze, p.live);
  if (!V::any(need)) {
    return ok;
  }
  const auto v3 = V::select(p.live, p.v3, one);
  const auto bound = V::add(V::mul(V::broadcast(0.5), x2),
                            V::mul(d, V::add(V::sub(one, v3), lane_math::log<V>(v3))));
  return V::lor(ok, V::land(need, V::lt(lane_math::log<V>(u), bound)));
}

/// The shape boost's multiplier U^(1/a) = exp(log(u) · (1/a)), within
/// 1 + 3·|log(u)/a| ulp of pow (util/lane_math.hpp derives the bound).
template <typename V>
inline typename V::Vec boost_multiplier(typename V::Vec u, typename V::Vec inv_shape) noexcept {
  return lane_math::exp<V>(V::mul(lane_math::log<V>(u), inv_shape));
}

}  // namespace beta_lanes

// ---------------------------------------------------------------------------
// The sampler
// ---------------------------------------------------------------------------

/// Precomputed per-ELT-row beta parameters (method of moments on the
/// normalised loss mean/sigma), packed one row per cache line: occurrence
/// rows arrive in random catalogue order, so everything a draw touches for
/// one row — squeeze constants for both marginals, boost exponents,
/// exposure, flags — is one 64-byte line.
///
/// Two paths over the same rows and the same beta_lanes templates:
/// `sample` draws one occurrence at width 1, looping the attempt until it
/// accepts; `sample_lanes` draws a batch's Philox blocks lane-parallel and
/// decodes every lane's first attempt W lanes at a time (width 4 in the
/// AVX2 stamp, picked through exec::simd_dispatch(); width 1 elsewhere),
/// falling back to `sample` on a fresh stream for the lanes whose first
/// attempt rejects. The fallback recomputes from the stream's start, so a
/// bail at any point costs draws, never correctness.
class SecondarySampler {
 public:
  /// Precomputes parameters for every row of `elt`.
  explicit SecondarySampler(const data::EventLossTable& elt);

  /// Samples the loss for ELT row `row` under stream `stream`.
  /// Mean of the samples converges to the row's mean_loss.
  template <typename Rng>
  Money sample(std::size_t row, Rng& rng) const {
    const LaneRow& r = lane_rows_[row];
    if ((r.flags & kDegenerate) != 0) {
      return r.d_a;
    }
    const double ga = draw_gamma(rng, r.d_a, r.c_a, r.inv_a, (r.flags & kBoostAlpha) != 0);
    const double gb = draw_gamma(rng, r.d_b, r.c_b, r.inv_b, (r.flags & kBoostBeta) != 0);
    return r.exposure * (ga / (ga + gb));
  }

  /// Batched sampling for the vector pass: out[i] = sample(rows[i], s_i)
  /// where s_i is the occurrence stream (engine, hi_key, lo[i]) — exactly
  /// what the scalar kernel would construct per occurrence. `fast` / `tail`
  /// count occurrences resolved by the lane fast path (degenerate rows
  /// included) vs the scalar rejection-tail fallback.
  void sample_lanes(const Philox4x32& engine, std::uint64_t hi_key,
                    const std::uint32_t* rows, const std::uint64_t* lo, std::size_t n,
                    Money* out, std::uint64_t& fast, std::uint64_t& tail) const;

  std::size_t size() const noexcept { return lane_rows_.size(); }

  /// One row's beta parameters (the device model packs one per resident
  /// ELT row).
  struct Param {
    double alpha = 1.0;
    double beta = 1.0;
    Money exposure = 0.0;
    double mean_ratio = 0.0;
    bool degenerate = false;
  };

  /// Most lanes one decode stamp runs per instruction (the AVX2 stamp's);
  /// LaneStage pads each class to at most this.
  static constexpr std::size_t kMaxDecodeWidth = 4;
  /// Occurrences per sample_lanes batch.
  static constexpr std::size_t kBatch = 64;
  /// Boost classes: bit 0 set when the alpha marginal boosts, bit 1 when the
  /// beta marginal does. Class 0 spends 3 Philox blocks per lane, the
  /// boosted classes 4.
  static constexpr unsigned kClasses = 4;

  /// One batch's live lanes staged for the first-attempt decode: boost
  /// class c's lanes sit in lane order from c · kClassCap, padded to a
  /// multiple of the decode width with copies of its last lane, and carry
  /// their rows' parameters as columns. The decode writes each lane's value
  /// and whether its first attempt accepted.
  struct LaneStage {
    static constexpr std::size_t kClassCap = kBatch + kMaxDecodeWidth - 1;
    static constexpr std::size_t kCap = kClasses * kClassCap;
    alignas(64) double d_a[kCap];
    alignas(64) double c_a[kCap];
    alignas(64) double inv_a[kCap];
    alignas(64) double d_b[kCap];
    alignas(64) double c_b[kCap];
    alignas(64) double inv_b[kCap];
    alignas(64) Money exposure[kCap];
    alignas(64) Money value[kCap];
    std::uint8_t ok[kCap];
  };

  /// A stamp of the first-attempt decode: lanes [begin, begin + n) of boost
  /// class `cls` (n a multiple of the stamp's width), whose words are
  /// block-major from `words`: lane group g's block j holds the stamp's W
  /// lanes' two words at words[2·(g·blocks + j)·W ...], interleaved.
  using DecodeFn = void (*)(unsigned cls, std::size_t begin, std::size_t n,
                            const std::uint64_t* words, LaneStage& stage);

  /// The decode written once over a lane policy V; secondary.cpp stamps it
  /// at width 1, core/batch_simd_avx2.cpp at width 4.
  template <typename V>
  static void decode_first_attempts(unsigned cls, std::size_t begin, std::size_t n,
                                    const std::uint64_t* words, LaneStage& stage) noexcept;

 private:
  // Row classification bits of LaneRow::flags.
  static constexpr std::uint32_t kDegenerate = 1;  ///< no draws; value precomputed
  static constexpr std::uint32_t kBoostAlpha = 2;  ///< alpha < 1: one boost uniform
  static constexpr std::uint32_t kBoostBeta = 4;   ///< beta < 1: one boost uniform

  /// One cache line of everything a draw reads for a row: the squeeze
  /// constants per gamma marginal with the boosted shape (shape + 1) where
  /// the shape is below 1, and 1/shape for the boost. Degenerate rows stash
  /// their value in d_a (the gamma constants are never read for them).
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

  /// Gamma(shape) at width 1: the boost uniform when `boost`, then
  /// Marsaglia–Tsang attempts until one accepts. Draw order per attempt:
  /// two uniforms for the normal, then — only when v > 0 — the acceptance
  /// uniform.
  template <typename Rng>
  static double draw_gamma(Rng& rng, double d, double c, double inv_shape, bool boost) {
    using S = lane_math::ScalarOps;
    const double ub = boost ? to_unit_double_open(rng()) : 1.0;
    for (;;) {
      const double u1 = to_unit_double_open(rng());
      const double u2 = to_unit_double_open(rng());
      const auto p = beta_lanes::gamma_proposal<S>(u1, u2, c);
      if (!p.live) {
        continue;
      }
      const double u = to_unit_double_open(rng());
      if (beta_lanes::gamma_accept<S>(p, u, d)) {
        const double g = d * p.v3;
        return boost ? g * beta_lanes::boost_multiplier<S>(ub, inv_shape) : g;
      }
    }
  }

  /// The lanes' gamma marginal of one decode group: its boost uniform when
  /// kBoost, then the proposal's two uniforms and the acceptance uniform,
  /// from u[k] on (k advances past them). `g` receives the gamma value.
  template <typename V, bool kBoost>
  static typename V::Mask first_attempt(const typename V::Vec* u, std::size_t& k,
                                        typename V::Vec d, typename V::Vec c,
                                        typename V::Vec inv_shape,
                                        typename V::Vec& g) noexcept {
    typename V::Vec mul = V::broadcast(1.0);
    if constexpr (kBoost) {
      mul = beta_lanes::boost_multiplier<V>(u[k++], inv_shape);
    }
    const auto p = beta_lanes::gamma_proposal<V>(u[k], u[k + 1], c);
    const auto ok = beta_lanes::gamma_accept<V>(p, u[k + 2], d);
    k += 3;
    g = V::mul(d, p.v3);
    if constexpr (kBoost) {
      g = V::mul(g, mul);
    }
    return ok;
  }

  template <typename V, bool kBoostA, bool kBoostB>
  static void decode_class(std::size_t begin, std::size_t n, const std::uint64_t* words,
                           LaneStage& st) noexcept;

  util::AlignedVector<LaneRow> lane_rows_;
};

template <typename V, bool kBoostA, bool kBoostB>
void SecondarySampler::decode_class(std::size_t begin, std::size_t n,
                                    const std::uint64_t* words, LaneStage& st) noexcept {
  constexpr std::size_t W = V::kWidth;
  constexpr std::size_t kBlocks = (kBoostA || kBoostB) ? 4 : 3;
  for (std::size_t g = 0; g < n; g += W) {
    const std::size_t l = begin + g;
    typename V::Vec u[2 * kBlocks];
    for (std::size_t j = 0; j < kBlocks; ++j) {
      typename V::Bits even;
      typename V::Bits odd;
      V::load_words(words + 2 * (g * kBlocks + j * W), even, odd);
      u[2 * j] = V::unit_open(even);
      u[2 * j + 1] = V::unit_open(odd);
    }
    std::size_t k = 0;
    typename V::Vec ga;
    typename V::Vec gb;
    const auto ok_a = first_attempt<V, kBoostA>(u, k, V::load(st.d_a + l), V::load(st.c_a + l),
                                                V::load(st.inv_a + l), ga);
    const auto ok_b = first_attempt<V, kBoostB>(u, k, V::load(st.d_b + l), V::load(st.c_b + l),
                                                V::load(st.inv_b + l), gb);
    V::store(st.value + l, V::mul(V::load(st.exposure + l), V::div(ga, V::add(ga, gb))));
    const unsigned ok = V::movemask(V::land(ok_a, ok_b));
    for (std::size_t i = 0; i < W; ++i) {
      st.ok[l + i] = static_cast<std::uint8_t>((ok >> i) & 1u);
    }
  }
}

template <typename V>
void SecondarySampler::decode_first_attempts(unsigned cls, std::size_t begin, std::size_t n,
                                             const std::uint64_t* words,
                                             LaneStage& stage) noexcept {
  switch (cls) {
    case 0:
      decode_class<V, false, false>(begin, n, words, stage);
      break;
    case 1:
      decode_class<V, true, false>(begin, n, words, stage);
      break;
    case 2:
      decode_class<V, false, true>(begin, n, words, stage);
      break;
    default:
      decode_class<V, true, true>(begin, n, words, stage);
      break;
  }
}

/// Version of the occurrence stream-key layout below and of the arithmetic
/// of a draw from it; bump it whenever either changes, because every
/// secondary-on YLT changes with it.
///   1 — hi = contract << 16 | layer: each layer of a tower drew its own
///       ground-up loss, so layers disagreed about the same occurrence.
///   2 — hi = contract << 16 (the layer field is fixed at 0): one draw per
///       (contract, trial, occurrence), shared by every layer and every
///       scenario variant of the contract. This is the key run_program has
///       always used, so the flat engine equals run_program(inuring=false).
///   3 — the layout of 2; the draw's log, cos and pow moved from libm to
///       util/lane_math.hpp (cos(2π·u) reduced exactly, U^(1/a) as
///       exp(log(u)/a)), so a draw no longer depends on the host.
inline constexpr int kStreamKeyVersion = 3;

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
