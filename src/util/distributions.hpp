// Probability distributions used across the pipeline.
//
// We implement our own samplers (rather than <random>'s) for two reasons:
//  1. Determinism across standard libraries — <random> distribution
//     algorithms are unspecified, and the engines must produce bit-identical
//     results across backends (see src/util/prng.hpp).
//  2. The catastrophe-modelling and DFA substrates need distributions
//     <random> lacks: gamma, truncated Pareto (severities), and a
//     numerically careful normal inverse CDF for Gaussian-copula sampling
//     in DFA. The secondary-uncertainty beta lives with its sampler
//     (core/secondary.hpp), which draws it with util/lane_math.hpp.
//
// Every sampler is a free function template over a 64-bit
// uniform_random_bit_generator, plus analytic pdf/cdf helpers where the
// tests need oracles.
#pragma once

#include <cmath>
#include <cstdint>

#include "util/prng.hpp"
#include "util/require.hpp"

namespace riskan {

// ---------------------------------------------------------------------------
// Uniform
// ---------------------------------------------------------------------------

/// Uniform double in [lo, hi).
template <typename Rng>
double sample_uniform(Rng& rng, double lo, double hi) {
  return lo + (hi - lo) * to_unit_double(rng());
}

/// 128-bit helper for multiply-shift range reduction (GNU extension, so
/// marked to stay -Wpedantic-clean).
__extension__ using Uint128 = unsigned __int128;

/// Uniform integer in [0, n). Uses Lemire's multiply-shift rejection-free
/// approximation (bias < 2^-32 for n << 2^32, fine for simulation use).
template <typename Rng>
std::uint64_t sample_index(Rng& rng, std::uint64_t n) {
  RISKAN_REQUIRE(n > 0, "sample_index needs non-empty range");
  const Uint128 wide = static_cast<Uint128>(rng()) * n;
  return static_cast<std::uint64_t>(wide >> 64);
}

// ---------------------------------------------------------------------------
// Exponential / Poisson
// ---------------------------------------------------------------------------

/// Exponential with rate lambda (mean 1/lambda).
template <typename Rng>
double sample_exponential(Rng& rng, double lambda) {
  RISKAN_REQUIRE(lambda > 0.0, "exponential rate must be positive");
  return -std::log(to_unit_double_open(rng())) / lambda;
}

/// Poisson with mean `mean`. Knuth multiplication for small means; for
/// mean >= 16 uses the normal approximation with continuity correction,
/// clamped at zero (adequate for event-count simulation; relative error in
/// tail probabilities is irrelevant at the aggregate level we test).
template <typename Rng>
std::uint32_t sample_poisson(Rng& rng, double mean) {
  RISKAN_REQUIRE(mean >= 0.0, "poisson mean must be non-negative");
  if (mean == 0.0) {
    return 0;
  }
  if (mean < 16.0) {
    const double limit = std::exp(-mean);
    double product = to_unit_double_open(rng());
    std::uint32_t count = 0;
    while (product > limit) {
      product *= to_unit_double_open(rng());
      ++count;
    }
    return count;
  }
  // Normal approximation N(mean, mean).
  const double u1 = to_unit_double_open(rng());
  const double u2 = to_unit_double_open(rng());
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  const double value = mean + std::sqrt(mean) * z + 0.5;
  return value <= 0.0 ? 0u : static_cast<std::uint32_t>(value);
}

// ---------------------------------------------------------------------------
// Normal / lognormal
// ---------------------------------------------------------------------------

/// Standard normal via Box–Muller (both branches consumed deterministically:
/// exactly two uniforms per variate, which keeps counter-based replay
/// aligned). This and the other samplers here call libm; they drive the
/// input generators (YELT, catalogue, exposure, DFA), whose outputs are
/// data. The secondary sampler draws with util/lane_math.hpp instead.
template <typename Rng>
double sample_standard_normal(Rng& rng) {
  const double u1 = to_unit_double_open(rng());
  const double u2 = to_unit_double_open(rng());
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

template <typename Rng>
double sample_normal(Rng& rng, double mu, double sigma) {
  RISKAN_REQUIRE(sigma >= 0.0, "normal sigma must be non-negative");
  return mu + sigma * sample_standard_normal(rng);
}

/// Lognormal parameterised by log-space mu/sigma.
template <typename Rng>
double sample_lognormal(Rng& rng, double mu, double sigma) {
  return std::exp(sample_normal(rng, mu, sigma));
}

/// Acklam's rational approximation to the standard normal inverse CDF
/// (|relative error| < 1.15e-9 over (0,1)). Used by the Gaussian copula and
/// by quantile-matching tests.
double normal_inv_cdf(double p);

/// Standard normal CDF via erfc.
inline double normal_cdf(double x) {
  return 0.5 * std::erfc(-x * 0.7071067811865476);
}

// ---------------------------------------------------------------------------
// Gamma
// ---------------------------------------------------------------------------

/// Gamma(shape, scale=1) via Marsaglia–Tsang squeeze; boosts shape < 1.
/// Draw order per attempt: two uniforms for the normal, then — only when
/// the shifted value stays positive — one uniform for the acceptance test.
template <typename Rng>
double sample_gamma(Rng& rng, double shape) {
  RISKAN_REQUIRE(shape > 0.0, "gamma shape must be positive");
  if (shape < 1.0) {
    // Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
    const double u = to_unit_double_open(rng());
    return sample_gamma(rng, shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    const double x = sample_standard_normal(rng);
    double v = 1.0 + c * x;
    if (v <= 0.0) {
      continue;
    }
    v = v * v * v;
    const double u = to_unit_double_open(rng());
    const double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2 ||
        std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

/// Method-of-moments beta parameters for a mean/stdev pair on [0, 1].
/// Returns alpha, beta via out-params; clamps to a valid parameterisation
/// when sigma is infeasibly large for the mean.
void beta_from_moments(double mean, double stdev, double& alpha, double& beta);

// ---------------------------------------------------------------------------
// Pareto (severity tails)
// ---------------------------------------------------------------------------

/// Truncated Pareto on [lo, hi] with tail index alpha. Classic heavy-tailed
/// severity model for catastrophe ground-up losses.
template <typename Rng>
double sample_truncated_pareto(Rng& rng, double alpha, double lo, double hi) {
  RISKAN_REQUIRE(alpha > 0.0, "pareto alpha must be positive");
  RISKAN_REQUIRE(0.0 < lo && lo < hi, "pareto needs 0 < lo < hi");
  const double u = to_unit_double(rng());
  const double lo_a = std::pow(lo, -alpha);
  const double hi_a = std::pow(hi, -alpha);
  return std::pow(lo_a - u * (lo_a - hi_a), -1.0 / alpha);
}

}  // namespace riskan
