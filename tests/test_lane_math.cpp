// Lane math (util/lane_math.hpp): accuracy against long double references
// and width independence.
//
// Each function is held within 1 ulp of a long double reference over a
// dense grid of its sampler domain plus every input class the sampler
// feeds it; the boost exp(log(u)/a) is held to its stated bound against
// powl. Every grid point is also evaluated through the dispatched array
// surface (the AVX2 stamp's 4 lanes where the host has it) and compared
// with the width-1 template bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/batch_simd.hpp"
#include "core/secondary.hpp"
#include "util/lane_math.hpp"
#include "util/prng.hpp"

namespace riskan {
namespace {

using S = lane_math::ScalarOps;

constexpr long double kTwoPiL = 6.283185307179586476925286766559005768L;

/// |got − ref| in ulps of the double binade holding ref (the subnormal
/// spacing below 2^-1022); a zero reference demands an exact zero.
double ulp_error(double got, long double ref) {
  if (ref == 0.0L) {
    return got == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  int e = 0;
  (void)std::frexp(ref, &e);  // |ref| = m · 2^e, m ∈ [0.5, 1)
  const long double ulp = std::ldexp(1.0L, std::max(e - 53, -1074));
  return static_cast<double>(std::fabs(static_cast<long double>(got) - ref) / ulp);
}

double from_bits(std::uint64_t b) { return std::bit_cast<double>(b); }
std::uint64_t to_bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Positive normal doubles: random mantissas in every binade, a sweep
/// around 1, both sides of fdlibm's mantissa thresholds, the sampler's
/// uniforms u ∈ [2^-53, 1] and cubes v³ ∈ (2^-160, 100).
std::vector<double> log_grid() {
  std::vector<double> xs;
  Xoshiro256ss rng(101);
  for (int e = -1022; e <= 1023; ++e) {
    for (int i = 0; i < 128; ++i) {
      xs.push_back(std::ldexp(1.0 + to_unit_double(rng()), e));
    }
  }
  for (int k = -4096; k <= 4096; ++k) {
    xs.push_back(1.0 + k * 0x1p-40);
    xs.push_back(1.0 + k * 0x1p-52);
  }
  for (const std::uint64_t high : {0x6147aULL, 0x6b851ULL, 0x6b852ULL, 0x6a09cULL, 0x6a09bULL}) {
    for (std::int64_t j = -64; j <= 64; ++j) {
      for (const std::uint64_t exp : {0x3feULL, 0x3ffULL, 0x3c0ULL}) {
        xs.push_back(from_bits((exp << 52) + (high << 32) + static_cast<std::uint64_t>(j)));
      }
    }
  }
  xs.push_back(to_unit_double_open(0));
  xs.push_back(to_unit_double_open(~std::uint64_t{0}));
  for (int i = 0; i < 200'000; ++i) {
    xs.push_back(to_unit_double_open(rng()));
    xs.push_back(std::exp2(-160.0 + 166.6 * to_unit_double(rng())));  // v³ up to ~100
  }
  return xs;
}

/// y ∈ [−745.2, 0]: a uniform sweep, random points, the normal/subnormal
/// and underflow edges, and tiny |y|.
std::vector<double> exp_grid() {
  std::vector<double> ys;
  Xoshiro256ss rng(202);
  constexpr int kSweep = 1 << 20;
  for (int k = 0; k <= kSweep; ++k) {
    ys.push_back(-745.2 * k / kSweep);
  }
  for (int i = 0; i < 200'000; ++i) {
    ys.push_back(-745.2 * to_unit_double(rng()));
  }
  for (const double edge : {-708.3964185322641, -707.7032713517042, -709.0895657128241,
                            -745.1332191019411, -744.4400719213812}) {
    double y = edge;
    for (int j = 0; j < 256; ++j) {
      ys.push_back(y);
      y = std::nextafter(y, 0.0);
    }
  }
  for (int e = -1074; e <= -1; ++e) {
    ys.push_back(-std::ldexp(1.0, e));
  }
  return ys;
}

/// u ∈ (0, 1]: every multiple of 2^-20 (so every quarter-period boundary
/// and zero), random sampler uniforms, and ulp steps around the zeros of
/// cos and the eighths where the reduction rounds a tie.
std::vector<double> cos_grid() {
  std::vector<double> us;
  Xoshiro256ss rng(303);
  for (int k = 1; k <= (1 << 20); ++k) {
    us.push_back(k * 0x1p-20);
  }
  for (int i = 0; i < 300'000; ++i) {
    us.push_back(to_unit_double_open(rng()));
  }
  for (const double c : {0.25, 0.75, 0.125, 0.375, 0.625, 0.875, 0.5, 1.0}) {
    double lo = c;
    double hi = c;
    for (int j = 0; j < 512; ++j) {
      lo = std::nextafter(lo, 0.0);
      hi = std::nextafter(hi, 2.0);
      us.push_back(lo);
      if (hi <= 1.0) {
        us.push_back(hi);
      }
    }
  }
  us.push_back(to_unit_double_open(0));
  return us;
}

/// cos(2π·u) in long double after the same exact quarter-period reduction
/// the lane function makes: cosl(2π·u) alone loses accuracy near its zeros.
long double cos_2pi_reference(double u) {
  const double q = std::nearbyint(4.0 * u);
  const double t = u - q * 0.25;  // exact
  const long double theta = kTwoPiL * static_cast<long double>(t);
  switch (static_cast<int>(q) & 3) {
    case 0:
      return std::cos(theta);
    case 1:
      return -std::sin(theta);
    case 2:
      return -std::cos(theta);
    default:
      return std::sin(theta);
  }
}

template <typename F, typename R>
double max_ulp_error(const std::vector<double>& xs, F f, R ref, double& worst_x) {
  double worst = 0.0;
  for (const double x : xs) {
    const double err = ulp_error(f(x), ref(x));
    if (!(err <= worst)) {
      worst = err;
      worst_x = x;
    }
  }
  return worst;
}

TEST(LaneMath, LogIsWithinOneUlp) {
  double at = 0.0;
  const double worst = max_ulp_error(
      log_grid(), [](double x) { return lane_math::log<S>(x); },
      [](double x) { return std::log(static_cast<long double>(x)); }, at);
  EXPECT_LE(worst, 1.0) << "at x = " << std::hexfloat << at;
  RecordProperty("worst_ulp", std::to_string(worst));
  EXPECT_EQ(lane_math::log<S>(1.0), 0.0);
  EXPECT_EQ(lane_math::log<S>(2.0), 0x1.62e42fefa39efp-1);  // ln 2 correctly rounded
}

TEST(LaneMath, ExpIsWithinOneUlp) {
  double at = 0.0;
  const double worst = max_ulp_error(
      exp_grid(), [](double y) { return lane_math::exp<S>(y); },
      [](double y) { return std::exp(static_cast<long double>(y)); }, at);
  EXPECT_LE(worst, 1.0) << "at y = " << std::hexfloat << at;
  RecordProperty("worst_ulp", std::to_string(worst));
  EXPECT_EQ(lane_math::exp<S>(0.0), 1.0);
  EXPECT_EQ(lane_math::exp<S>(-0.0), 1.0);
  EXPECT_EQ(lane_math::exp<S>(-745.14), 0.0);
  EXPECT_EQ(lane_math::exp<S>(-1e6), 0.0);
  EXPECT_EQ(lane_math::exp<S>(-745.13), 0x1p-1074);  // the last subnormal before 0
}

TEST(LaneMath, Cos2PiIsWithinOneUlp) {
  double at = 0.0;
  const double worst = max_ulp_error(
      cos_grid(), [](double u) { return lane_math::cos_2pi<S>(u); }, cos_2pi_reference, at);
  EXPECT_LE(worst, 1.0) << "at u = " << std::hexfloat << at;
  RecordProperty("worst_ulp", std::to_string(worst));
  EXPECT_EQ(lane_math::cos_2pi<S>(1.0), 1.0);
  EXPECT_EQ(lane_math::cos_2pi<S>(0.5), -1.0);
  EXPECT_EQ(lane_math::cos_2pi<S>(0.25), 0.0);  // exactly, where cos(2π·u) reads 6e-17
  EXPECT_EQ(lane_math::cos_2pi<S>(0.75), 0.0);
}

TEST(LaneMath, BoostIsWithinItsBoundOfPow) {
  // U^(1/a) = exp(log(u) · (1/a)) for the boost's shapes a < 1 (the sampler
  // stores 1/a as a double): within 1 + 3·|y| ulp of powl, y = log(u)/a.
  Xoshiro256ss rng(404);
  std::vector<double> us = {to_unit_double_open(0), to_unit_double_open(~std::uint64_t{0})};
  for (int i = 0; i < 20'000; ++i) {
    us.push_back(to_unit_double_open(rng()));
  }
  double worst_ratio = 0.0;
  for (const double a : {0.02, 0.05, 0.1, 0.25, 0.3, 0.5, 0.7, 0.9, 0.999}) {
    const double inv = 1.0 / a;
    for (const double u : us) {
      const double got = core::beta_lanes::boost_multiplier<S>(u, inv);
      const long double ref =
          std::pow(static_cast<long double>(u), static_cast<long double>(inv));
      const double y = lane_math::log<S>(u) * inv;
      const double bound = 1.0 + 3.0 * std::fabs(y);
      const double err = ulp_error(got, ref);
      ASSERT_LE(err, bound) << "u = " << std::hexfloat << u << " a = " << a;
      worst_ratio = std::max(worst_ratio, err / bound);
    }
  }
  RecordProperty("worst_error_over_bound", std::to_string(worst_ratio));
}

TEST(LaneMath, DispatchedWidthMatchesWidthOneBitwise) {
  // The dispatched array surface runs the AVX2 stamp's 4 lanes where the
  // host has AVX2 (width 1 otherwise, e.g. under RISKAN_SIMD=off), with a
  // padded sub-width tail: every element must equal the width-1 template.
  struct Case {
    core::batch::LaneFn fn;
    std::vector<double> xs;
    double (*scalar)(double);
  };
  const Case cases[] = {
      {core::batch::LaneFn::Log, log_grid(), [](double x) { return lane_math::log<S>(x); }},
      {core::batch::LaneFn::Exp, exp_grid(), [](double y) { return lane_math::exp<S>(y); }},
      {core::batch::LaneFn::Cos2Pi, cos_grid(),
       [](double u) { return lane_math::cos_2pi<S>(u); }},
  };
  for (const Case& c : cases) {
    for (const std::size_t n : {c.xs.size(), std::size_t{7}, std::size_t{3}}) {
      std::vector<double> out(n);
      core::batch::lane_math_lanes(c.fn, c.xs.data(), n, out.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(to_bits(out[i]), to_bits(c.scalar(c.xs[i])))
            << "fn " << static_cast<int>(c.fn) << " x = " << std::hexfloat << c.xs[i];
      }
    }
  }
}

}  // namespace
}  // namespace riskan
