// Lane math: log, exp and cos(2π·u), written once over a lane policy.
//
// The secondary sampler (core/secondary.hpp) needs three transcendental
// functions per beta draw. Calling libm for them has two costs: the vector
// pass decodes W lanes per instruction everywhere except in those calls,
// and every sampled loss depends on the host's libm, which differs across
// glibc versions and architectures. So the three functions are written
// here, once, as templates over a lane policy V: the width-1 ScalarOps
// below, or a W-wide policy such as the trial kernels' Avx2Ops
// (core/batch_simd_avx2.cpp). A lane's result depends only on its own
// input and the IEEE operation sequence below, never on W, so every width
// returns the same bits.
//
// The rules that make that true:
//   * only IEEE-754 +, −, ×, ÷ and √ (each correctly rounded, so identical
//     on every conforming host and width), integer bit operations on the
//     binary64 representation, and selects;
//   * no tables (so W lanes never gather), no libm, and no fused
//     multiply-add: riskan compiles with -ffp-contract=off (PUBLIC, because
//     these templates are instantiated in every TU that includes them);
//   * branch-free: every formula is evaluated on every lane and the lane's
//     case is picked with a select.
//
// The algorithms are the fdlibm ones (Sun Microsystems, 1993), rewritten
// branch-free in the style of SLEEF's lane kernels (Shibata & Petrogalli,
// IEEE TPDS 2020). Accuracy target, after CORE-MATH (Sibidanov, Zimmermann
// & Glondu, ARITH 2022): each function is within 1 ulp of a long double
// reference over its sampler domain (tests/test_lane_math.cpp, LaneMath.*):
//   log(x)      x positive and normal;
//   exp(y)      y ≤ 0 (the boost's range); +0 below −745.1332…;
//   cos_2pi(u)  u ∈ (0, 1].
// The sampler's boost U^(1/a) is exp(log(u) · (1/a)). Its error against
// pow(u, 1/a) is at most 1 + 3·|y| ulp, with y = log(u) · (1/a): log's
// error (< 0.84 ulp measured) and the product's rounding leave y off by a
// relative 1.34·2^-52 at most, which exp turns into a relative error of
// 1.34·2^-52·|y|, up to 2.68·|y| ulp of the result, plus exp's own
// < 0.87 ulp. (1 + 2·|y| does not hold: random draws reach 1.03× it.)
//
// A lane policy V provides:
//   static constexpr std::size_t kWidth;  lanes per vector
//   using Vec;   kWidth doubles          using Bits;  kWidth uint64 words
//   using Mask;  kWidth lane predicates
//   Vec broadcast(double)                Bits ibroadcast(std::uint64_t)
//   Vec add / sub / mul / div(Vec, Vec)  Vec sqrt(Vec)
//   Mask lt(Vec a, Vec b)                a < b per lane
//   Mask land(Mask, Mask) / lor(Mask, Mask)
//   Mask landnot(Mask a, Mask b)         ¬a ∧ b
//   bool any(Mask)                       some lane set
//   Vec select(Mask m, Vec a, Vec b)     m ? a : b per lane
//   Bits as_bits(Vec) / Vec from_bits(Bits)   reinterpretation
//   Bits iadd / iand / ior / ixor(Bits, Bits)  (iadd wraps mod 2^64)
//   Bits shl<N>(Bits) / shr<N>(Bits)     logical shifts by a constant
//   Mask ieq(Bits, Bits)                 a == b per lane
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/prng.hpp"

namespace riskan::lane_math {

/// The width-1 lane policy: plain doubles and bools. The scalar sampler
/// runs the lane templates through it, so it commits the same bits as any
/// wider policy.
struct ScalarOps {
  static constexpr std::size_t kWidth = 1;
  using Vec = double;
  using Bits = std::uint64_t;
  using Mask = bool;

  static Vec broadcast(double x) noexcept { return x; }
  static Bits ibroadcast(std::uint64_t x) noexcept { return x; }
  static Vec add(Vec a, Vec b) noexcept { return a + b; }
  static Vec sub(Vec a, Vec b) noexcept { return a - b; }
  static Vec mul(Vec a, Vec b) noexcept { return a * b; }
  static Vec div(Vec a, Vec b) noexcept { return a / b; }
  static Vec sqrt(Vec a) noexcept { return std::sqrt(a); }
  static Mask lt(Vec a, Vec b) noexcept { return a < b; }
  static Mask land(Mask a, Mask b) noexcept { return a && b; }
  static Mask lor(Mask a, Mask b) noexcept { return a || b; }
  static Mask landnot(Mask a, Mask b) noexcept { return !a && b; }
  static bool any(Mask m) noexcept { return m; }
  static Vec select(Mask m, Vec a, Vec b) noexcept { return m ? a : b; }
  static Bits as_bits(Vec a) noexcept { return std::bit_cast<Bits>(a); }
  static Vec from_bits(Bits a) noexcept { return std::bit_cast<Vec>(a); }
  static Bits iadd(Bits a, Bits b) noexcept { return a + b; }
  static Bits iand(Bits a, Bits b) noexcept { return a & b; }
  static Bits ior(Bits a, Bits b) noexcept { return a | b; }
  static Bits ixor(Bits a, Bits b) noexcept { return a ^ b; }
  template <int N>
  static Bits shl(Bits a) noexcept {
    return a << N;
  }
  template <int N>
  static Bits shr(Bits a) noexcept {
    return a >> N;
  }
  static Mask ieq(Bits a, Bits b) noexcept { return a == b; }

  // Sampler decode ops (core/secondary.hpp), beyond the three functions.
  static Vec load(const double* p) noexcept { return *p; }
  static void store(double* p, Vec v) noexcept { *p = v; }
  /// Words 0 and 1 of one Philox block: p[0] and p[1].
  static void load_words(const std::uint64_t* p, Bits& even, Bits& odd) noexcept {
    even = p[0];
    odd = p[1];
  }
  /// ((w >> 11) + 1) · 2^-53, exactly (util/prng.hpp's to_unit_double_open).
  static Vec unit_open(Bits w) noexcept { return to_unit_double_open(w); }
  static unsigned movemask(Mask m) noexcept { return m ? 1u : 0u; }
};

namespace detail {

/// 1.5 · 2^52: adding it to |x| < 2^51 rounds x to an integer in the low
/// mantissa bits (round to nearest even); subtracting it again gives that
/// integer as an exact double.
inline constexpr double kRoundMagic = 0x1.8p52;
inline constexpr std::uint64_t kRoundMagicBits = 0x4338000000000000ULL;

/// x rounded to the nearest integer (ties to even), for |x| < 2^51; `bits`
/// receives kRoundMagicBits + n, whose low bits are n in two's complement.
template <typename V>
inline typename V::Vec round_int(typename V::Vec x, typename V::Bits& bits) noexcept {
  const auto t = V::add(x, V::broadcast(kRoundMagic));
  bits = V::as_bits(t);
  return V::sub(t, V::broadcast(kRoundMagic));
}

template <typename V>
inline typename V::Vec round_int(typename V::Vec x) noexcept {
  typename V::Bits bits;
  return round_int<V>(x, bits);
}

/// c0 + x·(c1 + x·(c2 + …)): the nesting fdlibm writes out by hand.
template <typename V>
inline typename V::Vec horner(typename V::Vec, double c0) noexcept {
  return V::broadcast(c0);
}

template <typename V, typename... Rest>
inline typename V::Vec horner(typename V::Vec x, double c0, Rest... rest) noexcept {
  return V::add(V::broadcast(c0), V::mul(x, horner<V>(x, rest...)));
}

}  // namespace detail

/// Natural logarithm of a positive normal double (fdlibm's e_log.c, branch
/// free). x = 2^k · (1 + f) with √2/2 ≤ 1 + f < √2, s = f / (2 + f), and
/// log(1 + f) = f − (f²/2 − s · (f²/2 + R(s²))), with R the e_log.c even
/// polynomial. fdlibm assembles the sum this way only near the ends of the
/// range and more cheaply elsewhere; this form is the more accurate of the
/// two everywhere (0.83 against 0.95 ulp at worst over 4M random inputs),
/// so every lane takes it. Error < 1 ulp.
template <typename V>
inline typename V::Vec log(typename V::Vec x) noexcept {
  using Vec = typename V::Vec;
  constexpr double ln2_hi = 0x1.62e42fee00000p-1;  // 32 bits: k · ln2_hi is exact
  constexpr double ln2_lo = 0x1.a39ef35793c76p-33;
  constexpr double lg1 = 0x1.5555555555593p-1;
  constexpr double lg2 = 0x1.999999997fa04p-2;
  constexpr double lg3 = 0x1.2492494229359p-2;
  constexpr double lg4 = 0x1.c71c51d8e78afp-3;
  constexpr double lg5 = 0x1.7466496cb03dep-3;
  constexpr double lg6 = 0x1.39a09d078c69fp-3;
  constexpr double lg7 = 0x1.2f112df3e5244p-3;

  const auto ix = V::as_bits(x);
  const auto mant = V::iand(ix, V::ibroadcast(0x000fffffffffffffULL));
  // i = 2^52 when the mantissa is at least √2's (0x6a09c in the high word):
  // then x is normalised into [√2/2, 1) and k gains one.
  const auto i = V::iand(V::iadd(mant, V::ibroadcast(0x00095f6400000000ULL)),
                         V::ibroadcast(0x0010000000000000ULL));
  const Vec xn = V::from_bits(V::ior(mant, V::ixor(i, V::ibroadcast(0x3ff0000000000000ULL))));
  // k = exponent − 1023 + (i >> 52), as an exact double via the round magic.
  const Vec dk = V::sub(
      V::from_bits(V::iadd(V::iadd(V::template shr<52>(ix), V::template shr<52>(i)),
                           V::ibroadcast(detail::kRoundMagicBits - 1023))),
      V::broadcast(detail::kRoundMagic));

  const Vec f = V::sub(xn, V::broadcast(1.0));
  const Vec s = V::div(f, V::add(V::broadcast(2.0), f));
  const Vec z = V::mul(s, s);
  const Vec w = V::mul(z, z);
  const Vec t1 = V::mul(w, detail::horner<V>(w, lg2, lg4, lg6));
  const Vec t2 = V::mul(z, detail::horner<V>(w, lg1, lg3, lg5, lg7));
  const Vec r = V::add(t2, t1);
  const Vec hfsq = V::mul(V::mul(V::broadcast(0.5), f), f);
  // fdlibm's k == 0 case is this with dk = 0, bit for bit.
  return V::sub(V::mul(dk, V::broadcast(ln2_hi)),
                V::sub(V::sub(hfsq, V::add(V::mul(s, V::add(hfsq, r)),
                                           V::mul(dk, V::broadcast(ln2_lo)))),
                       f));
}

/// e^y for y ≤ 0 (fdlibm's e_exp.c, branch free). Cody–Waite reduction
/// y = k·ln2 + r with ln2 split hi + lo, the e_exp.c rational form of e^r
/// on |r| ≤ ln2/2, then the scale by 2^k in the exponent bits — in two
/// steps when k < −1021, so that a subnormal result rounds once. Returns
/// +0 below −745.1332191019411 (e^y < 2^-1075 there). Error < 1 ulp.
template <typename V>
inline typename V::Vec exp(typename V::Vec y) noexcept {
  using Vec = typename V::Vec;
  constexpr double ln2_hi = 0x1.62e42fee00000p-1;
  constexpr double ln2_lo = 0x1.a39ef35793c76p-33;
  constexpr double inv_ln2 = 0x1.71547652b82fep+0;
  constexpr double p1 = 0x1.555555555553ep-3;
  constexpr double p2 = -0x1.6c16c16bebd93p-9;
  constexpr double p3 = 0x1.1566aaf25de2cp-14;
  constexpr double p4 = -0x1.bbd41c5d26bf1p-20;
  constexpr double p5 = 0x1.6376972bea4d0p-25;
  constexpr double underflow = -0x1.74910d52d3051p+9;  // −745.1332191019411

  const Vec k = detail::round_int<V>(V::mul(y, V::broadcast(inv_ln2)));
  const Vec hi = V::sub(y, V::mul(k, V::broadcast(ln2_hi)));  // exact
  const Vec lo = V::mul(k, V::broadcast(ln2_lo));
  const Vec r = V::sub(hi, lo);
  const Vec t = V::mul(r, r);
  const Vec c = V::sub(r, V::mul(t, detail::horner<V>(t, p1, p2, p3, p4, p5)));
  // e^r ∈ [0.7, 1.42]; fdlibm's k == 0 case is this with hi = r, lo = 0.
  const Vec er = V::sub(
      V::broadcast(1.0),
      V::sub(V::sub(lo, V::div(V::mul(r, c), V::sub(V::broadcast(2.0), c))), hi));
  // Scale: add k (k + 1000 when deep) to the exponent field, then multiply
  // by 2^-1000 when deep, which is the one rounding of a subnormal result.
  const auto deep = V::lt(k, V::broadcast(-1021.0));
  typename V::Bits kb_scaled;
  detail::round_int<V>(V::select(deep, V::add(k, V::broadcast(1000.0)), k), kb_scaled);
  const Vec scaled = V::mul(V::from_bits(V::iadd(V::as_bits(er), V::template shl<52>(kb_scaled))),
                            V::select(deep, V::broadcast(0x1p-1000), V::broadcast(1.0)));
  return V::select(V::lt(y, V::broadcast(underflow)), V::broadcast(0.0), scaled);
}

/// cos(2π·u) for u ∈ (0, 1]. The reduction is exact in binary64: q =
/// round(4u) and t = u − q/4 with |t| ≤ 1/8, so no rounded product 2π·u
/// is ever formed. θ = 2π·t is carried as x + y (2π split hi + lo, t split
/// so that the leading product is exact), fdlibm's __kernel_sin and
/// __kernel_cos evaluate sin θ and cos θ, and the quadrant q picks one by
/// swap and sign: cos θ, −sin θ, −cos θ, sin θ. Error < 1 ulp.
template <typename V>
inline typename V::Vec cos_2pi(typename V::Vec u) noexcept {
  using Vec = typename V::Vec;
  constexpr double pi2_hi = 0x1.921fb50000000p+2;  // 2π to 26 bits
  constexpr double pi2_lo = 0x1.110b4611a6263p-24;  // 2π − pi2_hi
  constexpr double s1 = -0x1.5555555555549p-3;
  constexpr double s2 = 0x1.111111110f8a6p-7;
  constexpr double s3 = -0x1.a01a019c161d5p-13;
  constexpr double s4 = 0x1.71de357b1fe7dp-19;
  constexpr double s5 = -0x1.ae5e68a2b9cebp-26;
  constexpr double s6 = 0x1.5d93a5acfd57cp-33;
  constexpr double c1 = 0x1.555555555554cp-5;
  constexpr double c2 = -0x1.6c16c16c15177p-10;
  constexpr double c3 = 0x1.a01a019cb1590p-16;
  constexpr double c4 = -0x1.27e4f809c52adp-22;
  constexpr double c5 = 0x1.1ee9ebdb4b1c4p-29;
  constexpr double c6 = -0x1.8fae9be8838d4p-37;

  // Exact quarter-period reduction.
  typename V::Bits qb;
  const Vec q = detail::round_int<V>(V::mul(u, V::broadcast(4.0)), qb);
  const Vec t = V::sub(u, V::mul(q, V::broadcast(0.25)));

  // θ = 2π·t as x + y: t_hi keeps t's leading 26 bits, so t_hi · pi2_hi
  // is exact; the rest is far below an ulp of θ and rounds harmlessly.
  const Vec t_hi = V::from_bits(V::iand(V::as_bits(t), V::ibroadcast(0xfffffffff8000000ULL)));
  const Vec t_lo = V::sub(t, t_hi);
  const Vec th = V::mul(t_hi, V::broadcast(pi2_hi));
  const Vec tl = V::add(V::mul(t_lo, V::broadcast(pi2_hi)), V::mul(t, V::broadcast(pi2_lo)));
  const Vec x = V::add(th, tl);
  const Vec y = V::sub(tl, V::sub(x, th));
  const Vec z = V::mul(x, x);

  // __kernel_sin(x, y, 1).
  const Vec v = V::mul(z, x);
  const Vec rs = detail::horner<V>(z, s2, s3, s4, s5, s6);
  const Vec half = V::broadcast(0.5);
  const Vec sin_t = V::sub(
      x, V::sub(V::sub(V::mul(z, V::sub(V::mul(half, y), V::mul(v, rs))), y),
                V::mul(v, V::broadcast(s1))));

  // __kernel_cos(x, y): qx = 0 below |x| 0.3 (then a − hz is fdlibm's
  // small-|x| form), 0.28125 above 0.78125, else |x|/4 truncated to its
  // high word.
  const Vec rc = V::mul(z, detail::horner<V>(z, c1, c2, c3, c4, c5, c6));
  const auto ax_bits = V::iand(V::as_bits(x), V::ibroadcast(0x7fffffffffffffffULL));
  const Vec ax = V::from_bits(ax_bits);
  const Vec quarter = V::from_bits(V::iand(V::iadd(ax_bits, V::ibroadcast(0xffe0000000000000ULL)),
                                           V::ibroadcast(0xffffffff00000000ULL)));
  const Vec qx = V::select(V::lt(ax, V::broadcast(0x1.33333p-2)), V::broadcast(0.0),
                           V::select(V::lt(ax, V::broadcast(0x1.90001p-1)), quarter,
                                     V::broadcast(0.28125)));
  const Vec hz = V::sub(V::mul(half, z), qx);
  const Vec a = V::sub(V::broadcast(1.0), qx);
  const Vec cos_t = V::sub(a, V::sub(hz, V::sub(V::mul(z, rc), V::mul(x, y))));

  // Quadrant: odd q takes sin θ; q ∈ {1, 2} negates (q = 4 is q = 0).
  const auto odd = V::ieq(V::iand(qb, V::ibroadcast(1)), V::ibroadcast(1));
  const auto sign = V::template shl<62>(V::iand(V::iadd(qb, V::ibroadcast(1)), V::ibroadcast(2)));
  return V::from_bits(V::ixor(V::as_bits(V::select(odd, sin_t, cos_t)), sign));
}

}  // namespace riskan::lane_math
