// AVX-512F stamp of the batched Philox block kernel: 16 logical (hi, lo)
// counters per pass, the 4x32 state held as four __m512i of u32 lanes.
// Integer-only (mul-hi/lo, xor, round-key add — every op lane-exact), so
// the outputs match Philox4x32::block bit for bit, like the AVX2 stamp
// (tests/test_util_prng.cpp asserts all stamps against the scalar engine).
//
// Compiled with -mavx512f (set per-source whenever the compiler accepts
// it); the only referent is the runtime dispatch in util/prng.cpp, which probes avx512f
// before handing this kernel out and prefers it over the AVX2 body.
#ifdef RISKAN_SIMD_AVX512

#include <immintrin.h>

#include "util/prng.hpp"

namespace riskan {

namespace {

// The Salmon et al. multipliers / Weyl constants (same values as the
// scalar engine in prng.cpp; the equality tests pin them together).
constexpr std::uint32_t kM0 = 0xD2511F53u;
constexpr std::uint32_t kM1 = 0xCD9E8D57u;
constexpr std::uint32_t kW0 = 0x9E3779B9u;
constexpr std::uint32_t kW1 = 0xBB67AE85u;

/// High 32 bits of u32 x u32 per lane — the AVX2 trick at double width:
/// vpmuludq covers the even u32 lanes, the odd lanes shift down first and
/// their products' high words already sit at the odd u32 positions, so one
/// masked blend reassembles the vector.
inline __m512i mulhi32x16(__m512i c, __m512i m64) noexcept {
  const __m512i even = _mm512_srli_epi64(_mm512_mul_epu32(c, m64), 32);
  const __m512i odd = _mm512_mul_epu32(_mm512_srli_epi64(c, 32), m64);
  return _mm512_mask_blend_epi32(0xAAAA, even, odd);
}

inline __m512i idx32(int a0, int a1, int a2, int a3, int a4, int a5, int a6, int a7,
                     int a8, int a9, int a10, int a11, int a12, int a13, int a14,
                     int a15) noexcept {
  return _mm512_setr_epi32(a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13,
                           a14, a15);
}

}  // namespace

void philox_blocks_avx512(const Philox4x32& engine, const std::uint64_t* hi,
                          const std::uint64_t* lo, std::size_t n,
                          std::uint64_t* out) noexcept {
  const Philox4x32::Key key = engine.key();
  const __m512i m0_64 = _mm512_set1_epi64(static_cast<long long>(kM0));
  const __m512i m1_64 = _mm512_set1_epi64(static_cast<long long>(kM1));
  const __m512i m0_32 = _mm512_set1_epi32(static_cast<int>(kM0));
  const __m512i m1_32 = _mm512_set1_epi32(static_cast<int>(kM1));
  const __m512i w0 = _mm512_set1_epi32(static_cast<int>(kW0));
  const __m512i w1 = _mm512_set1_epi32(static_cast<int>(kW1));

  // u32-column split: even / odd u32 lanes across a register pair.
  const __m512i sel_even =
      idx32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
  const __m512i sel_odd =
      idx32(1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31);
  // u64-word rebuild: interleave two state columns back into per-counter
  // words (low and high counter halves), then interleave the A/B words.
  const __m512i ilv_lo = idx32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
  const __m512i ilv_hi =
      idx32(8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31);
  const __m512i pair_lo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
  const __m512i pair_hi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);

  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i lo_a = _mm512_loadu_si512(lo + i);
    const __m512i lo_b = _mm512_loadu_si512(lo + i + 8);
    const __m512i hi_a = _mm512_loadu_si512(hi + i);
    const __m512i hi_b = _mm512_loadu_si512(hi + i + 8);

    __m512i c0 = _mm512_permutex2var_epi32(lo_a, sel_even, lo_b);
    __m512i c1 = _mm512_permutex2var_epi32(lo_a, sel_odd, lo_b);
    __m512i c2 = _mm512_permutex2var_epi32(hi_a, sel_even, hi_b);
    __m512i c3 = _mm512_permutex2var_epi32(hi_a, sel_odd, hi_b);

    __m512i k0 = _mm512_set1_epi32(static_cast<int>(key[0]));
    __m512i k1 = _mm512_set1_epi32(static_cast<int>(key[1]));
    for (int round = 0; round < 10; ++round) {
      const __m512i h0 = mulhi32x16(c0, m0_64);
      const __m512i l0 = _mm512_mullo_epi32(c0, m0_32);
      const __m512i h1 = mulhi32x16(c2, m1_64);
      const __m512i l1 = _mm512_mullo_epi32(c2, m1_32);
      const __m512i n0 = _mm512_xor_si512(_mm512_xor_si512(h1, c1), k0);
      const __m512i n2 = _mm512_xor_si512(_mm512_xor_si512(h0, c3), k1);
      c0 = n0;
      c1 = l1;
      c2 = n2;
      c3 = l0;
      k0 = _mm512_add_epi32(k0, w0);
      k1 = _mm512_add_epi32(k1, w1);
    }

    // A_j = c0_j | c1_j << 32 (out[2j]), B_j = c2_j | c3_j << 32
    // (out[2j+1]); rebuild the u64 words, then store [A,B] interleaved in
    // counter order.
    const __m512i a_lo = _mm512_permutex2var_epi32(c0, ilv_lo, c1);  // A0..A7
    const __m512i a_hi = _mm512_permutex2var_epi32(c0, ilv_hi, c1);  // A8..A15
    const __m512i b_lo = _mm512_permutex2var_epi32(c2, ilv_lo, c3);  // B0..B7
    const __m512i b_hi = _mm512_permutex2var_epi32(c2, ilv_hi, c3);  // B8..B15
    std::uint64_t* o = out + 2 * i;
    _mm512_storeu_si512(o, _mm512_permutex2var_epi64(a_lo, pair_lo, b_lo));
    _mm512_storeu_si512(o + 8, _mm512_permutex2var_epi64(a_lo, pair_hi, b_lo));
    _mm512_storeu_si512(o + 16, _mm512_permutex2var_epi64(a_hi, pair_lo, b_hi));
    _mm512_storeu_si512(o + 24, _mm512_permutex2var_epi64(a_hi, pair_hi, b_hi));
  }
#if defined(RISKAN_SIMD_AVX2)
  philox_blocks_avx2(engine, hi + i, lo + i, n - i, out + 2 * i);
#else
  philox_blocks_scalar(engine, hi + i, lo + i, n - i, out + 2 * i);
#endif
}

}  // namespace riskan

#endif  // RISKAN_SIMD_AVX512
