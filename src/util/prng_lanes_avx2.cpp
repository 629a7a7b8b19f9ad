// AVX2 stamp of the batched Philox block kernel: 8 logical (hi, lo)
// counters per pass, the 4x32 state held as four __m256i of u32 lanes.
// Every round op — 32-bit mul-hi/lo, xor, round-key add — is a lane-exact
// integer instruction, so the outputs match Philox4x32::block bit for bit
// (tests/test_util_prng.cpp asserts it against the scalar engine).
//
// Compiled with -mavx2 (set per-source whenever the compiler accepts it,
// like core/batch_simd_avx2.cpp); the only referent is the runtime dispatch in
// util/prng.cpp, which probes cpuid before handing this kernel out.
#ifdef RISKAN_SIMD_AVX2

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

/// High 32 bits of u32 x u32 per lane. `m64` holds the multiplier in the
/// low half of each 64-bit lane: vpmuludq covers the even u32 lanes, the
/// odd lanes shift down first, and their products' high words already sit
/// at the odd u32 positions, so one blend reassembles the vector.
inline __m256i mulhi32x8(__m256i c, __m256i m64) noexcept {
  const __m256i even = _mm256_srli_epi64(_mm256_mul_epu32(c, m64), 32);
  const __m256i odd = _mm256_mul_epu32(_mm256_srli_epi64(c, 32), m64);
  return _mm256_blend_epi32(even, odd, 0xAA);
}

}  // namespace

void philox_blocks_avx2(const Philox4x32& engine, const std::uint64_t* hi,
                        const std::uint64_t* lo, std::size_t n,
                        std::uint64_t* out) noexcept {
  const Philox4x32::Key key = engine.key();
  const __m256i m0_64 = _mm256_set1_epi64x(static_cast<long long>(kM0));
  const __m256i m1_64 = _mm256_set1_epi64x(static_cast<long long>(kM1));
  const __m256i m0_32 = _mm256_set1_epi32(static_cast<int>(kM0));
  const __m256i m1_32 = _mm256_set1_epi32(static_cast<int>(kM1));
  const __m256i w0 = _mm256_set1_epi32(static_cast<int>(kW0));
  const __m256i w1 = _mm256_set1_epi32(static_cast<int>(kW1));

  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i lo_a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lo + i));
    const __m256i lo_b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lo + i + 4));
    const __m256i hi_a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hi + i));
    const __m256i hi_b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hi + i + 4));

    // Split the eight u64 counters into u32 columns. The ps-shuffle pack
    // permutes the lane order to [0,1,4,5 | 2,3,6,7]; the unpack-interleave
    // at the bottom inverts exactly that permutation, so the stores land in
    // the caller's original counter order.
    const __m256 lo_a_ps = _mm256_castsi256_ps(lo_a);
    const __m256 lo_b_ps = _mm256_castsi256_ps(lo_b);
    const __m256 hi_a_ps = _mm256_castsi256_ps(hi_a);
    const __m256 hi_b_ps = _mm256_castsi256_ps(hi_b);
    __m256i c0 = _mm256_castps_si256(
        _mm256_shuffle_ps(lo_a_ps, lo_b_ps, _MM_SHUFFLE(2, 0, 2, 0)));
    __m256i c1 = _mm256_castps_si256(
        _mm256_shuffle_ps(lo_a_ps, lo_b_ps, _MM_SHUFFLE(3, 1, 3, 1)));
    __m256i c2 = _mm256_castps_si256(
        _mm256_shuffle_ps(hi_a_ps, hi_b_ps, _MM_SHUFFLE(2, 0, 2, 0)));
    __m256i c3 = _mm256_castps_si256(
        _mm256_shuffle_ps(hi_a_ps, hi_b_ps, _MM_SHUFFLE(3, 1, 3, 1)));

    __m256i k0 = _mm256_set1_epi32(static_cast<int>(key[0]));
    __m256i k1 = _mm256_set1_epi32(static_cast<int>(key[1]));
    for (int round = 0; round < 10; ++round) {
      const __m256i h0 = mulhi32x8(c0, m0_64);
      const __m256i l0 = _mm256_mullo_epi32(c0, m0_32);
      const __m256i h1 = mulhi32x8(c2, m1_64);
      const __m256i l1 = _mm256_mullo_epi32(c2, m1_32);
      const __m256i n0 = _mm256_xor_si256(_mm256_xor_si256(h1, c1), k0);
      const __m256i n2 = _mm256_xor_si256(_mm256_xor_si256(h0, c3), k1);
      c0 = n0;
      c1 = l1;
      c2 = n2;
      c3 = l0;
      k0 = _mm256_add_epi32(k0, w0);
      k1 = _mm256_add_epi32(k1, w1);
    }

    // out[2i] = c0|c1<<32, out[2i+1] = c2|c3<<32, back in original order:
    // the u32 interleave yields the per-counter u64 words A (out0) and B
    // (out1) with the pack permutation undone, then the u64 interleave and
    // cross-lane permute store them as [A0,B0,A1,B1,...].
    const __m256i r0 = _mm256_unpacklo_epi32(c0, c1);  // A0..A3
    const __m256i r1 = _mm256_unpackhi_epi32(c0, c1);  // A4..A7
    const __m256i r2 = _mm256_unpacklo_epi32(c2, c3);  // B0..B3
    const __m256i r3 = _mm256_unpackhi_epi32(c2, c3);  // B4..B7
    const __m256i p0 = _mm256_unpacklo_epi64(r0, r2);  // A0 B0 | A2 B2
    const __m256i p1 = _mm256_unpackhi_epi64(r0, r2);  // A1 B1 | A3 B3
    const __m256i p2 = _mm256_unpacklo_epi64(r1, r3);  // A4 B4 | A6 B6
    const __m256i p3 = _mm256_unpackhi_epi64(r1, r3);  // A5 B5 | A7 B7
    std::uint64_t* o = out + 2 * i;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(o),
                        _mm256_permute2x128_si256(p0, p1, 0x20));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(o + 4),
                        _mm256_permute2x128_si256(p0, p1, 0x31));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(o + 8),
                        _mm256_permute2x128_si256(p2, p3, 0x20));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(o + 12),
                        _mm256_permute2x128_si256(p2, p3, 0x31));
  }
  philox_blocks_scalar(engine, hi + i, lo + i, n - i, out + 2 * i);
}

}  // namespace riskan

#endif  // RISKAN_SIMD_AVX2
