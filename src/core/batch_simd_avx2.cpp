// AVX2 stamp of the vectorized trial kernel: 4 Money lanes per __m256d,
// ELT means gathered with vgatherdpd (dense groups gather only the rows
// their hit list found).
//
// This TU is compiled with -mavx2 (set per-source whenever the compiler
// accepts the flag); everything here lives behind the runtime dispatch in core/simd.cpp, and
// the scalar helpers it calls (sampling, trial finish, the fallback
// kernel) are extern functions compiled with the portable baseline flags —
// no templated library code is instantiated under the wider ISA.
#ifdef RISKAN_SIMD_AVX2

#include <immintrin.h>

#include "core/batch_simd_impl.hpp"

namespace riskan::core::batch {

namespace {

struct Avx2Ops {
  static constexpr std::size_t kWidth = 4;
  using Vec = __m256d;

  static Vec broadcast(Money x) noexcept { return _mm256_set1_pd(x); }
  static Vec load(const Money* p) noexcept { return _mm256_loadu_pd(p); }
  static void store(Money* p, Vec v) noexcept { _mm256_storeu_pd(p, v); }
  static Vec mul(Vec a, Vec b) noexcept { return _mm256_mul_pd(a, b); }
  static Vec sub(Vec a, Vec b) noexcept { return _mm256_sub_pd(a, b); }
  static Vec min(Vec a, Vec b) noexcept { return _mm256_min_pd(a, b); }
  static Vec gt_mask(Vec a, Vec b) noexcept { return _mm256_cmp_pd(a, b, _CMP_GT_OQ); }
  static Vec mask_and(Vec v, Vec m) noexcept { return _mm256_and_pd(v, m); }

  static Vec gather(const Money* base, const std::uint32_t* idx) noexcept {
    const __m128i vi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx));
    // All-lanes-on masked form rather than _mm256_i32gather_pd: same
    // vgatherdpd, but with a defined source vector (the plain intrinsic's
    // _mm256_undefined_pd() source trips GCC's -Wmaybe-uninitialized).
    const __m256d ones = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, vi, ones, 8);
  }
};

}  // namespace

void process_trials_simd_avx2(std::span<const Slot> slots, std::span<const Group> groups,
                              std::span<const std::uint64_t> yelt_offsets,
                              const Philox4x32& philox, bool secondary, TrialId trial_base,
                              TrialId lo, TrialId hi, std::span<Money> annual_scratch,
                              SimdStats& stats) {
  impl::process_trials_simd<Avx2Ops>(slots, groups, yelt_offsets, philox, secondary, trial_base,
                                   lo, hi, annual_scratch, stats);
}

void apply_occurrence_lanes_avx2(const finance::LayerTerms& terms, const Money* ground_up,
                                 std::size_t n, Money* occ) {
  impl::apply_occurrence_lanes_impl<Avx2Ops>(terms, ground_up, n, occ);
}

Money max_range_lanes_avx2(const Money* values, std::size_t n, Money init) {
  // Safe to reorder bitwise for finalize_oep's input class (non-NaN,
  // >= +0.0): vmaxpd picks b on ties, std::max keeps a — but equal
  // non-negative doubles share one bit pattern, so the pick cannot differ.
  std::size_t k = 0;
  __m256d m = _mm256_set1_pd(init);
  for (; k + 4 <= n; k += 4) {
    m = _mm256_max_pd(m, _mm256_loadu_pd(values + k));
  }
  const __m128d pair =
      _mm_max_pd(_mm256_castpd256_pd128(m), _mm256_extractf128_pd(m, 1));
  Money best = _mm_cvtsd_f64(_mm_max_sd(pair, _mm_unpackhi_pd(pair, pair)));
  for (; k < n; ++k) {
    best = std::max(best, values[k]);
  }
  return best;
}

}  // namespace riskan::core::batch

#endif  // RISKAN_SIMD_AVX2
