// AVX2 stamp of the vectorized trial kernel: 4 Money lanes per __m256d,
// ELT means gathered with vgatherdpd (dense groups gather only the rows
// their hit list found), and of the secondary sampler's first-attempt
// decode: lane math (util/lane_math.hpp) four lanes per instruction.
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

  // Lane-math ops (util/lane_math.hpp). Masks are all-ones/all-zeros
  // doubles; every double op is the correctly rounded IEEE one, so each
  // lane computes the bits ScalarOps does.
  using Bits = __m256i;
  using Mask = __m256d;
  static Bits ibroadcast(std::uint64_t x) noexcept {
    return _mm256_set1_epi64x(static_cast<long long>(x));
  }
  static Vec add(Vec a, Vec b) noexcept { return _mm256_add_pd(a, b); }
  static Vec div(Vec a, Vec b) noexcept { return _mm256_div_pd(a, b); }
  static Vec sqrt(Vec a) noexcept { return _mm256_sqrt_pd(a); }
  static Mask lt(Vec a, Vec b) noexcept { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static Mask land(Mask a, Mask b) noexcept { return _mm256_and_pd(a, b); }
  static Mask lor(Mask a, Mask b) noexcept { return _mm256_or_pd(a, b); }
  static Mask landnot(Mask a, Mask b) noexcept { return _mm256_andnot_pd(a, b); }
  static bool any(Mask m) noexcept { return _mm256_movemask_pd(m) != 0; }
  static Vec select(Mask m, Vec a, Vec b) noexcept { return _mm256_blendv_pd(b, a, m); }
  static Bits as_bits(Vec a) noexcept { return _mm256_castpd_si256(a); }
  static Vec from_bits(Bits a) noexcept { return _mm256_castsi256_pd(a); }
  static Bits iadd(Bits a, Bits b) noexcept { return _mm256_add_epi64(a, b); }
  static Bits iand(Bits a, Bits b) noexcept { return _mm256_and_si256(a, b); }
  static Bits ior(Bits a, Bits b) noexcept { return _mm256_or_si256(a, b); }
  static Bits ixor(Bits a, Bits b) noexcept { return _mm256_xor_si256(a, b); }
  template <int N>
  static Bits shl(Bits a) noexcept {
    return _mm256_slli_epi64(a, N);
  }
  template <int N>
  static Bits shr(Bits a) noexcept {
    return _mm256_srli_epi64(a, N);
  }
  static Mask ieq(Bits a, Bits b) noexcept {
    return _mm256_castsi256_pd(_mm256_cmpeq_epi64(a, b));
  }

  // Sampler decode ops (core/secondary.hpp).
  /// Words 0 and 1 of four lanes' block from [A0 B0 A1 B1 A2 B2 A3 B3]:
  /// two loads and a deinterleave, no gather.
  static void load_words(const std::uint64_t* p, Bits& even, Bits& odd) noexcept {
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4));
    even = _mm256_permute4x64_epi64(_mm256_unpacklo_epi64(a, b), _MM_SHUFFLE(3, 1, 2, 0));
    odd = _mm256_permute4x64_epi64(_mm256_unpackhi_epi64(a, b), _MM_SHUFFLE(3, 1, 2, 0));
  }
  /// ((w >> 11) + 1) · 2^-53, exactly. AVX2 has no u64 → double, so
  /// y = w >> 11 converts as two 2^52-biased halves, each already scaled by
  /// its bias: the high 21 bits under 2^31 (one unit = 2^-21), the low 32
  /// under 2^-1 (one unit = 2^-53), whose bias subtraction also adds the
  /// +1 (0.5 + lo·2^-53 − (0.5 − 2^-53), exact by Sterbenz). The sum of
  /// the halves is exact too: the result has at most 53 significant bits.
  static Vec unit_open(Bits w) noexcept {
    const __m256i y = _mm256_srli_epi64(w, 11);
    const __m256d hi = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(y, 32),
                                            _mm256_set1_epi64x(0x41e0000000000000LL))),
        _mm256_set1_pd(0x1p31));
    const __m256d lo = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(_mm256_and_si256(y, _mm256_set1_epi64x(0xffffffffLL)),
                                            _mm256_set1_epi64x(0x3fe0000000000000LL))),
        _mm256_set1_pd(0x1p-1 - 0x1p-53));
    return _mm256_add_pd(hi, lo);
  }
  static unsigned movemask(Mask m) noexcept {
    return static_cast<unsigned>(_mm256_movemask_pd(m));
  }
};

/// out[i] = f(in[i]) four lanes at a time; the sub-width tail runs in a
/// padded vector, so this TU never instantiates a width-1 template.
template <typename F>
void map_lanes(F f, const double* in, std::size_t n, double* out) {
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    _mm256_storeu_pd(out + k, f(_mm256_loadu_pd(in + k)));
  }
  if (k < n) {
    alignas(32) double buf[4] = {1.0, 1.0, 1.0, 1.0};
    for (std::size_t i = k; i < n; ++i) {
      buf[i - k] = in[i];
    }
    _mm256_store_pd(buf, f(_mm256_load_pd(buf)));
    for (std::size_t i = k; i < n; ++i) {
      out[i] = buf[i - k];
    }
  }
}

}  // namespace

void process_trials_simd_avx2(std::span<const Slot> slots, std::span<const Group> groups,
                              std::span<const std::uint64_t> yelt_offsets,
                              const Philox4x32& philox, bool secondary, TrialId trial_base,
                              TrialId lo, TrialId hi, std::span<Money> annual_scratch,
                              const OepSink& oep, SimdStats& stats) {
  impl::process_trials_simd<Avx2Ops>(slots, groups, yelt_offsets, philox, secondary, trial_base,
                                   lo, hi, annual_scratch, oep, stats);
}

void lane_math_lanes_avx2(LaneFn f, const double* in, std::size_t n, double* out) {
  switch (f) {
    case LaneFn::Log:
      map_lanes([](__m256d x) { return lane_math::log<Avx2Ops>(x); }, in, n, out);
      break;
    case LaneFn::Exp:
      map_lanes([](__m256d x) { return lane_math::exp<Avx2Ops>(x); }, in, n, out);
      break;
    case LaneFn::Cos2Pi:
      map_lanes([](__m256d x) { return lane_math::cos_2pi<Avx2Ops>(x); }, in, n, out);
      break;
  }
}

void decode_first_attempts_avx2(unsigned cls, std::size_t begin, std::size_t n,
                                const std::uint64_t* words,
                                SecondarySampler::LaneStage& stage) {
  SecondarySampler::decode_first_attempts<Avx2Ops>(cls, begin, n, words, stage);
}

void apply_occurrence_lanes_avx2(const finance::LayerTerms& terms, const Money* ground_up,
                                 std::size_t n, Money* occ) {
  impl::apply_occurrence_lanes_impl<Avx2Ops>(terms, ground_up, n, occ);
}

Money max_range_lanes_avx2(const Money* values, std::size_t n, Money init) {
  // Safe to reorder bitwise for the OEP cells' input class (non-NaN,
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
