#include "core/simd.hpp"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "util/lane_math.hpp"

namespace riskan::core::exec {

namespace {

SimdDispatch unavailable(bool compiled, const char* reason) noexcept {
  SimdDispatch d;
  d.compiled = compiled;
  d.reason = reason;
  return d;
}

}  // namespace

SimdDispatch simd_dispatch() {
#if defined(RISKAN_SIMD_AVX2) || defined(RISKAN_SIMD_NEON)
  constexpr bool kCompiled = true;
#else
  constexpr bool kCompiled = false;
#endif

  const char* env = std::getenv("RISKAN_SIMD");
  const std::string_view want = env != nullptr ? env : "";
  if (want == "off" || want == "0") {
    return unavailable(kCompiled, "disabled by RISKAN_SIMD");
  }
  if (!kCompiled) {
    return unavailable(false, "no vector kernel is compiled for this architecture");
  }

#if defined(RISKAN_SIMD_AVX2)
  if (want.empty() || want == "avx2") {
    if (__builtin_cpu_supports("avx2")) {
      SimdDispatch d;
      d.isa = SimdIsa::Avx2;
      d.width = 4;
      d.name = "avx2";
      d.kernel = batch::process_trials_simd_avx2;
      d.max_range = batch::max_range_lanes_avx2;
      d.beta_decode = batch::decode_first_attempts_avx2;
      d.compiled = true;
      return d;
    }
    if (want == "avx2") {
      return unavailable(true, "RISKAN_SIMD=avx2 but the host CPU lacks AVX2");
    }
  }
#endif

#if defined(RISKAN_SIMD_NEON)
  if (want.empty() || want == "neon") {
    // NEON is baseline on aarch64; no runtime probe needed.
    SimdDispatch d;
    d.isa = SimdIsa::Neon;
    d.width = 2;
    d.name = "neon";
    d.kernel = batch::process_trials_simd_neon;
    d.max_range = batch::max_range_lanes_neon;
    d.compiled = true;
    return d;
  }
#endif

  return unavailable(kCompiled,
                     "no compiled vector ISA is usable on this host "
                     "(or RISKAN_SIMD names an unavailable one)");
}

}  // namespace riskan::core::exec

namespace riskan::core::batch {

void apply_occurrence_lanes(const finance::LayerTerms& terms, const Money* ground_up,
                            std::size_t n, Money* occ) {
  const auto dispatch = exec::simd_dispatch();
  switch (dispatch.isa) {
#if defined(RISKAN_SIMD_AVX2)
    case exec::SimdIsa::Avx2:
      apply_occurrence_lanes_avx2(terms, ground_up, n, occ);
      return;
#endif
#if defined(RISKAN_SIMD_NEON)
    case exec::SimdIsa::Neon:
      apply_occurrence_lanes_neon(terms, ground_up, n, occ);
      return;
#endif
    default:
      break;
  }
  for (std::size_t i = 0; i < n; ++i) {
    occ[i] = finance::apply_occurrence(terms, ground_up[i]);
  }
}

void lane_math_lanes(LaneFn f, const double* in, std::size_t n, double* out) {
#if defined(RISKAN_SIMD_AVX2)
  if (exec::simd_dispatch().isa == exec::SimdIsa::Avx2) {
    lane_math_lanes_avx2(f, in, n, out);
    return;
  }
#endif
  using S = lane_math::ScalarOps;
  for (std::size_t i = 0; i < n; ++i) {
    switch (f) {
      case LaneFn::Log:
        out[i] = lane_math::log<S>(in[i]);
        break;
      case LaneFn::Exp:
        out[i] = lane_math::exp<S>(in[i]);
        break;
      case LaneFn::Cos2Pi:
        out[i] = lane_math::cos_2pi<S>(in[i]);
        break;
    }
  }
}

Money max_range_lanes(const Money* values, std::size_t n, Money init) {
  if (const MaxRangeFn max_range = exec::simd_dispatch().max_range) {
    return max_range(values, n, init);
  }
  Money best = init;
  for (std::size_t i = 0; i < n; ++i) {
    best = std::max(best, values[i]);
  }
  return best;
}

}  // namespace riskan::core::batch
