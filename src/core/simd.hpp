// Runtime SIMD dispatch for the vectorized trial kernel.
//
// The wide kernels (src/core/batch_simd_*.cpp) are compiled whenever the
// compiler accepts their ISA flag: RISKAN_SIMD_AVX2 on x86-64, and
// RISKAN_SIMD_NEON on aarch64; other architectures build the scalar kernel
// only. At run time simd_dispatch() picks the widest compiled ISA the host
// actually supports — AVX2 via cpuid, NEON unconditionally on aarch64 —
// and hands back the kernel pointer exec::execute runs on either backend
// under Kernel::Auto (core/aggregate_engine.hpp). Without a usable ISA
// Auto runs the scalar kernel; nothing is rejected.
//
// Environment override (documented with RISKAN_OBS / RISKAN_TRACE in
// docs/architecture.md):
//   RISKAN_SIMD=off|0   — disable dispatch; Kernel::Auto runs scalar.
//   RISKAN_SIMD=avx2    — require AVX2 (unavailable → scalar).
//   RISKAN_SIMD=neon    — require NEON (unavailable → scalar).
// The environment is re-read on every call so a process can flip the
// override between runs (tests do).
#pragma once

#include "core/batch_simd.hpp"

namespace riskan::core::exec {

enum class SimdIsa {
  None,
  Avx2,
  Neon,
};

/// The resolved dispatch decision: which ISA (if any) the vector kernels
/// will run on, its Money lane width, and the kernel entry points.
struct SimdDispatch {
  SimdIsa isa = SimdIsa::None;
  unsigned width = 0;  ///< Money lanes per vector; 0 = SIMD unavailable
  const char* name = "none";
  batch::SimdKernelFn kernel = nullptr;
  /// The ISA's lane max scan (max_range_lanes' body); the kernels' OEP
  /// finish runs it. Null means a scalar loop.
  batch::MaxRangeFn max_range = nullptr;
  /// The ISA's stamp of the sampler's first-attempt decode, `width` lanes
  /// per instruction (at most SecondarySampler::kMaxDecodeWidth); null
  /// means SecondarySampler::sample_lanes decodes at width 1 (no AArch64
  /// stamp exists yet).
  SecondarySampler::DecodeFn beta_decode = nullptr;
  /// Whether any wide kernel was compiled into this build at all; false
  /// means only the portable scalar kernel exists (an architecture without
  /// a stamp).
  bool compiled = false;
  /// Why width == 0, for the benches' skip notices.
  const char* reason = "";
};

/// Resolves the dispatch from the compiled kernels, the host CPU and the
/// RISKAN_SIMD override. Cheap (a getenv and, on x86, a cached cpuid);
/// called once per Kernel::Auto execution.
SimdDispatch simd_dispatch();

/// True when Kernel::Auto runs the vector kernel here.
inline bool simd_available() { return simd_dispatch().width > 0; }

}  // namespace riskan::core::exec
