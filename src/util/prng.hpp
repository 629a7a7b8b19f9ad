// Pseudo-random number generators.
//
// Three generators, chosen for the roles they play in the pipeline:
//
//  * SplitMix64      — seeding / hashing utility (one 64-bit state word).
//  * Xoshiro256ss    — fast general-purpose sequential stream; used by the
//                      synthetic catalogue / exposure / YELT generators.
//  * Philox4x32      — counter-based generator. Aggregate analysis derives an
//                      independent stream per (trial, event) pair from a key
//                      and counter, so results are bit-identical no matter
//                      how trials are scheduled across threads or trial
//                      blocks. This is what makes the "consistent lens"
//                      requirement of the paper testable: the sequential
//                      and thread-pool engines must agree exactly.
//
// All generators satisfy std::uniform_random_bit_generator, so they plug
// into <random> distributions as well as ours (src/util/distributions.hpp).
#pragma once

#include <array>
#include <cstdint>

namespace riskan {

/// SplitMix64: tiny, fast, passes BigCrush with 64-bit state. Primary use is
/// turning arbitrary user seeds into well-mixed state for other generators.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  result_type operator()() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Mixes a 64-bit value (stateless convenience over SplitMix64).
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  return SplitMix64{x}();
}

/// xoshiro256**: the general-purpose workhorse (Blackman & Vigna).
/// 256-bit state, period 2^256 - 1, excellent statistical quality.
class Xoshiro256ss {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from a single seed via SplitMix64, per the
  /// authors' recommendation.
  explicit Xoshiro256ss(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  result_type operator()() noexcept;

  /// Advances the state by 2^128 steps; gives up to 2^128 non-overlapping
  /// subsequences for coarse-grained parallel generation.
  void long_jump() noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Philox4x32-10 (Salmon et al., SC'11 "Parallel Random Numbers: As Easy as
/// 1, 2, 3"). A counter-based generator: `operator()(counter)` is a pure
/// function of (key, counter), producing four 32-bit words. Crush-resistant
/// with the standard 10 rounds.
class Philox4x32 {
 public:
  using Counter = std::array<std::uint32_t, 4>;
  using Key = std::array<std::uint32_t, 2>;

  explicit Philox4x32(std::uint64_t key) noexcept
      : key_{static_cast<std::uint32_t>(key), static_cast<std::uint32_t>(key >> 32)} {}

  /// Generates the 128-bit block for the given counter.
  Counter operator()(Counter ctr) const noexcept;

  /// Convenience: derive two 64-bit outputs from a 2x64-bit logical counter.
  /// Used as (trial, event) -> random block in aggregate analysis.
  std::array<std::uint64_t, 2> block(std::uint64_t hi, std::uint64_t lo) const noexcept;

  /// The round key (the batched block kernels broadcast it per lane).
  const Key& key() const noexcept { return key_; }

 private:
  Key key_;
};

/// A std::uniform_random_bit_generator facade over Philox for one logical
/// stream: fixes (hi, lo) as stream id and walks a third index. Lets
/// counter-based streams feed ordinary distribution code.
///
/// The engine is held by pointer (it outlives the stream at every
/// construction site: streams are per-occurrence temporaries over a
/// per-analysis engine), and the word counter folds the old spare flag
/// into its low bit, so the per-draw fast path is one branch on parity
/// instead of a flag test plus a 16-byte engine copy per stream. Word w
/// still comes from block w/2 under counter (hi ^ (w >> 2), lo + (w >> 1))
/// — the emitted bit-stream is unchanged (tests replay it).
class PhiloxStream {
 public:
  using result_type = std::uint64_t;

  PhiloxStream(const Philox4x32& engine, std::uint64_t hi, std::uint64_t lo) noexcept
      : engine_(&engine), hi_(hi), lo_(lo) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  result_type operator()() noexcept {
    const std::uint64_t w = word_++;
    if ((w & 1) == 0) {
      block_ = engine_->block(hi_ ^ (w >> 2), lo_ + (w >> 1));
      return block_[0];
    }
    return block_[1];
  }

 private:
  const Philox4x32* engine_;
  std::uint64_t hi_;
  std::uint64_t lo_;
  std::uint64_t word_ = 0;
  std::array<std::uint64_t, 2> block_{};
};

/// Scalar body of the batched block evaluation: out[2i], out[2i+1] =
/// engine.block(hi[i], lo[i]). The lane-parallel kernels fall back to it
/// for sub-width tails, and hosts without a wide ISA (or RISKAN_SIMD=off)
/// dispatch it directly.
void philox_blocks_scalar(const Philox4x32& engine, const std::uint64_t* hi,
                          const std::uint64_t* lo, std::size_t n,
                          std::uint64_t* out) noexcept;

// Per-ISA bodies; each is defined only when its RISKAN_SIMD_* macro is
// compiled in (src/util/prng_lanes_*.cpp), mirroring the trial-kernel
// stamps in src/core/batch_simd_*.cpp.
void philox_blocks_avx2(const Philox4x32& engine, const std::uint64_t* hi,
                        const std::uint64_t* lo, std::size_t n,
                        std::uint64_t* out) noexcept;
void philox_blocks_avx512(const Philox4x32& engine, const std::uint64_t* hi,
                          const std::uint64_t* lo, std::size_t n,
                          std::uint64_t* out) noexcept;
void philox_blocks_neon(const Philox4x32& engine, const std::uint64_t* hi,
                        const std::uint64_t* lo, std::size_t n,
                        std::uint64_t* out) noexcept;

/// Batched Philox block evaluation over W logical (hi, lo) counters at
/// once. Philox is a pure function of (key, counter), and its round is
/// 32-bit mul-hi/lo, xor and add — all lane-exact integer ops — so the
/// lane-parallel kernels are bit-identical to Philox4x32::block by
/// construction (tests assert it word for word). Construction resolves the
/// widest compiled ISA the host supports, honouring the RISKAN_SIMD
/// environment override (off|0 forces the scalar body; avx512/avx2/neon
/// pin an ISA, falling back to scalar when it cannot run here).
class PhiloxLanes {
 public:
  explicit PhiloxLanes(const Philox4x32& engine) noexcept;

  /// out[2i], out[2i+1] = engine.block(hi[i], lo[i]) for i in [0, n).
  void blocks(const std::uint64_t* hi, const std::uint64_t* lo, std::size_t n,
              std::uint64_t* out) const noexcept {
    fn_(*engine_, hi, lo, n, out);
  }

  /// Counters evaluated per hardware pass (1 = scalar body).
  unsigned width() const noexcept { return width_; }

 private:
  using BlocksFn = void (*)(const Philox4x32&, const std::uint64_t*,
                            const std::uint64_t*, std::size_t, std::uint64_t*);
  const Philox4x32* engine_;
  BlocksFn fn_;
  unsigned width_;
};

/// Converts a 64-bit random word to a double uniform in [0, 1).
inline double to_unit_double(std::uint64_t word) noexcept {
  // 53 high bits -> [0,1) with full double precision.
  return static_cast<double>(word >> 11) * 0x1.0p-53;
}

/// Converts a 64-bit random word to a double uniform in (0, 1]; useful when
/// feeding logarithms.
inline double to_unit_double_open(std::uint64_t word) noexcept {
  return (static_cast<double>(word >> 11) + 1.0) * 0x1.0p-53;
}

}  // namespace riskan
