#include "core/secondary.hpp"

#include <algorithm>
#include <cmath>

#include "core/simd.hpp"
#include "util/distributions.hpp"

namespace riskan::core {

SecondarySampler::SecondarySampler(const data::EventLossTable& elt) {
  const auto means = elt.mean_loss();
  const auto sigmas = elt.sigma_loss();
  const auto exposures = elt.exposure();
  lane_rows_.resize(elt.size());
  for (std::size_t i = 0; i < elt.size(); ++i) {
    Param p;
    p.exposure = exposures[i];
    if (p.exposure <= 0.0 || means[i] <= 0.0) {
      p.degenerate = true;
    } else if (means[i] / p.exposure >= 1.0) {
      // Loss pinned at the exposure limit.
      p.degenerate = true;
      p.mean_ratio = 1.0;
    } else {
      p.mean_ratio = means[i] / p.exposure;
      const double sigma_ratio = sigmas[i] / p.exposure;
      if (sigma_ratio <= 1e-9) {
        p.degenerate = true;  // effectively deterministic
      } else {
        beta_from_moments(p.mean_ratio, sigma_ratio, p.alpha, p.beta);
      }
    }

    LaneRow& r = lane_rows_[i];
    r.exposure = p.exposure;
    if (p.degenerate) {
      r.flags = kDegenerate;
      r.d_a = p.exposure * p.mean_ratio;  // the sample value; zero draws
      continue;
    }
    // Marsaglia–Tsang constants per marginal; a shape below 1 draws
    // Gamma(shape + 1) and multiplies by U^(1/shape).
    r.flags = (p.alpha < 1.0 ? kBoostAlpha : 0) | (p.beta < 1.0 ? kBoostBeta : 0);
    const double shape_a = p.alpha < 1.0 ? p.alpha + 1.0 : p.alpha;
    const double shape_b = p.beta < 1.0 ? p.beta + 1.0 : p.beta;
    r.d_a = shape_a - 1.0 / 3.0;
    r.c_a = 1.0 / std::sqrt(9.0 * r.d_a);
    r.inv_a = 1.0 / p.alpha;
    r.d_b = shape_b - 1.0 / 3.0;
    r.c_b = 1.0 / std::sqrt(9.0 * r.d_b);
    r.inv_b = 1.0 / p.beta;
  }
}

void SecondarySampler::sample_lanes(const Philox4x32& engine, std::uint64_t hi_key,
                                    const std::uint32_t* rows, const std::uint64_t* lo,
                                    std::size_t n, Money* out, std::uint64_t& fast,
                                    std::uint64_t& tail) const {
  // The decode width: the AVX2 stamp's 4 lanes when the dispatch hands one
  // out, else the width-1 stamp below. Both run beta_lanes' templates, so
  // the width moves no bit.
  const exec::SimdDispatch simd = exec::simd_dispatch();
  const DecodeFn decode =
      simd.beta_decode != nullptr ? simd.beta_decode : &decode_first_attempts<lane_math::ScalarOps>;
  const std::size_t width = simd.beta_decode != nullptr ? simd.width : 1;
  const PhiloxLanes lanes(engine);

  // Per batch: up to kBatch occurrences, partitioned by boost class so that
  // each decode runs with its word layout fixed at compile time. A class-0
  // lane consumes exactly 6 words (Box–Muller pair and acceptance uniform
  // per marginal), 3 blocks, the count the scalar stream would advance;
  // each boosted marginal adds its boost uniform, so boosted lanes get 4
  // blocks. Block j of a lane's stream is (hi ^ (j >> 1), lo + j), matching
  // PhiloxStream word for word. Within a class, counters are block-major
  // per group of `width` lanes, so word k of the group's lanes arrives as
  // plain loads plus a deinterleave. Reordering is free: each lane's blocks
  // are a pure function of (key, counter), and each fallback re-samples on
  // its own fresh stream, so neither the class order nor the tail order
  // can perturb any committed value.
  constexpr std::size_t kClassCap = LaneStage::kClassCap;
  constexpr std::size_t kCounters = 4 * (kBatch + kClasses * (kMaxDecodeWidth - 1));
  LaneStage stage;
  std::uint64_t chi[kCounters];
  std::uint64_t clo[kCounters];
  std::uint64_t words[2 * kCounters];
  std::uint32_t lane_of[LaneStage::kCap];  // the lane's occurrence in the batch
  std::uint64_t lo_of[LaneStage::kCap];
  std::uint32_t fallback[kBatch];

  for (std::size_t b0 = 0; b0 < n; b0 += kBatch) {
    const std::size_t bn = std::min(kBatch, n - b0);

    // Classify and stage; degenerate rows commit immediately with zero
    // draws, like the scalar path.
    std::size_t count[kClasses] = {};
    for (std::size_t i = 0; i < bn; ++i) {
      const LaneRow& r = lane_rows_[rows[b0 + i]];
      if ((r.flags & kDegenerate) != 0) {
        out[b0 + i] = r.d_a;
        continue;
      }
      const unsigned cls = (r.flags >> 1) & 3u;
      const std::size_t lane = cls * kClassCap + count[cls]++;
      lane_of[lane] = static_cast<std::uint32_t>(i);
      lo_of[lane] = lo[b0 + i];
      stage.d_a[lane] = r.d_a;
      stage.c_a[lane] = r.c_a;
      stage.inv_a[lane] = r.inv_a;
      stage.d_b[lane] = r.d_b;
      stage.c_b[lane] = r.c_b;
      stage.inv_b[lane] = r.inv_b;
      stage.exposure[lane] = r.exposure;
    }

    // Pad each class to the decode width with copies of its last lane, and
    // lay out its counters.
    std::size_t padded[kClasses];
    std::size_t word_begin[kClasses];
    std::size_t c = 0;
    for (unsigned cls = 0; cls < kClasses; ++cls) {
      const std::size_t base = cls * kClassCap;
      const std::size_t nc = count[cls];
      padded[cls] = (nc + width - 1) / width * width;
      for (std::size_t v = nc; v < padded[cls]; ++v) {
        const std::size_t from = base + nc - 1;
        const std::size_t to = base + v;
        lo_of[to] = lo_of[from];
        stage.d_a[to] = stage.d_a[from];
        stage.c_a[to] = stage.c_a[from];
        stage.inv_a[to] = stage.inv_a[from];
        stage.d_b[to] = stage.d_b[from];
        stage.c_b[to] = stage.c_b[from];
        stage.inv_b[to] = stage.inv_b[from];
        stage.exposure[to] = stage.exposure[from];
      }
      word_begin[cls] = 2 * c;
      const std::size_t blocks = cls == 0 ? 3 : 4;
      for (std::size_t g = base; g < base + padded[cls]; g += width) {
        for (std::size_t j = 0; j < blocks; ++j) {
          for (std::size_t l = 0; l < width; ++l, ++c) {
            chi[c] = hi_key ^ (j >> 1);
            clo[c] = lo_of[g + l] + j;
          }
        }
      }
    }

    lanes.blocks(chi, clo, c, words);

    std::size_t nfall = 0;
    for (unsigned cls = 0; cls < kClasses; ++cls) {
      if (padded[cls] == 0) {
        continue;
      }
      const std::size_t base = cls * kClassCap;
      decode(cls, base, padded[cls], words + word_begin[cls], stage);
      for (std::size_t lane = base; lane < base + count[cls]; ++lane) {
        const std::uint32_t i = lane_of[lane];
        if (stage.ok[lane] != 0) {
          out[b0 + i] = stage.value[lane];
        } else {
          fallback[nfall++] = i;
        }
      }
    }

    fast += bn - nfall;
    tail += nfall;

    // Rejection tail: the width-1 sampler on a fresh per-occurrence stream
    // (order-independent — every stream is keyed by its own lo).
    for (std::size_t f = 0; f < nfall; ++f) {
      const std::size_t i = fallback[f];
      PhiloxStream stream(engine, hi_key, lo[b0 + i]);
      out[b0 + i] = sample(rows[b0 + i], stream);
    }
  }
}

}  // namespace riskan::core
