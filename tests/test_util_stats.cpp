// Statistics utilities: Welford accumulator (incl. parallel merge law),
// quantiles against oracles, tail means, histogram, P2 streaming quantiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/prng.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"

namespace riskan {
namespace {

TEST(OnlineStats, MatchesClosedForm) {
  OnlineStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.add(x);
  }
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(stats.stdev(), 2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(OnlineStats, SampleVarianceUsesBessel) {
  OnlineStats stats;
  stats.add(1.0);
  stats.add(3.0);
  EXPECT_DOUBLE_EQ(stats.sample_variance(), 2.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 1.0);
}

TEST(OnlineStats, FewSamplesHaveZeroVariance) {
  OnlineStats stats;
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  stats.add(5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  Xoshiro256ss rng(1);
  std::vector<double> values(10'000);
  for (auto& v : values) {
    v = to_unit_double(rng()) * 100.0 - 50.0;
  }

  OnlineStats whole;
  for (const double v : values) {
    whole.add(v);
  }

  // Split into 7 uneven parts, merge.
  OnlineStats merged;
  std::size_t pos = 0;
  const std::size_t cuts[] = {13, 400, 1000, 2500, 4000, 9000, 10'000};
  for (const std::size_t cut : cuts) {
    OnlineStats part;
    for (; pos < cut; ++pos) {
      part.add(values[pos]);
    }
    merged.merge(part);
  }

  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(merged.variance(), whole.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmptyIsIdentity) {
  OnlineStats a;
  a.add(1.0);
  a.add(2.0);
  OnlineStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  OnlineStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(Quantile, MatchesType7Oracle) {
  const std::vector<double> values{15.0, 20.0, 35.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 15.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 35.0);
  // NumPy: np.quantile([15,20,35,40,50], 0.4) = 29.0
  EXPECT_DOUBLE_EQ(quantile(values, 0.4), 29.0);
  // np.quantile(..., 0.75) = 40.0 (h = 0.75*4 = 3.0 exactly)
  EXPECT_DOUBLE_EQ(quantile(values, 0.75), 40.0);
  // np.quantile(..., 0.9) = 46.0
  EXPECT_DOUBLE_EQ(quantile(values, 0.9), 46.0);
}

TEST(Quantile, UnsortedInputHandled) {
  const std::vector<double> values{50.0, 15.0, 40.0, 20.0, 35.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 35.0);
}

TEST(Quantile, SingleElement) {
  const std::vector<double> values{42.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.37), 42.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 42.0);
}

TEST(Quantile, ContractsEnforced) {
  const std::vector<double> empty;
  EXPECT_THROW(quantile(empty, 0.5), ContractViolation);
  const std::vector<double> one{1.0};
  EXPECT_THROW(quantile(one, -0.1), ContractViolation);
  EXPECT_THROW(quantile(one, 1.1), ContractViolation);
}

TEST(TailMean, MatchesHandComputed) {
  std::vector<double> sorted{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0};
  // 0.8-quantile (type 7) = 8.2; values above: 9, 10 -> mean 9.5.
  EXPECT_DOUBLE_EQ(tail_mean_above(sorted, 0.8), 9.5);
}

TEST(TailMean, EmptyTailReturnsQuantile) {
  std::vector<double> sorted{5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(tail_mean_above(sorted, 0.9), 5.0);
}

TEST(TailMean, DominatesQuantile) {
  Xoshiro256ss rng(3);
  std::vector<double> values(5000);
  for (auto& v : values) {
    v = to_unit_double(rng());
  }
  std::sort(values.begin(), values.end());
  for (const double p : {0.5, 0.9, 0.99}) {
    EXPECT_GE(tail_mean_above(values, p), quantile_sorted(values, p));
  }
}

// ---------------------------------------------------------------------------
// select_quantiles against a sorted copy, bit for bit
// ---------------------------------------------------------------------------

/// Every level src/ reads: the standard return-period grid, 0.05, 0.95,
/// 0.99, 1 - 1/100 and 1 - 1/250, plus the ends of [0, 1].
std::vector<double> levels_read_by_src() {
  std::vector<double> levels;
  for (const double rp : {2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0}) {
    levels.push_back(1.0 - 1.0 / rp);
  }
  for (const double p : {0.05, 0.95, 0.99, 1.0 - 1.0 / 100.0, 1.0 - 1.0 / 250.0, 0.0, 1.0}) {
    levels.push_back(p);
  }
  return levels;
}

/// Zero-heavy (the given share of zeros, the rest heavy-tailed), tie-heavy
/// (a few distinct values) or continuous; every value non-negative, like a
/// loss table.
std::vector<double> loss_like_sample(std::size_t n, int kind, double zero_share,
                                     std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<double> values(n);
  for (double& v : values) {
    const double heavy = std::pow(to_unit_double_open(rng()), -0.7) - 1.0;
    switch (kind) {
      case 0:
        v = to_unit_double(rng()) < zero_share ? 0.0 : heavy;
        break;
      case 1:
        v = std::floor(3.0 * to_unit_double(rng()));
        break;
      default:
        v = heavy;
        break;
    }
  }
  return values;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(SelectQuantiles, MatchesASortedCopyBitForBit) {
  const auto levels = levels_read_by_src();
  struct Shape {
    int kind;
    double zero_share;
  };
  const Shape shapes[] = {{0, 0.70}, {0, 0.97}, {1, 0.0}, {2, 0.0}};
  std::uint64_t seed = 1;
  for (const std::size_t n :
       {1u, 2u, 3u, 99u, 100u, 101u, 250u, 251u, 1'000u, 1'001u, 250'000u}) {
    for (const Shape& shape : shapes) {
      const auto sample = loss_like_sample(n, shape.kind, shape.zero_share, ++seed);
      auto sorted = sample;
      std::sort(sorted.begin(), sorted.end());
      const std::string where =
          "n=" + std::to_string(n) + " kind=" + std::to_string(shape.kind);

      // Every level at once with each tail level, as the report and the
      // pricer select. The largest sample skips the low tail levels, whose
      // tail sorts are full sorts.
      for (const double tail : levels) {
        if (n > 10'000 && tail < 0.95) {
          continue;
        }
        auto selected = sample;
        select_quantiles(selected, levels, tail);
        for (const double p : levels) {
          ASSERT_EQ(bits(quantile_sorted(selected, p)), bits(quantile_sorted(sorted, p)))
              << where << " p=" << p << " tail=" << tail;
        }
        ASSERT_EQ(bits(tail_mean_above(selected, tail)), bits(tail_mean_above(sorted, tail)))
            << where << " tail=" << tail;
      }
      // One level alone, as quantile() and value_at_risk select, and a tail
      // level alone, as tail_value_at_risk selects.
      for (const double p : levels) {
        auto one = sample;
        const double single[] = {p};
        select_quantiles(one, single);
        ASSERT_EQ(bits(quantile_sorted(one, p)), bits(quantile_sorted(sorted, p)))
            << where << " p=" << p;
        ASSERT_EQ(bits(quantile(sample, p)), bits(quantile_sorted(sorted, p)))
            << where << " p=" << p;
        auto tail_only = sample;
        select_quantiles(tail_only, {}, p);
        ASSERT_EQ(bits(tail_mean_above(tail_only, p)), bits(tail_mean_above(sorted, p)))
            << where << " p=" << p;
      }
    }
  }
}

TEST(SelectQuantiles, KeepsTheSampleAndAcceptsUnorderedRepeatedLevels) {
  auto values = loss_like_sample(1'000, 0, 0.8, 7);
  auto sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const std::vector<double> levels{0.999, 0.5, 0.99, 0.5, 0.999};
  select_quantiles(values, levels, 0.99);
  for (const double p : levels) {
    EXPECT_EQ(bits(quantile_sorted(values, p)), bits(quantile_sorted(sorted, p)));
  }
  // A permutation of the sample: the same multiset, nothing lost.
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, sorted);
}

TEST(SelectQuantiles, ContractsEnforced) {
  std::vector<double> empty;
  const double half[] = {0.5};
  EXPECT_THROW(select_quantiles(empty, half), ContractViolation);
  std::vector<double> one{1.0};
  const double bad[] = {1.5};
  EXPECT_THROW(select_quantiles(one, bad), ContractViolation);
  EXPECT_THROW(select_quantiles(one, {}, -0.1), ContractViolation);
}

TEST(Histogram, BinsAndEdges) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);   // underflow
  h.add(0.0);    // bin 0
  h.add(1.99);   // bin 0
  h.add(2.0);    // bin 1
  h.add(9.99);   // bin 4
  h.add(10.0);   // overflow (right-open)
  h.add(100.0);  // overflow
  EXPECT_EQ(h.total(), 7u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(4), 1u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
}

TEST(Histogram, ContractsEnforced) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), ContractViolation);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), ContractViolation);
  Histogram h(0.0, 1.0, 2);
  EXPECT_THROW((void)h.bin_count(2), ContractViolation);
}

class P2Accuracy : public ::testing::TestWithParam<double> {};

TEST_P(P2Accuracy, TracksExactQuantileOnUniform) {
  const double p = GetParam();
  P2Quantile estimator(p);
  Xoshiro256ss rng(4);
  std::vector<double> all;
  const int n = 50'000;
  all.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double x = to_unit_double(rng());
    estimator.add(x);
    all.push_back(x);
  }
  const double exact = quantile(all, p);
  EXPECT_NEAR(estimator.value(), exact, 0.01) << "p=" << p;
}

INSTANTIATE_TEST_SUITE_P(Levels, P2Accuracy, ::testing::Values(0.1, 0.5, 0.9, 0.95, 0.99));

TEST(P2Quantile, ExactBelowFiveSamples) {
  P2Quantile est(0.5);
  est.add(3.0);
  EXPECT_DOUBLE_EQ(est.value(), 3.0);
  est.add(1.0);
  EXPECT_DOUBLE_EQ(est.value(), 2.0);  // median of {1,3}
  est.add(2.0);
  EXPECT_DOUBLE_EQ(est.value(), 2.0);
}

TEST(P2Quantile, HeavyTailStillReasonable) {
  P2Quantile est(0.99);
  Xoshiro256ss rng(5);
  std::vector<double> all;
  for (int i = 0; i < 100'000; ++i) {
    const double x = std::pow(to_unit_double_open(rng()), -1.0 / 2.0);  // Pareto a=2
    est.add(x);
    all.push_back(x);
  }
  const double exact = quantile(all, 0.99);
  EXPECT_NEAR(est.value() / exact, 1.0, 0.15);
}

TEST(P2Quantile, RejectsDegenerateLevels) {
  EXPECT_THROW(P2Quantile(0.0), ContractViolation);
  EXPECT_THROW(P2Quantile(1.0), ContractViolation);
}

TEST(P2Quantile, ExactAtFiveSamplesEvenNearTheEdges) {
  // Through the 5th sample the markers ARE the sorted sample, so the
  // estimate must be the exact type-7 quantile — including extreme levels,
  // where an off-by-one in the marker init shows up immediately.
  for (const double p : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    P2Quantile est(p);
    for (const double x : {3.0, 1.0, 5.0, 2.0, 4.0}) {
      est.add(x);
    }
    const std::vector<double> sorted{1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_DOUBLE_EQ(est.value(), quantile_sorted(sorted, p)) << "p = " << p;
  }
}

TEST(P2Quantile, ConstantStreamIsExact) {
  P2Quantile est(0.9);
  for (int i = 0; i < 10'000; ++i) {
    est.add(7.25);
  }
  EXPECT_DOUBLE_EQ(est.value(), 7.25);
}

TEST(P2Quantile, SortedStreamsStayNearTheOracle) {
  // Monotone arrival order is adversarial for marker-based estimators:
  // every new sample lands at the same end. The estimate should still
  // track the true quantile of the uniform grid closely.
  for (const bool descending : {false, true}) {
    std::vector<double> values(20'000);
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = static_cast<double>(i);
    }
    if (descending) {
      std::reverse(values.begin(), values.end());
    }
    for (const double p : {0.1, 0.5, 0.9}) {
      P2Quantile est(p);
      for (const double x : values) {
        est.add(x);
      }
      std::vector<double> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      const double exact = quantile_sorted(sorted, p);
      const double span = sorted.back() - sorted.front();
      EXPECT_NEAR(est.value(), exact, 0.05 * span)
          << "p = " << p << " descending = " << descending;
    }
  }
}

TEST(P2Quantile, DuplicateLadenStreamStaysWithinRange) {
  // A two-valued stream starves the interior markers of distinct heights;
  // the estimate must still stay inside the sample range.
  P2Quantile est(0.75);
  Xoshiro256ss rng(11);
  for (int i = 0; i < 50'000; ++i) {
    est.add(to_unit_double(rng()) < 0.9 ? 0.0 : 100.0);
  }
  EXPECT_GE(est.value(), 0.0);
  EXPECT_LE(est.value(), 100.0);
}

// ---------------------------------------------------------------------------
// Normal / Student-t quantiles — the CI machinery of core/adaptive
// ---------------------------------------------------------------------------

TEST(NormalQuantile, MatchesTabulatedValues) {
  EXPECT_NEAR(normal_quantile(0.975), 1.959963984540054, 1e-8);
  EXPECT_NEAR(normal_quantile(0.995), 2.575829303548901, 1e-8);
  EXPECT_NEAR(normal_quantile(0.95), 1.644853626951473, 1e-8);
  EXPECT_DOUBLE_EQ(normal_quantile(0.5), 0.0);
}

TEST(NormalQuantile, IsAntisymmetricAroundTheMedian) {
  for (const double p : {0.6, 0.9, 0.975, 0.999}) {
    EXPECT_NEAR(normal_quantile(p), -normal_quantile(1.0 - p), 1e-9) << "p = " << p;
  }
}

TEST(NormalQuantile, RejectsDegenerateLevels) {
  EXPECT_THROW(normal_quantile(0.0), ContractViolation);
  EXPECT_THROW(normal_quantile(1.0), ContractViolation);
}

TEST(StudentsTQuantile, ClosedFormsAtOneAndTwoDof) {
  // dof 1 is Cauchy, dof 2 has an algebraic inverse — both exact.
  EXPECT_NEAR(students_t_quantile(0.975, 1.0), 12.706204736174694, 1e-9);
  EXPECT_NEAR(students_t_quantile(0.975, 2.0), 4.302652729911275, 1e-9);
  EXPECT_NEAR(students_t_quantile(0.9, 1.0), 3.077683537175253, 1e-9);
}

TEST(StudentsTQuantile, TracksTablesAtModerateDof) {
  // Cornish–Fisher territory: ~1% of the tabulated two-sided 95% points.
  EXPECT_NEAR(students_t_quantile(0.975, 10.0), 2.228, 0.03);
  EXPECT_NEAR(students_t_quantile(0.975, 30.0), 2.042, 0.02);
  EXPECT_NEAR(students_t_quantile(0.975, 120.0), 1.980, 0.01);
}

TEST(StudentsTQuantile, ApproachesTheNormalAsDofGrows) {
  EXPECT_NEAR(students_t_quantile(0.975, 1e6), normal_quantile(0.975), 1e-4);
}

TEST(StudentsTQuantile, RejectsDegenerateInputs) {
  EXPECT_THROW(students_t_quantile(0.0, 10.0), ContractViolation);
  EXPECT_THROW(students_t_quantile(0.975, 0.5), ContractViolation);
}

TEST(BatchMeans, HalfWidthIsInfiniteUntilTwoBatches) {
  BatchMeans batches;
  EXPECT_TRUE(std::isinf(batches.half_width(0.95)));
  batches.add(1.0);
  EXPECT_TRUE(std::isinf(batches.half_width(0.95)));
  batches.add(2.0);
  EXPECT_TRUE(std::isfinite(batches.half_width(0.95)));
  EXPECT_DOUBLE_EQ(batches.mean(), 1.5);
}

TEST(BatchMeans, MatchesTheHandComputedTInterval) {
  BatchMeans batches;
  for (const double x : {10.0, 12.0, 14.0, 16.0}) {
    batches.add(x);
  }
  // s = sqrt(20/3), hw = t_{0.975,3} * s / sqrt(4).
  const double s = std::sqrt(20.0 / 3.0);
  const double expect = students_t_quantile(0.975, 3.0) * s / 2.0;
  EXPECT_NEAR(batches.half_width(0.95), expect, 1e-12);
}

TEST(BatchMeans, HalfWidthShrinksAsBatchesAccumulate) {
  // More i.i.d. batch values => tighter interval, monotonically across
  // 4 -> 16 -> 64 batches for this seeded stream.
  Xoshiro256ss rng(42);
  BatchMeans batches;
  std::vector<double> widths;
  std::uint64_t next_check = 4;
  for (int i = 1; i <= 64; ++i) {
    batches.add(to_unit_double(rng()));
    if (static_cast<std::uint64_t>(i) == next_check) {
      widths.push_back(batches.half_width(0.95));
      next_check *= 4;
    }
  }
  ASSERT_EQ(widths.size(), 3u);
  EXPECT_LT(widths[1], widths[0]);
  EXPECT_LT(widths[2], widths[1]);
}

}  // namespace
}  // namespace riskan
