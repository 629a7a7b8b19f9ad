#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/require.hpp"

namespace riskan {

void OnlineStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::merge(const OnlineStats& other) noexcept {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  sum_ += other.sum_;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::variance() const noexcept {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
}

double OnlineStats::sample_variance() const noexcept {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stdev() const noexcept {
  return std::sqrt(variance());
}

namespace {

/// The ranks quantile_sorted reads at level p over n values: the lower one
/// and the next, or the top one alone.
struct QuantileRanks {
  std::size_t lo;
  std::size_t hi;
};

QuantileRanks quantile_ranks(std::size_t n, double p) {
  RISKAN_REQUIRE(p >= 0.0 && p <= 1.0, "quantile level must lie in [0,1]");
  if (n == 1) {
    return {0, 0};
  }
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(n - 1));
  if (idx + 1 >= n) {
    return {n - 1, n - 1};
  }
  return {idx, idx + 1};
}

}  // namespace

double quantile(std::span<const double> values, double p) {
  RISKAN_REQUIRE(!values.empty(), "quantile of empty sample");
  std::vector<double> copy(values.begin(), values.end());
  const double levels[] = {p};
  select_quantiles(copy, levels);
  return quantile_sorted(copy, p);
}

double quantile_sorted(std::span<const double> sorted, double p) {
  RISKAN_REQUIRE(!sorted.empty(), "quantile of empty sample");
  const auto [lo, hi] = quantile_ranks(sorted.size(), p);
  if (lo == hi) {
    return sorted[lo];
  }
  const double h = p * static_cast<double>(sorted.size() - 1);
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double tail_mean_above(std::span<const double> sorted, double p) {
  RISKAN_REQUIRE(!sorted.empty(), "tail_mean_above of empty sample");
  const double var = quantile_sorted(sorted, p);
  double sum = 0.0;
  std::size_t n = 0;
  for (auto it = sorted.rbegin(); it != sorted.rend() && *it > var; ++it) {
    sum += *it;
    ++n;
  }
  return n == 0 ? var : sum / static_cast<double>(n);
}

void select_quantiles(std::span<double> values, std::span<const double> levels,
                      std::optional<double> tail_level) {
  RISKAN_REQUIRE(!values.empty(), "quantile of empty sample");
  const std::size_t n = values.size();
  const auto first = values.begin();
  // Place the wanted ranks in ascending order. Once rank r is placed, every
  // value above it is no smaller, so the next rank is a selection over
  // [r + 1, n) alone: the ranges shrink as the levels rise. The level lists
  // are short, so the next rank is found by a scan, with no allocation.
  std::size_t from = 0;
  for (;;) {
    std::size_t next = n;
    const auto consider = [&](double p) {
      const auto [lo, hi] = quantile_ranks(n, p);
      if (lo >= from) {
        next = std::min(next, lo);
      } else if (hi >= from) {
        next = std::min(next, hi);
      }
    };
    for (const double p : levels) {
      consider(p);
    }
    if (tail_level) {
      consider(*tail_level);
    }
    if (next == n) {
      break;
    }
    if (next == from) {
      // The minimum of the rest: one pass (a level's upper rank is the one
      // right after its lower rank).
      std::iter_swap(first + from, std::min_element(first + from, values.end()));
    } else {
      std::nth_element(first + from, first + next, values.end());
    }
    from = next + 1;
  }
  if (tail_level) {
    // tail_mean_above walks down from the top while values exceed the
    // quantile, which never reads below the lower rank.
    std::sort(first + quantile_ranks(n, *tail_level).lo + 1, values.end());
  }
}

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), counts_(bins, 0) {
  RISKAN_REQUIRE(bins > 0, "histogram needs at least one bin");
  RISKAN_REQUIRE(hi > lo, "histogram range must be non-empty");
  width_ = (hi - lo) / static_cast<double>(bins);
}

void Histogram::add(double x) noexcept {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  const auto bin = static_cast<std::size_t>((x - lo_) / width_);
  if (bin >= counts_.size()) {
    ++overflow_;
    return;
  }
  ++counts_[bin];
}

std::uint64_t Histogram::bin_count(std::size_t i) const {
  RISKAN_REQUIRE(i < counts_.size(), "histogram bin out of range");
  return counts_[i];
}

double Histogram::bin_lo(std::size_t i) const {
  RISKAN_REQUIRE(i < counts_.size(), "histogram bin out of range");
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bin_hi(std::size_t i) const {
  return bin_lo(i) + width_;
}

P2Quantile::P2Quantile(double p) : p_(p) {
  RISKAN_REQUIRE(p > 0.0 && p < 1.0, "P2 quantile level must lie in (0,1)");
  desired_[0] = 1.0;
  desired_[1] = 1.0 + 2.0 * p;
  desired_[2] = 1.0 + 4.0 * p;
  desired_[3] = 3.0 + 2.0 * p;
  desired_[4] = 5.0;
  increments_[0] = 0.0;
  increments_[1] = p / 2.0;
  increments_[2] = p;
  increments_[3] = (1.0 + p) / 2.0;
  increments_[4] = 1.0;
}

void P2Quantile::add(double x) noexcept {
  if (count_ < 5) {
    heights_[count_] = x;
    ++count_;
    if (count_ == 5) {
      std::sort(heights_, heights_ + 5);
      for (int i = 0; i < 5; ++i) {
        positions_[i] = static_cast<double>(i + 1);
      }
    }
    return;
  }
  ++count_;

  int cell;
  if (x < heights_[0]) {
    heights_[0] = x;
    cell = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    cell = 3;
  } else {
    cell = 0;
    while (cell < 3 && x >= heights_[cell + 1]) {
      ++cell;
    }
  }

  for (int i = cell + 1; i < 5; ++i) {
    positions_[i] += 1.0;
  }
  for (int i = 0; i < 5; ++i) {
    desired_[i] += increments_[i];
  }

  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const double right_gap = positions_[i + 1] - positions_[i];
    const double left_gap = positions_[i - 1] - positions_[i];
    if ((d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0)) {
      const double sign = d >= 0 ? 1.0 : -1.0;
      // Piecewise-parabolic prediction.
      const double np = positions_[i] + sign;
      const double q =
          heights_[i] +
          sign / (positions_[i + 1] - positions_[i - 1]) *
              ((positions_[i] - positions_[i - 1] + sign) * (heights_[i + 1] - heights_[i]) /
                   (positions_[i + 1] - positions_[i]) +
               (positions_[i + 1] - positions_[i] - sign) * (heights_[i] - heights_[i - 1]) /
                   (positions_[i] - positions_[i - 1]));
      if (heights_[i - 1] < q && q < heights_[i + 1]) {
        heights_[i] = q;
      } else {
        // Fall back to linear prediction toward the neighbour.
        const int j = sign > 0 ? i + 1 : i - 1;
        heights_[i] += sign * (heights_[j] - heights_[i]) / (positions_[j] - positions_[i]);
      }
      positions_[i] = np;
    }
  }
}

double P2Quantile::value() const noexcept {
  if (count_ == 0) {
    return 0.0;
  }
  if (count_ <= 5) {
    // Exact quantile over the few samples seen so far. The <= is load-
    // bearing: at exactly 5 samples the markers are still the sorted
    // sample, and returning heights_[2] (the median marker) regardless of
    // p — the pre-fix behaviour — was a cliff at p near 0 or 1.
    double copy[5];
    std::copy(heights_, heights_ + count_, copy);
    std::sort(copy, copy + count_);
    const double h = p_ * static_cast<double>(count_ - 1);
    const auto idx = static_cast<std::size_t>(h);
    if (idx + 1 >= count_) {
      return copy[count_ - 1];
    }
    return copy[idx] + (h - static_cast<double>(idx)) * (copy[idx + 1] - copy[idx]);
  }
  return heights_[2];
}

double normal_quantile(double p) {
  RISKAN_REQUIRE(p > 0.0 && p < 1.0, "normal quantile level must lie in (0,1)");
  // Acklam's rational approximation with the canonical coefficients.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - p_low) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

double students_t_quantile(double p, double dof) {
  RISKAN_REQUIRE(p > 0.0 && p < 1.0, "t quantile level must lie in (0,1)");
  RISKAN_REQUIRE(dof >= 1.0, "t quantile needs at least 1 degree of freedom");
  if (dof == 1.0) {
    // Cauchy.
    constexpr double pi = 3.14159265358979323846;
    return std::tan(pi * (p - 0.5));
  }
  if (dof == 2.0) {
    return (2.0 * p - 1.0) / std::sqrt(2.0 * p * (1.0 - p));
  }
  // Cornish–Fisher expansion about the normal quantile (Abramowitz &
  // Stegun 26.7.5, through the 1/dof^3 term).
  const double z = normal_quantile(p);
  const double z3 = z * z * z;
  const double z5 = z3 * z * z;
  const double z7 = z5 * z * z;
  const double v = dof;
  return z + (z3 + z) / (4.0 * v) + (5.0 * z5 + 16.0 * z3 + 3.0 * z) / (96.0 * v * v) +
         (3.0 * z7 + 19.0 * z5 + 17.0 * z3 - 15.0 * z) / (384.0 * v * v * v);
}

double BatchMeans::half_width(double confidence) const {
  RISKAN_REQUIRE(confidence > 0.0 && confidence < 1.0,
                 "confidence level must lie in (0,1)");
  if (stats_.count() < 2) {
    return std::numeric_limits<double>::infinity();
  }
  const double n = static_cast<double>(stats_.count());
  const double t = students_t_quantile(0.5 + confidence / 2.0, n - 1.0);
  return t * std::sqrt(stats_.sample_variance() / n);
}

}  // namespace riskan
