// Online and batch statistics used by metrics, benchmarks, and tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace riskan {

/// Welford online accumulator: numerically stable running mean/variance,
/// mergeable (parallel reductions combine partials with `merge`).
class OnlineStats {
 public:
  void add(double x) noexcept;

  /// Combines two accumulators (Chan et al. parallel variance update).
  void merge(const OnlineStats& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double mean() const noexcept { return mean_; }
  /// Population variance; 0 for fewer than 2 samples.
  double variance() const noexcept;
  /// Sample (n-1) variance; 0 for fewer than 2 samples.
  double sample_variance() const noexcept;
  double stdev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double sum() const noexcept { return sum_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact empirical quantile with linear interpolation (type-7, the
/// R/NumPy default). Selects on a copy (select_quantiles); O(n) expected.
double quantile(std::span<const double> values, double p);

/// Quantile over data the caller has already sorted ascending; O(1). Also
/// reads a span that select_quantiles prepared with `p` among its levels.
double quantile_sorted(std::span<const double> sorted, double p);

/// Mean of values strictly above the given threshold quantile — the building
/// block of TVaR. Returns the quantile itself when no value exceeds it.
/// Also reads a span that select_quantiles prepared with tail level `p`.
double tail_mean_above(std::span<const double> sorted, double p);

/// Selection in place of a full sort, for callers that read a few order
/// statistics (introselect, `std::nth_element`). Rearranges `values`, the
/// caller's scratch copy of a sample, so that every rank quantile_sorted
/// reads at each of `levels` holds its sorted-order value; a `tail_level`
/// has its ranks placed and every rank above them sorted. Then
/// quantile_sorted(values, p) for p in `levels`, and
/// tail_mean_above(values, *tail_level), return their sorted-copy results:
/// bit for bit whenever equal values share one bit pattern (no NaN, no
/// -0.0 beside +0.0), as in every loss table. O(n) expected, plus the sort
/// of the tail.
void select_quantiles(std::span<double> values, std::span<const double> levels,
                      std::optional<double> tail_level = std::nullopt);

/// Fixed-width histogram for diagnostics and distribution shape tests.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  std::uint64_t bin_count(std::size_t i) const;
  std::size_t bins() const noexcept { return counts_.size(); }
  std::uint64_t total() const noexcept { return total_; }
  std::uint64_t underflow() const noexcept { return underflow_; }
  std::uint64_t overflow() const noexcept { return overflow_; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;

 private:
  double lo_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
};

/// P² (Jain & Chlamtac) streaming quantile estimator: constant memory,
/// used where YLT-scale streams cannot be buffered (DFA terabyte claim).
class P2Quantile {
 public:
  explicit P2Quantile(double p);

  void add(double x) noexcept;
  /// Current estimate; exact through the first 5 samples (the markers ARE
  /// the sorted sample until the 6th arrival starts moving them).
  double value() const noexcept;
  std::uint64_t count() const noexcept { return count_; }

 private:
  double p_;
  std::uint64_t count_ = 0;
  double heights_[5] = {};
  double positions_[5] = {};
  double desired_[5] = {};
  double increments_[5] = {};
};

/// Standard normal quantile (inverse CDF), Acklam's rational approximation
/// (relative error < 1.2e-9 over (0,1)).
double normal_quantile(double p);

/// Student-t quantile at probability `p` with `dof` degrees of freedom.
/// Exact closed forms for dof 1 and 2; a Cornish–Fisher expansion of the
/// normal quantile above that (within ~1% of tabulated values at dof >= 3,
/// converging quickly with dof) — plenty for confidence-interval
/// construction, which is its one job here.
double students_t_quantile(double p, double dof);

/// Batch-means confidence intervals for a streaming estimator: feed one
/// value per batch (a trial block's sample metric) and read a Student-t
/// interval for the underlying mean. Batches of equal size over an i.i.d.
/// stream make the batch values i.i.d. themselves, so the t interval is
/// valid for nonlinear metrics (quantiles, tail means) where per-sample
/// CLT machinery is not — the classic MC simulation-output technique, and
/// the stopping oracle of core/adaptive.
class BatchMeans {
 public:
  void add(double batch_value) noexcept { stats_.add(batch_value); }

  std::uint64_t batches() const noexcept { return stats_.count(); }
  double mean() const noexcept { return stats_.mean(); }

  /// Two-sided CI half-width at `confidence` (e.g. 0.95); +infinity until
  /// 2 batches exist (no variance estimate yet).
  double half_width(double confidence) const;

 private:
  OnlineStats stats_;
};

}  // namespace riskan
