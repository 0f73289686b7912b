#ifndef DNSTTL_STATS_CDF_H
#define DNSTTL_STATS_CDF_H

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace dnsttl::stats {

/// An empirical distribution: collects samples, answers quantile/CDF
/// queries, and renders the fixed-point summaries the paper's figures use.
///
/// Samples are kept as ascending (value, count) runs, so memory follows the
/// number of distinct values, not of samples: a crawl's TTLs fall on a
/// few grid values however many records it harvests.  Queries read the
/// same ranks a sorted vector of every sample would, so they return the
/// same doubles, and being const they only read.
class Cdf {
 public:
  /// @p count samples of @p value.
  struct Run {
    double value = 0.0;
    std::size_t count = 0;
    bool operator==(const Run&) const = default;
  };

  Cdf() = default;
  /// Sorts @p samples once and keeps them as runs: the way to build a
  /// distribution of mostly distinct values (RTTs, counted-down TTLs),
  /// each of which add() would insert into the middle of the runs.
  explicit Cdf(std::vector<double> samples);

  void add(double sample) { add(sample, 1); }
  /// Adds @p count copies of @p sample: a binary search, then a bump of
  /// its run or an insert of a new one, so it suits samples that repeat.
  /// Every caller's do; distinct values at seed 1, `--full` / `--scale 10`:
  /// a crawl's TTLs per list and type at most 11 / 11, a DMap cell's 5 / 5,
  /// Fig 3's queries per group 58 / 102, child/parent NS TTL ratios 11 / 11.
  void add(double sample, std::size_t count);
  /// Adds every sample of @p other, which must not be this distribution.
  void merge(const Cdf& other);

  std::size_t count() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  double min() const;
  double max() const;
  double mean() const;

  /// Quantile with linear interpolation; @p q in [0, 1].
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

  /// Fraction of samples <= @p value (the CDF evaluated at @p value).
  double fraction_at_most(double value) const { return fraction(value, true); }
  /// Fraction of samples < @p value.
  double fraction_below(double value) const { return fraction(value, false); }
  /// Fraction of samples == @p value (within 1e-9).
  double fraction_equal(double value) const;

  /// (value, cumulative fraction) pairs at each distinct sample value —
  /// a gnuplot-ready CDF curve.
  std::vector<std::pair<double, double>> curve() const;

  /// Renders the CDF as rows "value fraction" for the given probe points.
  std::string render(const std::vector<double>& probe_points,
                     const std::string& label) const;

  /// ASCII sparkline of the distribution across @p buckets (for bench
  /// output readability).
  std::string sparkline(std::size_t buckets = 40) const;

  /// One run per distinct value, in ascending order of value.
  const std::vector<Run>& runs() const noexcept { return runs_; }

  /// Audits the runs: they ascend strictly, every count is at least 1,
  /// and the counts sum to count().  Throws check::AuditError on the first
  /// broken invariant.
  void validate() const;

 private:
  /// The sample at @p rank (0-based, below count()) in ascending order.
  double at_rank(std::size_t rank) const;
  /// Fraction of samples below @p value, or at most @p value when
  /// @p inclusive.
  double fraction(double value, bool inclusive) const;

  std::vector<Run> runs_;  ///< strictly ascending by value
  std::size_t count_ = 0;
};

/// Convenience: percentile summary line "p50=... p75=... p95=... p99=...".
std::string percentile_summary(const Cdf& cdf, const std::string& unit);

/// Two-sample Kolmogorov-Smirnov statistic: sup_x |F_a(x) - F_b(x)|.
/// Used to quantify how closely a simulated distribution tracks a reference
/// (e.g. the analytic hit-rate model, or a digitized paper CDF).
double ks_statistic(const Cdf& a, const Cdf& b);

}  // namespace dnsttl::stats

#endif  // DNSTTL_STATS_CDF_H
