#ifndef DNSTTL_STATS_CDF_H
#define DNSTTL_STATS_CDF_H

#include <cstddef>
#include <string>
#include <vector>

namespace dnsttl::stats {

/// An empirical distribution: collects samples, answers quantile/CDF
/// queries, and renders the fixed-point summaries the paper's figures use.
class Cdf {
 public:
  Cdf() = default;
  explicit Cdf(std::vector<double> samples);

  void add(double sample);
  /// Appends @p count copies of @p sample.  Runs appended in ascending
  /// order keep the samples sorted, so no query sorts them again.
  void add(double sample, std::size_t count);
  void reserve(std::size_t samples) { samples_.reserve(samples); }

  std::size_t count() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }

  double min() const;
  double max() const;
  double mean() const;

  /// Quantile with linear interpolation; @p q in [0, 1].
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

  /// Fraction of samples <= @p value (the CDF evaluated at @p value).
  double fraction_at_most(double value) const;
  /// Fraction of samples < @p value.
  double fraction_below(double value) const;
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

  const std::vector<double>& sorted_samples() const;

 private:
  void ensure_sorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Convenience: percentile summary line "p50=... p75=... p95=... p99=...".
std::string percentile_summary(const Cdf& cdf, const std::string& unit);

/// Two-sample Kolmogorov-Smirnov statistic: sup_x |F_a(x) - F_b(x)|.
/// Used to quantify how closely a simulated distribution tracks a reference
/// (e.g. the analytic hit-rate model, or a digitized paper CDF).
double ks_statistic(const Cdf& a, const Cdf& b);

}  // namespace dnsttl::stats

#endif  // DNSTTL_STATS_CDF_H
