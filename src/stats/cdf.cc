#include "stats/cdf.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

namespace dnsttl::stats {

Cdf::Cdf(std::vector<double> samples) : samples_(std::move(samples)) {
  sorted_ = false;
  ensure_sorted();
}

void Cdf::add(double sample) {
  samples_.push_back(sample);
  sorted_ = false;
}

void Cdf::add(double sample, std::size_t count) {
  sorted_ = sorted_ && (samples_.empty() || samples_.back() <= sample);
  samples_.insert(samples_.end(), count, sample);
}

void Cdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Cdf::min() const {
  if (empty()) throw std::logic_error("Cdf::min on empty distribution");
  ensure_sorted();
  return samples_.front();
}

double Cdf::max() const {
  if (empty()) throw std::logic_error("Cdf::max on empty distribution");
  ensure_sorted();
  return samples_.back();
}

double Cdf::mean() const {
  if (empty()) throw std::logic_error("Cdf::mean on empty distribution");
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double Cdf::quantile(double q) const {
  if (empty()) throw std::logic_error("Cdf::quantile on empty distribution");
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("quantile must be in [0, 1]");
  }
  ensure_sorted();
  if (samples_.size() == 1) return samples_.front();
  double position = q * static_cast<double>(samples_.size() - 1);
  std::size_t lo = static_cast<std::size_t>(position);
  std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  double frac = position - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double Cdf::fraction_at_most(double value) const {
  if (empty()) return 0.0;
  ensure_sorted();
  auto it = std::upper_bound(samples_.begin(), samples_.end(), value);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double Cdf::fraction_below(double value) const {
  if (empty()) return 0.0;
  ensure_sorted();
  auto it = std::lower_bound(samples_.begin(), samples_.end(), value);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double Cdf::fraction_equal(double value) const {
  return fraction_at_most(value + 1e-9) - fraction_below(value - 1e-9);
}

std::vector<std::pair<double, double>> Cdf::curve() const {
  ensure_sorted();
  std::vector<std::pair<double, double>> points;
  const double n = static_cast<double>(samples_.size());
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    bool last_of_value =
        (i + 1 == samples_.size()) || samples_[i + 1] != samples_[i];
    if (last_of_value) {
      points.emplace_back(samples_[i], static_cast<double>(i + 1) / n);
    }
  }
  return points;
}

std::string Cdf::render(const std::vector<double>& probe_points,
                        const std::string& label) const {
  std::string out = "# CDF " + label + " (n=" + std::to_string(count()) + ")\n";
  char buf[96];
  for (double p : probe_points) {
    std::snprintf(buf, sizeof(buf), "%12.1f %8.4f\n", p, fraction_at_most(p));
    out += buf;
  }
  return out;
}

std::string Cdf::sparkline(std::size_t buckets) const {
  if (empty() || buckets == 0) return "";
  ensure_sorted();
  static const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  double lo = samples_.front();
  double hi = samples_.back();
  if (hi <= lo) hi = lo + 1.0;
  std::vector<std::size_t> counts(buckets, 0);
  for (double s : samples_) {
    auto b = static_cast<std::size_t>((s - lo) / (hi - lo) *
                                      static_cast<double>(buckets));
    counts[std::min(b, buckets - 1)]++;
  }
  std::size_t peak = *std::max_element(counts.begin(), counts.end());
  std::string out;
  for (std::size_t c : counts) {
    std::size_t level =
        peak == 0 ? 0 : (c * 7 + peak - 1) / peak;  // ceil to 0..7
    out += kLevels[std::min<std::size_t>(level, 7)];
  }
  return out;
}

const std::vector<double>& Cdf::sorted_samples() const {
  ensure_sorted();
  return samples_;
}

std::string percentile_summary(const Cdf& cdf, const std::string& unit) {
  if (cdf.empty()) return "(no samples)";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "p50=%.2f%s p75=%.2f%s p95=%.2f%s p99=%.2f%s (n=%zu)",
                cdf.quantile(0.50), unit.c_str(), cdf.quantile(0.75),
                unit.c_str(), cdf.quantile(0.95), unit.c_str(),
                cdf.quantile(0.99), unit.c_str(), cdf.count());
  return buf;
}

double ks_statistic(const Cdf& a, const Cdf& b) {
  if (a.empty() || b.empty()) {
    throw std::logic_error("ks_statistic needs two non-empty distributions");
  }
  const auto& sa = a.sorted_samples();
  const auto& sb = b.sorted_samples();
  double na = static_cast<double>(sa.size());
  double nb = static_cast<double>(sb.size());
  std::size_t ia = 0;
  std::size_t ib = 0;
  double best = 0.0;
  while (ia < sa.size() && ib < sb.size()) {
    double x = std::min(sa[ia], sb[ib]);
    while (ia < sa.size() && sa[ia] <= x) ++ia;
    while (ib < sb.size() && sb[ib] <= x) ++ib;
    best = std::max(best, std::abs(static_cast<double>(ia) / na -
                                   static_cast<double>(ib) / nb));
  }
  return best;
}

}  // namespace dnsttl::stats
