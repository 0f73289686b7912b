#include "stats/cdf.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "check/audit.h"

namespace dnsttl::stats {

namespace {

constexpr const char* kWhat = "stats::Cdf";

}  // namespace

Cdf::Cdf(std::vector<double> samples) : count_(samples.size()) {
  std::sort(samples.begin(), samples.end());
  for (double sample : samples) {
    if (runs_.empty() || runs_.back().value != sample) {
      runs_.push_back({sample, 0});
    }
    ++runs_.back().count;
  }
}

void Cdf::add(double sample, std::size_t count) {
  if (count == 0) return;
  count_ += count;
  const auto it = std::lower_bound(
      runs_.begin(), runs_.end(), sample,
      [](const Run& run, double value) { return run.value < value; });
  if (it != runs_.end() && it->value == sample) {
    it->count += count;
  } else {
    runs_.insert(it, {sample, count});
  }
}

void Cdf::merge(const Cdf& other) {
  for (const Run& run : other.runs_) {
    add(run.value, run.count);
  }
}

double Cdf::at_rank(std::size_t rank) const {
  auto run = runs_.begin();
  for (; rank >= run->count; ++run) {
    rank -= run->count;
  }
  return run->value;
}

double Cdf::fraction(double value, bool inclusive) const {
  if (empty()) return 0.0;
  std::size_t below = 0;
  for (const Run& run : runs_) {
    if (inclusive ? value < run.value : !(run.value < value)) break;
    below += run.count;
  }
  return static_cast<double>(below) / static_cast<double>(count_);
}

double Cdf::min() const {
  if (empty()) throw std::logic_error("Cdf::min on empty distribution");
  return runs_.front().value;
}

double Cdf::max() const {
  if (empty()) throw std::logic_error("Cdf::max on empty distribution");
  return runs_.back().value;
}

double Cdf::mean() const {
  if (empty()) throw std::logic_error("Cdf::mean on empty distribution");
  double sum = 0.0;
  for (const Run& run : runs_) {
    sum += run.value * static_cast<double>(run.count);
  }
  return sum / static_cast<double>(count_);
}

double Cdf::quantile(double q) const {
  if (empty()) throw std::logic_error("Cdf::quantile on empty distribution");
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("quantile must be in [0, 1]");
  }
  if (count_ == 1) return runs_.front().value;
  double position = q * static_cast<double>(count_ - 1);
  std::size_t lo = static_cast<std::size_t>(position);
  std::size_t hi = std::min(lo + 1, count_ - 1);
  double frac = position - static_cast<double>(lo);
  return at_rank(lo) * (1.0 - frac) + at_rank(hi) * frac;
}

double Cdf::fraction_equal(double value) const {
  return fraction_at_most(value + 1e-9) - fraction_below(value - 1e-9);
}

std::vector<std::pair<double, double>> Cdf::curve() const {
  std::vector<std::pair<double, double>> points;
  points.reserve(runs_.size());
  const double n = static_cast<double>(count_);
  std::size_t seen = 0;
  for (const Run& run : runs_) {
    seen += run.count;
    points.emplace_back(run.value, static_cast<double>(seen) / n);
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
  static const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  double lo = runs_.front().value;
  double hi = runs_.back().value;
  if (hi <= lo) hi = lo + 1.0;
  std::vector<std::size_t> counts(buckets, 0);
  for (const Run& run : runs_) {
    auto b = static_cast<std::size_t>((run.value - lo) / (hi - lo) *
                                      static_cast<double>(buckets));
    counts[std::min(b, buckets - 1)] += run.count;
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

void Cdf::validate() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    DNSTTL_AUDIT_CHECK(kWhat, runs_[i].count >= 1,
                       "run " + std::to_string(i) + " counts no sample");
    DNSTTL_AUDIT_CHECK(kWhat, i == 0 || runs_[i - 1].value < runs_[i].value,
                       "run " + std::to_string(i) + " does not ascend");
    total += runs_[i].count;
  }
  DNSTTL_AUDIT_CHECK(kWhat, total == count_,
                     "runs count " + std::to_string(total) + " samples, not " +
                         std::to_string(count_));
  check::count_audit();
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
  const auto& ra = a.runs();
  const auto& rb = b.runs();
  double na = static_cast<double>(a.count());
  double nb = static_cast<double>(b.count());
  std::size_t ia = 0;
  std::size_t ib = 0;
  std::size_t below_a = 0;  // samples of a at or below x
  std::size_t below_b = 0;
  double best = 0.0;
  while (ia < ra.size() && ib < rb.size()) {
    double x = std::min(ra[ia].value, rb[ib].value);
    if (ra[ia].value <= x) below_a += ra[ia++].count;
    if (rb[ib].value <= x) below_b += rb[ib++].count;
    best = std::max(best, std::abs(static_cast<double>(below_a) / na -
                                   static_cast<double>(below_b) / nb));
  }
  return best;
}

}  // namespace dnsttl::stats
