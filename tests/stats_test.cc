#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "stats/cdf.h"
#include "stats/table.h"
#include "stats/timeseries.h"

namespace dnsttl::stats {
namespace {

TEST(CdfTest, BasicMoments) {
  Cdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(cdf.count(), 4u);
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 4.0);
  EXPECT_DOUBLE_EQ(cdf.mean(), 2.5);
}

TEST(CdfTest, QuantilesInterpolate) {
  Cdf cdf({0.0, 10.0});
  EXPECT_DOUBLE_EQ(cdf.median(), 5.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 2.5);
}

TEST(CdfTest, SingleSampleQuantile) {
  Cdf cdf({7.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.99), 7.0);
}

TEST(CdfTest, EmptyThrows) {
  Cdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_THROW(cdf.median(), std::logic_error);
  EXPECT_THROW(cdf.min(), std::logic_error);
  EXPECT_THROW(cdf.mean(), std::logic_error);
  EXPECT_THROW(Cdf({1.0}).quantile(1.5), std::invalid_argument);
}

TEST(CdfTest, FractionQueries) {
  Cdf cdf({100, 200, 300, 300, 400});
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(300), 0.8);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(300), 0.4);
  EXPECT_DOUBLE_EQ(cdf.fraction_equal(300), 0.4);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(99), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(1000), 1.0);
}

TEST(CdfTest, AddAfterConstructionResorts) {
  Cdf cdf({5.0});
  cdf.add(1.0);
  cdf.add(9.0, 1);
  cdf.add(3.0, 2);  // a run below the largest sample
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 9.0);
  EXPECT_DOUBLE_EQ(cdf.median(), 3.0);
  EXPECT_EQ(cdf.count(), 5u);
}

TEST(CdfTest, CurveIsMonotone) {
  Cdf cdf({3, 1, 2, 2, 5, 4});
  auto curve = cdf.curve();
  ASSERT_FALSE(curve.empty());
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GT(curve[i].first, curve[i - 1].first);
    EXPECT_GT(curve[i].second, curve[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(CdfTest, RenderAndSparklineProduceOutput) {
  Cdf cdf({1, 2, 3});
  auto rendered = cdf.render({1.5, 2.5}, "test");
  EXPECT_NE(rendered.find("n=3"), std::string::npos);
  EXPECT_EQ(cdf.sparkline(10).size(), 10u);
  EXPECT_NE(percentile_summary(cdf, "ms").find("p50="), std::string::npos);
  EXPECT_EQ(percentile_summary(Cdf{}, "ms"), "(no samples)");
}

// ----------------------------------------- differential test against runs

/// The distribution Cdf's runs replaced: one double per sample, sorted
/// before every rank query.  Each query below is that implementation's
/// algorithm, so Cdf must return the same bits.
class SampleVector {
 public:
  void add(double sample, std::size_t count) {
    samples_.insert(samples_.end(), count, sample);
  }
  void merge(const SampleVector& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }
  std::size_t count() const { return samples_.size(); }
  const std::vector<double>& sorted() const {
    std::sort(samples_.begin(), samples_.end());
    return samples_;
  }
  double mean() const {
    return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
           static_cast<double>(samples_.size());
  }
  double mean_abs() const {
    double sum = 0.0;
    for (double sample : samples_) sum += std::abs(sample);
    return sum / static_cast<double>(samples_.size());
  }
  double quantile(double q) const {
    const auto& s = sorted();
    if (s.size() == 1) return s.front();
    double position = q * static_cast<double>(s.size() - 1);
    std::size_t lo = static_cast<std::size_t>(position);
    std::size_t hi = std::min(lo + 1, s.size() - 1);
    double frac = position - static_cast<double>(lo);
    return s[lo] * (1.0 - frac) + s[hi] * frac;
  }
  double fraction_at_most(double value) const {
    const auto& s = sorted();
    return static_cast<double>(std::upper_bound(s.begin(), s.end(), value) -
                               s.begin()) /
           static_cast<double>(s.size());
  }
  double fraction_below(double value) const {
    const auto& s = sorted();
    return static_cast<double>(std::lower_bound(s.begin(), s.end(), value) -
                               s.begin()) /
           static_cast<double>(s.size());
  }
  double fraction_equal(double value) const {
    return fraction_at_most(value + 1e-9) - fraction_below(value - 1e-9);
  }
  std::vector<std::pair<double, double>> curve() const {
    const auto& s = sorted();
    std::vector<std::pair<double, double>> points;
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (i + 1 == s.size() || s[i + 1] != s[i]) {
        points.emplace_back(s[i], static_cast<double>(i + 1) /
                                      static_cast<double>(s.size()));
      }
    }
    return points;
  }
  std::string sparkline(std::size_t buckets) const {
    static const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
    const auto& s = sorted();
    double lo = s.front();
    double hi = s.back();
    if (hi <= lo) hi = lo + 1.0;
    std::vector<std::size_t> counts(buckets, 0);
    for (double sample : s) {
      auto b = static_cast<std::size_t>((sample - lo) / (hi - lo) *
                                        static_cast<double>(buckets));
      counts[std::min(b, buckets - 1)]++;
    }
    std::size_t peak = *std::max_element(counts.begin(), counts.end());
    std::string out;
    for (std::size_t c : counts) {
      std::size_t level = peak == 0 ? 0 : (c * 7 + peak - 1) / peak;
      out += kLevels[std::min<std::size_t>(level, 7)];
    }
    return out;
  }
  std::vector<Cdf::Run> runs() const {
    std::vector<Cdf::Run> runs;
    for (double sample : sorted()) {
      if (runs.empty() || runs.back().value != sample) {
        runs.push_back({sample, 0});
      }
      ++runs.back().count;
    }
    return runs;
  }

 private:
  mutable std::vector<double> samples_;
};

double sample_vector_ks(const SampleVector& a, const SampleVector& b) {
  const auto& sa = a.sorted();
  const auto& sb = b.sorted();
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

void expect_same_bits(double got, double want, const char* query,
                      double at) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << query << "(" << at << "): " << got << " vs " << want;
}

/// Every query of @p cdf against @p oracle, bit for bit (the mean, whose
/// summation order differs, to 1e-12 of the mean magnitude).
void expect_same(const Cdf& cdf, const SampleVector& oracle) {
  ASSERT_EQ(cdf.count(), oracle.count());
  EXPECT_NO_THROW(cdf.validate());
  if (oracle.count() == 0) {
    EXPECT_TRUE(cdf.empty());
    return;
  }
  const auto& sorted = oracle.sorted();
  expect_same_bits(cdf.min(), sorted.front(), "min", 0);
  expect_same_bits(cdf.max(), sorted.back(), "max", 0);
  EXPECT_NEAR(cdf.mean(), oracle.mean(), 1e-12 * oracle.mean_abs());
  for (double q : {0.0, 0.01, 0.1, 0.25, 0.3, 0.5, 0.75, 0.9, 0.95, 0.99,
                   1.0}) {
    expect_same_bits(cdf.quantile(q), oracle.quantile(q), "quantile", q);
  }
  // Probe every distinct value (at most ~50 of them), halfway to its
  // neighbours, and beyond both ends.
  const auto runs = oracle.runs();
  std::vector<double> probes = {sorted.front() - 1.0, sorted.back() + 1.0};
  const std::size_t step = std::max<std::size_t>(1, runs.size() / 50);
  for (std::size_t i = 0; i < runs.size(); i += step) {
    probes.push_back(runs[i].value);
    if (i + 1 < runs.size()) {
      probes.push_back((runs[i].value + runs[i + 1].value) / 2);
    }
  }
  for (double probe : probes) {
    expect_same_bits(cdf.fraction_at_most(probe),
                     oracle.fraction_at_most(probe), "fraction_at_most",
                     probe);
    expect_same_bits(cdf.fraction_below(probe), oracle.fraction_below(probe),
                     "fraction_below", probe);
    expect_same_bits(cdf.fraction_equal(probe), oracle.fraction_equal(probe),
                     "fraction_equal", probe);
  }
  const auto curve = cdf.curve();
  const auto want_curve = oracle.curve();
  ASSERT_EQ(curve.size(), want_curve.size());
  for (std::size_t i = 0; i < curve.size(); ++i) {
    expect_same_bits(curve[i].first, want_curve[i].first, "curve value", 0);
    expect_same_bits(curve[i].second, want_curve[i].second, "curve fraction",
                     curve[i].first);
  }
  EXPECT_EQ(cdf.sparkline(40), oracle.sparkline(40));
  EXPECT_EQ(cdf.sparkline(7), oracle.sparkline(7));
  EXPECT_EQ(cdf.runs(), runs);
}

enum class Values { kTtlGrid, kMostlyDistinct, kTiesZeroNegative };

double draw(Values kind, sim::Rng& rng) {
  static const double kGrid[] = {0,     60,    300,   600,   900,    3600,
                                 7200,  14400, 21599, 43200, 86400,  172800};
  static const double kTies[] = {-7.5, -1.0, -1.0, -0.25, 0.0, 0.0, 0.0,
                                 2.0,  2.0,  3.5};
  switch (kind) {
    case Values::kTtlGrid:
      return kGrid[rng.uniform_int(0, std::size(kGrid) - 1)];
    case Values::kMostlyDistinct:
      return rng.uniform(0.0, 500.0);
    case Values::kTiesZeroNegative:
      break;
  }
  return kTies[rng.uniform_int(0, std::size(kTies) - 1)];
}

/// Adds @p n random samples (single and counted, counts 0..5) to both.
void add_random(Values kind, sim::Rng& rng, std::size_t n, Cdf& cdf,
                SampleVector& oracle) {
  for (std::size_t i = 0; i < n; ++i) {
    const double value = draw(kind, rng);
    if (rng.chance(0.7)) {
      cdf.add(value);
      oracle.add(value, 1);
    } else {
      const std::size_t count = rng.uniform_int(0, 5);
      cdf.add(value, count);
      oracle.add(value, count);
    }
  }
}

TEST(CdfDifferentialTest, RunsAnswerEveryQueryAsTheSortedSamplesDid) {
  Cdf previous;
  SampleVector previous_oracle;
  for (Values kind : {Values::kTtlGrid, Values::kMostlyDistinct,
                      Values::kTiesZeroNegative}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) +
                   " seed " + std::to_string(seed));
      sim::Rng rng(seed);
      Cdf cdf;
      SampleVector oracle;
      if (rng.chance(0.5)) {  // start from the sorting constructor
        std::vector<double> samples;
        for (std::size_t i = rng.uniform_int(1, 200); i > 0; --i) {
          samples.push_back(draw(kind, rng));
          oracle.add(samples.back(), 1);
        }
        cdf = Cdf(samples);
      }
      for (int op = 0; op < 300; ++op) {
        const std::uint64_t pick = rng.uniform_int(0, 99);
        if (pick < 80) {
          add_random(kind, rng, 1, cdf, oracle);
        } else if (pick < 92) {
          Cdf other;
          SampleVector other_oracle;
          add_random(kind, rng, rng.uniform_int(0, 40), other, other_oracle);
          cdf.merge(other);
          oracle.merge(other_oracle);
        } else {
          expect_same(cdf, oracle);
        }
      }
      expect_same(cdf, oracle);
      if (!previous.empty() && !cdf.empty()) {
        expect_same_bits(ks_statistic(cdf, previous),
                         sample_vector_ks(oracle, previous_oracle),
                         "ks_statistic", 0);
      }
      previous = cdf;
      previous_oracle = oracle;
    }
  }
}

TEST(TableTest, RendersAlignedColumns) {
  TablePrinter table({"name", "value"});
  table.add_row({"short", "1"});
  table.add_row({"a-much-longer-name", "22222"});
  std::string out = table.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("a-much-longer-name"), std::string::npos);
  // Header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(TableTest, FmtFormats) {
  EXPECT_EQ(fmt("%d%%", 42), "42%");
  EXPECT_EQ(fmt("%.2f ms", 1.2345), "1.23 ms");
}

TEST(TableTest, CompareLine) {
  auto line = compare_line("median RTT", "28.7ms", "30.1ms");
  EXPECT_NE(line.find("paper=28.7ms"), std::string::npos);
  EXPECT_NE(line.find("measured=30.1ms"), std::string::npos);
}

TEST(BinnedSeriesTest, BinsEventsByTime) {
  BinnedSeries series(10 * sim::kMinute);
  series.record("original", sim::at(5 * sim::kMinute));
  series.record("original", sim::at(9 * sim::kMinute));
  series.record("new", sim::at(15 * sim::kMinute));
  EXPECT_EQ(series.bin_count(), 2u);
  EXPECT_DOUBLE_EQ(series.at("original", 0), 2.0);
  EXPECT_DOUBLE_EQ(series.at("original", 1), 0.0);
  EXPECT_DOUBLE_EQ(series.at("new", 1), 1.0);
  EXPECT_DOUBLE_EQ(series.at("absent", 0), 0.0);
}

TEST(BinnedSeriesTest, RenderContainsSeriesHeaders) {
  BinnedSeries series(10 * sim::kMinute);
  series.record("original", sim::Time{});
  series.record("new", sim::at(70 * sim::kMinute));
  std::string out = series.render();
  EXPECT_NE(out.find("original"), std::string::npos);
  EXPECT_NE(out.find("new"), std::string::npos);
  EXPECT_EQ(series.series_names().size(), 2u);
}

TEST(BinnedSeriesTest, WeightedValues) {
  BinnedSeries series(sim::kMinute);
  series.record("load", sim::at(30 * sim::kSecond), 2.5);
  series.record("load", sim::at(45 * sim::kSecond), 1.5);
  EXPECT_DOUBLE_EQ(series.at("load", 0), 4.0);
}

}  // namespace
}  // namespace dnsttl::stats
