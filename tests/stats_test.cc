#include <gtest/gtest.h>

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
