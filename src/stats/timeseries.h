#ifndef DNSTTL_STATS_TIMESERIES_H
#define DNSTTL_STATS_TIMESERIES_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/time.h"

namespace dnsttl::stats {

/// Counts events into fixed-width virtual-time bins per named series —
/// the structure behind the paper's Figure 6/7 stacked time series
/// ("responses from original vs new server per 10-minute bin").
class BinnedSeries {
 public:
  explicit BinnedSeries(sim::Duration bin_width) : bin_width_(bin_width) {}

  void record(const std::string& series, sim::Time at, double value = 1.0);

  /// Adds every bin of @p other into this series (bin widths must match).
  /// Bin sums are order-independent, so merging per-shard series in any
  /// order yields the same totals; callers still merge in shard order for
  /// uniformity with the rest of the deterministic-reduce machinery.
  void merge(const BinnedSeries& other);

  /// Number of bins covering all recorded events.
  std::size_t bin_count() const;

  /// Sum of @p series in bin @p index.
  double at(const std::string& series, std::size_t index) const;

  std::vector<std::string> series_names() const;

  /// Renders "minute  <series...>" rows (bin start in minutes).
  std::string render() const;

 private:
  sim::Duration bin_width_;
  std::map<std::string, std::map<std::size_t, double>> series_;
  std::size_t max_bin_ = 0;
};

}  // namespace dnsttl::stats

#endif  // DNSTTL_STATS_TIMESERIES_H
