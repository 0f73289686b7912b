#ifndef DNSTTL_CRAWL_DMAP_H
#define DNSTTL_CRAWL_DMAP_H

#include <map>

#include "crawl/population_generator.h"

namespace dnsttl::crawl {

/// DMap-style content analysis of a `.nl`-like population (§5.1.1):
/// how many domains fall in each web-content class, and the median TTL per
/// class and record type (Tables 6 and 7).  Produced by crawl_engine() with
/// EngineOptions::collect_content set.
struct DmapReport {
  std::map<ContentClass, std::size_t> class_counts;
  /// median TTL in hours per (class, type) — Table 7's cells.
  std::map<std::pair<ContentClass, dns::RRType>, double> median_ttl_hours;

  std::size_t total_classified() const;
};

}  // namespace dnsttl::crawl

#endif  // DNSTTL_CRAWL_DMAP_H
