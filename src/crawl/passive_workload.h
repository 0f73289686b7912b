#ifndef DNSTTL_CRAWL_PASSIVE_WORKLOAD_H
#define DNSTTL_CRAWL_PASSIVE_WORKLOAD_H

#include <cstdint>

#include "core/world.h"
#include "stats/cdf.h"

namespace dnsttl::crawl {

/// Configuration of the §3.4 passive `.nl` reproduction: a resolver
/// population generates Poisson demand for names under .nl for two days;
/// the authoritative servers log queries; the analysis groups queries for
/// the NS-server address records by (resolver, qname).
struct PassiveConfig {
  std::size_t resolver_count = 20000;  ///< paper: 205k (scaled, see DESIGN)
  sim::Duration duration = 2 * sim::kDay;

  /// Per-resolver demand: lookups/day drawn Pareto (heavy tail — a few
  /// busy public resolvers, many quiet forwarders), capped at this rate.
  double demand_cap_per_day = 400.0;

  /// Ignored: run_passive_nl forks every stream from the World's Rng.  Kept
  /// only because perfbench/workloads.cc sets it.
  std::uint64_t seed = 42;
};

/// The Figure 3 / Figure 4 measurements.
struct PassiveReport {
  std::size_t client_queries = 0;       ///< demand generated
  std::size_t logged_queries = 0;       ///< seen at the 2 observed auths
  std::size_t unique_resolvers = 0;     ///< distinct sources at those auths
  std::size_t groups = 0;               ///< (resolver, ns-qname) pairs
  std::size_t single_query_groups = 0;  ///< the paper's 48%
  double single_fraction = 0.0;
  double multi_fraction = 0.0;
  /// Of single-query sources, the share also present in multi-query groups
  /// for another name (the paper's 14%).
  double single_ips_also_multi = 0.0;

  stats::Cdf queries_per_group;           ///< Figure 3, "all"
  stats::Cdf queries_per_group_filtered;  ///< Figure 3, interarrival > 2 s
  stats::Cdf min_interarrival_hours;      ///< Figure 4
};

/// Builds the .nl serving infrastructure (4 nameservers ns[1-4].dns.nl,
/// 2-day glue in the root, 1-hour child copies),
/// drives the demand, and analyzes the logs of servers 1 and 3 — observing
/// 2 of 4 authoritatives exactly as the paper did.
PassiveReport run_passive_nl(core::World& world, const PassiveConfig& config);

}  // namespace dnsttl::crawl

#endif  // DNSTTL_CRAWL_PASSIVE_WORKLOAD_H
