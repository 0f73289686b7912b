#ifndef DNSTTL_CORE_BAILIWICK_EXPERIMENT_H
#define DNSTTL_CORE_BAILIWICK_EXPERIMENT_H

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "atlas/measurement.h"
#include "atlas/platform.h"
#include "core/world.h"
#include "stats/timeseries.h"

namespace dnsttl::core {

/// Configuration of the §4 renumbering experiments on sub.cachetest.net.
struct BailiwickConfig {
  bool in_bailiwick = true;  ///< ns inside the served zone vs out of it
  dns::Ttl ns_ttl = dns::kTtl1Hour;
  dns::Ttl a_ttl = dns::kTtl2Hours;

  /// VP shard to run (see atlas::MeasurementSpec sharding); the defaults
  /// keep the historical single-shard behavior.
  std::size_t shard_count = 1;
  std::size_t shard_index = 0;
};

/// Per-VP behavior over the run.  A VP is keyed by (probe id, resolver
/// slot) so the same key identifies the same VP across the in- and
/// out-of-bailiwick experiments (§4.5's matched-VP analysis).
struct VpBehavior {
  int probe_id = 0;
  int slot = 0;
  net::Address resolver;
  std::size_t responses = 0;
  std::size_t old_responses = 0;
  std::size_t new_responses = 0;
  bool answered_first_round = false;
  std::optional<double> first_new_minute;

  double new_ratio() const {
    return responses == 0
               ? 0.0
               : static_cast<double>(new_responses) /
                     static_cast<double>(responses);
  }
  /// The paper's sticky definition (§4.4): present from the first round and
  /// never leaves the original server.
  bool sticky() const {
    return answered_first_round && responses > 1 && new_responses == 0;
  }
};

struct BailiwickResult {
  atlas::MeasurementRun run;
  /// Responses per 10-minute bin from the original vs the renumbered
  /// server (Figures 6 and 7).
  stats::BinnedSeries series{10 * sim::kMinute};
  std::map<std::pair<int, int>, VpBehavior> vps;

  std::size_t sticky_vp_count() const;
  /// Resolver addresses used by sticky VPs (Table 4's resolver row).
  std::size_t sticky_resolver_count() const;
  /// Fraction of first-round VPs that had switched to the new server by
  /// @p minute (the "90% refresh at the NS expiry" headline).
  double switched_fraction_by(double minute) const;
};

/// Builds the cachetest.net testbed inside @p world, runs the renumbering
/// measurement on @p platform, and classifies every VP.
///
/// In-bailiwick: sub.cachetest.net served by ns3.sub.cachetest.net, with
/// NS/A TTLs equal in parent and child.  Out-of-bailiwick: served by
/// ns1.zurroundeddu.com (its own self-hosted zone under .com).  Nine
/// minutes in, a second server with changed answers comes up at a new
/// address and every parent/child pointer moves to it; the old server keeps
/// running with the old data, so sticky/parent-centric resolvers keep
/// receiving old answers — exactly the paper's setup.
BailiwickResult run_bailiwick(World& world, atlas::Platform& platform,
                              const BailiwickConfig& config);

/// Old/new answer markers (AAAA rdata) used for classification.
extern const char* const kOldAnswer;
extern const char* const kNewAnswer;

/// §4.4's sticky-resolver table and §4.5's matched-VP figure: behavior of
/// out-of-bailiwick-sticky VPs in the in-bailiwick run.
std::vector<double> matched_vp_new_ratios(const BailiwickResult& in_bailiwick,
                                          const BailiwickResult& out_bailiwick);

}  // namespace dnsttl::core

#endif  // DNSTTL_CORE_BAILIWICK_EXPERIMENT_H
