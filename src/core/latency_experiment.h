#ifndef DNSTTL_CORE_LATENCY_EXPERIMENT_H
#define DNSTTL_CORE_LATENCY_EXPERIMENT_H

#include <cstdint>
#include <string>

#include "atlas/measurement.h"
#include "atlas/platform.h"
#include "core/world.h"

namespace dnsttl::core {

/// The §6.2 controlled experiment: a test domain
/// (mapache-de-madrid.co) served from EC2 Frankfurt either unicast or via a
/// 45-site anycast cloud, probed by every VP with unique or shared query
/// names under short or long TTLs.
struct ControlledTtlConfig {
  std::string name;            ///< e.g. "TTL60-u"
  dns::Ttl answer_ttl = dns::Ttl{60};    ///< TTL of the probed AAAA records
  bool unique_qnames = true;   ///< PROBEID names vs one shared name
  std::string shared_label = "1";  ///< label for the shared-name variants
  bool anycast = false;        ///< Route53-style 45-site anycast
  sim::Duration duration = 1 * sim::kHour;
};

struct ControlledTtlResult {
  atlas::MeasurementRun run;
  std::uint64_t auth_queries = 0;     ///< queries arriving at the service
  std::size_t auth_unique_ips = 0;    ///< distinct resolver sources seen
  double median_rtt_ms = 0.0;
};

/// Stands up the test domain inside @p world (idempotent per World) and
/// runs one configuration.  Query/traffic counters are read from the
/// authoritative query logs, mirroring Table 10's two halves.
ControlledTtlResult run_controlled_ttl(World& world, atlas::Platform& platform,
                                       const ControlledTtlConfig& config);

/// The §5.3 natural experiment: the .uy zone must already exist in the
/// world (World::add_tld), probed with NS queries; returns the RTT
/// distribution (Figure 10).  Change the child NS TTL between runs to
/// reproduce the before/after comparison.  shard_count/shard_index select a
/// VP shard (atlas::MeasurementSpec sharding); the defaults keep the
/// historical single-shard behavior.
atlas::MeasurementRun run_uy_rtt(World& world, atlas::Platform& platform,
                                 sim::Time start,
                                 sim::Duration duration = 2 * sim::kHour,
                                 std::size_t shard_count = 1,
                                 std::size_t shard_index = 0);

}  // namespace dnsttl::core

#endif  // DNSTTL_CORE_LATENCY_EXPERIMENT_H
