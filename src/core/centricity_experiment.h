#ifndef DNSTTL_CORE_CENTRICITY_EXPERIMENT_H
#define DNSTTL_CORE_CENTRICITY_EXPERIMENT_H

#include <string>

#include "atlas/measurement.h"
#include "atlas/platform.h"
#include "core/world.h"

namespace dnsttl::core {

/// One §3-style centricity measurement: every VP asks @p qname/@p qtype on
/// a schedule and the observed answer TTLs reveal whether its resolver is
/// parent- or child-centric.
struct CentricitySetup {
  std::string name;
  dns::Name qname;
  dns::RRType qtype = dns::RRType::kNS;
  dns::Ttl parent_ttl = dns::kTtl2Days;
  dns::Ttl child_ttl = dns::kTtl5Min;
  sim::Duration duration = 2 * sim::kHour;
  sim::Time start{};

  /// VP shard to run (see atlas::MeasurementSpec sharding); the defaults
  /// keep the historical single-shard behavior.
  std::size_t shard_count = 1;
  std::size_t shard_index = 0;
};

/// Classification of the observed TTLs against the configured pair.
struct CentricityResult {
  atlas::MeasurementRun run;

  /// Fraction of valid answers with TTL <= child TTL (child-centric).
  double at_most_child = 0.0;
  /// Fraction strictly above the child TTL (parent-centric or capped).
  double above_child = 0.0;
  /// Fraction showing the parent TTL undecremented (§3.2's 2-3%:
  /// local-root / freshly-fetched parent-centric resolvers).
  double exact_full_parent = 0.0;
  /// Fraction at exactly the 21599 s public-resolver cap (Figure 2).
  double capped_21599 = 0.0;

  std::string summary() const;
};

/// Runs the measurement on an existing world + platform.  The zones must
/// already be configured (World::add_tld and friends).
CentricityResult run_centricity(World& world, atlas::Platform& platform,
                                const CentricitySetup& setup);

/// Classifies an already-collected run (pure function of the samples).
/// Sharded executions merge per-shard runs first and classify once.
CentricityResult classify_centricity(atlas::MeasurementRun run,
                                     const CentricitySetup& setup);

}  // namespace dnsttl::core

#endif  // DNSTTL_CORE_CENTRICITY_EXPERIMENT_H
