// Determinism and physics of core::CachePressureExperiment: the grid that
// drives bounded caches (all three eviction policies) with a Pareto demand
// stream must render byte-identically at every --jobs value, and its
// numbers must obey the obvious conservation laws.  This is the tier-1 pin
// behind the cache-pressure-smoke ctest: the smoke proves the example runs,
// this proves the sharded run IS the sequential run.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/cache_pressure_experiment.h"

namespace {

using dnsttl::cache::EvictionPolicy;
using dnsttl::core::CachePressureConfig;
using dnsttl::core::CachePressurePoint;
using dnsttl::core::CachePressureResult;
using dnsttl::core::CacheRestartPoint;
using dnsttl::core::kEvictionPolicies;
using dnsttl::core::run_cache_pressure_experiment;

/// Small enough for a tier-1 test (also under DNSTTL_AUDIT's O(n) cache
/// validates), large enough that the tightest capacity actually evicts.
CachePressureConfig test_config() {
  CachePressureConfig config;
  config.ttls = {dnsttl::dns::Ttl{30}, dnsttl::dns::Ttl{3600}};
  config.capacities = {64, 512};
  config.names = 2048;
  config.queries = 20000;
  config.warm_queries = 5000;
  config.seed = 1;
  return config;
}

TEST(CachePressureExperiment, RenderIsByteIdenticalAcrossJobCounts) {
  const CachePressureConfig config = test_config();
  const std::string sequential = run_cache_pressure_experiment(config, 1).render();
  const std::string sharded = run_cache_pressure_experiment(config, 4).render();
  const std::string hardware = run_cache_pressure_experiment(config, 0).render();
  EXPECT_EQ(sequential, sharded);
  EXPECT_EQ(sequential, hardware);
}

TEST(CachePressureExperiment, GridObeysConservationLaws) {
  const CachePressureConfig config = test_config();
  const CachePressureResult result = run_cache_pressure_experiment(config, 4);
  ASSERT_EQ(result.points.size(), config.ttls.size() * config.capacities.size() *
                                      kEvictionPolicies.size());
  for (const CachePressurePoint& point : result.points) {
    EXPECT_EQ(point.queries, config.queries);
    EXPECT_EQ(point.hits + point.misses + point.negative_hits +
                  point.negative_misses,
              point.queries);
    EXPECT_EQ(point.evictions, point.evicted_positive + point.evicted_negative);
    EXPECT_LE(point.resident, point.high_water);
    if (point.max_entries != 0) {
      EXPECT_LE(point.high_water, point.max_entries);
      EXPECT_LE(point.resident, point.max_entries);
    }
  }
}

TEST(CachePressureExperiment, TightCapacityEvictsAndLooseDoesNot) {
  const CachePressureConfig config = test_config();
  const CachePressureResult result = run_cache_pressure_experiment(config, 4);
  std::uint64_t tight_evictions = 0;
  std::uint64_t loose_evictions = 0;
  for (const CachePressurePoint& point : result.points) {
    (point.max_entries == 64 ? tight_evictions : loose_evictions) +=
        point.evictions;
  }
  // 2048 hot names against 64 slots must churn; 512 slots hold the
  // Pareto head comfortably at this stream length.
  EXPECT_GT(tight_evictions, 0u);
  // Longer TTLs must not LOWER the hit count at fixed (capacity, policy):
  // within this grid the TTL sweep is the paper's monotone axis.
  for (const auto policy : kEvictionPolicies) {
    for (const std::size_t capacity : config.capacities) {
      std::uint64_t previous_hits = 0;
      for (const auto ttl : config.ttls) {
        for (const CachePressurePoint& point : result.points) {
          if (point.policy == policy && point.max_entries == capacity &&
              point.ttl.value() == ttl.value()) {
            EXPECT_GE(point.hits, previous_hits)
                << "policy=" << dnsttl::cache::to_string(policy)
                << " capacity=" << capacity << " ttl=" << ttl.value();
            previous_hits = point.hits;
          }
        }
      }
    }
  }
  (void)loose_evictions;
}

TEST(CachePressureExperiment, WarmRestartBeatsColdStart) {
  const CachePressureConfig config = test_config();
  const CachePressureResult result = run_cache_pressure_experiment(config, 4);
  ASSERT_EQ(result.restarts.size(), kEvictionPolicies.size());
  for (const CacheRestartPoint& restart : result.restarts) {
    EXPECT_GT(restart.snapshot_bytes, 0u);
    EXPECT_GT(restart.restored, 0u);
    // The restored cache starts with the warmup's working set resident, so
    // over the identical measurement stream it cannot need MORE upstream
    // fetches than the cold cache.
    EXPECT_LE(restart.warm_auth, restart.cold_auth);
    EXPECT_GE(restart.warm_hits, restart.cold_hits);
  }
}

}  // namespace
