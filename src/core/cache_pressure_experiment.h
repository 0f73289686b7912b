#ifndef DNSTTL_CORE_CACHE_PRESSURE_EXPERIMENT_H
#define DNSTTL_CORE_CACHE_PRESSURE_EXPERIMENT_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "dns/types.h"

namespace dnsttl::core {

/// Eviction policies compared at every (TTL, capacity) point: all three.
inline constexpr std::array<cache::EvictionPolicy, 3> kEvictionPolicies = {
    cache::EvictionPolicy::kLru, cache::EvictionPolicy::kLfu,
    cache::EvictionPolicy::kTtlAware};

/// The capacity question the paper's TTL→hit-rate story leaves open: the
/// §5 recommendation assumes caches hold the working set, but production
/// resolvers run bounded caches where eviction competes with TTL expiry
/// (*Modeling and Predicting DNS Server Load*, PAPERS.md, derives
/// authoritative load from exactly this race).  A grid of
/// (TTL, max_entries, policy) points, each driving a private bounded cache
/// with an identical Pareto-popular demand stream, measures where the
/// TTL→hit-rate curve breaks down: once eviction dominates expiry, raising
/// TTLs stops buying hit rate and the authoritative load floor is set by
/// capacity, not TTL.
struct CachePressureConfig {
  /// Record TTLs to sweep — CDN-style 30 s up to a BIND-ish hour.
  std::vector<dns::Ttl> ttls = {dns::Ttl{30}, dns::Ttl{300}, dns::Ttl{3600}};
  /// Cache capacities (combined positive+negative entries).
  std::vector<std::size_t> capacities = {256, 1024, 4096};
  std::size_t names = 8192;        ///< distinct qnames in the demand catalog
  std::uint64_t queries = 200000;  ///< demand stream length per grid point

  /// Warm-vs-cold restart scenario: warmup stream length before the
  /// snapshot, and measurement stream length replayed into both the
  /// restored (warm) and fresh (cold) cache.
  std::uint64_t warm_queries = 50000;

  std::uint64_t seed = 1;
};

/// Outcome of one (TTL, capacity, policy) grid point.
struct CachePressurePoint {
  dns::Ttl ttl{};
  std::size_t max_entries = 0;
  cache::EvictionPolicy policy = cache::EvictionPolicy::kLru;

  std::uint64_t queries = 0;
  std::uint64_t hits = 0;            ///< positive A hits
  std::uint64_t misses = 0;          ///< each one costs an authoritative query
  std::uint64_t negative_hits = 0;   ///< RFC 2308 negative hits
  std::uint64_t negative_misses = 0;
  std::uint64_t evictions = 0;       ///< capacity victims, either table
  std::uint64_t evicted_positive = 0;
  std::uint64_t evicted_negative = 0;
  std::uint64_t expired = 0;         ///< misses caused by TTL expiry
  std::uint64_t high_water = 0;      ///< peak resident population
  std::uint64_t resident = 0;        ///< final population
};

/// Warm-vs-cold restart outcome for one eviction policy: a warmed cache is
/// snapshotted, restored into a new instance, and raced against a cold
/// (empty) cache over an identical measurement stream.
struct CacheRestartPoint {
  cache::EvictionPolicy policy = cache::EvictionPolicy::kLru;
  std::uint64_t snapshot_bytes = 0;  ///< serialized image size
  std::uint64_t restored = 0;        ///< entries alive after restore
  std::uint64_t warm_hits = 0;
  std::uint64_t warm_auth = 0;  ///< misses = upstream fetches, warm start
  std::uint64_t cold_hits = 0;
  std::uint64_t cold_auth = 0;
};

/// The full grid plus its canonical rendering.
struct CachePressureResult {
  CachePressureConfig config;
  std::vector<CachePressurePoint> points;  ///< policy / capacity / TTL major
  std::vector<CacheRestartPoint> restarts;  ///< one per policy

  /// Integer table (stats::TablePrinter layout) — byte-identical across
  /// --jobs values and build trees; deliberately free of floats and timing.
  std::string render() const;
};

/// Runs one grid point (deterministic: a pure function of config + point).
CachePressurePoint run_cache_pressure_point(const CachePressureConfig& config,
                                            dns::Ttl ttl,
                                            std::size_t max_entries,
                                            cache::EvictionPolicy policy);

/// Runs the warm-vs-cold restart scenario for one policy at the middle
/// (TTL, capacity) of the configured sweep.
CacheRestartPoint run_cache_restart_point(const CachePressureConfig& config,
                                          cache::EvictionPolicy policy);

/// Runs the whole grid plus the restart scenario through par::map_grid, up
/// to @p jobs points concurrently.  Each point owns its cache and
/// regenerates its own demand stream, so the merged result is
/// byte-identical at any job count.
CachePressureResult run_cache_pressure_experiment(
    const CachePressureConfig& config, std::size_t jobs);

}  // namespace dnsttl::core

#endif  // DNSTTL_CORE_CACHE_PRESSURE_EXPERIMENT_H
