#include "core/cache_pressure_experiment.h"

#include <algorithm>
#include <string>
#include <vector>

#include "dns/name.h"
#include "dns/rr.h"
#include "par/pool.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "stats/table.h"

namespace dnsttl::core {

namespace {

/// RNG stream id for the demand generator; every grid point forks the same
/// stream from the same seed, so all points see one identical workload and
/// differ only in cache configuration.
constexpr std::uint64_t kDemandStream = 0x6361'6368'6500'0001ULL;

/// Pareto popularity shape of the demand: heavy-headed enough that LRU and
/// LFU pick different victims.
constexpr double kAlpha = 1.1;

/// Share of queries that are AAAA probes answered NXDOMAIN, so the
/// negative table competes for capacity too.
constexpr double kNegativeShare = 0.1;

/// Mean query spacing (20 queries/s): a full-scale stream spans ~3 h, so
/// every swept TTL expires within it.
constexpr sim::Duration kMeanGap = 50 * sim::kMillisecond;

/// Queries between purge_expired sweeps, as a resolver's periodic cleaner.
constexpr std::uint64_t kPurgeEvery = 4096;

/// One synthetic client query.
struct Demand {
  std::size_t idx = 0;       ///< catalog index of the qname
  bool negative = false;     ///< AAAA probe of a name with no AAAA data
  sim::Time at{};
};

/// Deterministic Pareto-popular demand generator with exponential
/// inter-arrival gaps.  The catalog index distribution is heavy-headed:
/// index 0 is the hottest name, the tail is cold — the shape that makes
/// LRU/LFU behave differently.
class DemandStream {
 public:
  DemandStream(std::uint64_t seed, std::size_t names)
      : rng_(sim::Rng(seed).fork(kDemandStream)), names_(names) {}

  Demand next() {
    const auto gap = static_cast<std::int64_t>(
        rng_.exponential(static_cast<double>(kMeanGap.count())));
    clock_ = clock_ + sim::Duration{std::max<std::int64_t>(1, gap)};
    const double rank = rng_.pareto(1.0, kAlpha);
    const double capped = std::min(rank, static_cast<double>(names_));
    Demand d;
    d.idx = std::min(names_ - 1, static_cast<std::size_t>(capped - 1.0));
    d.negative = rng_.chance(kNegativeShare);
    d.at = clock_;
    return d;
  }

 private:
  sim::Rng rng_;
  std::size_t names_;
  sim::Time clock_{};
};

std::vector<dns::Name> build_catalog(std::size_t names) {
  std::vector<dns::Name> catalog;
  catalog.reserve(names);
  for (std::size_t i = 0; i < names; ++i) {
    catalog.push_back(
        dns::Name::from_string("n" + std::to_string(i) + ".example"));
  }
  return catalog;
}

dns::RRset make_answer(const dns::Name& name, dns::Ttl ttl, std::size_t idx) {
  dns::RRset set(name, dns::RClass::kIN, ttl);
  set.add(dns::ARdata{dns::Ipv4(10, static_cast<std::uint8_t>(idx >> 16),
                                static_cast<std::uint8_t>(idx >> 8),
                                static_cast<std::uint8_t>(idx))});
  return set;
}

/// Hit/miss counts of one demand stream against one cache.
struct DriveTally {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t negative_hits = 0;
  std::uint64_t negative_misses = 0;
};

/// Serves one query from @p cache: a hit is counted, a miss inserts fresh
/// data (modeling one authoritative fetch).
void serve(cache::Cache& cache, const Demand& d,
           const std::vector<dns::Name>& catalog, dns::Ttl ttl,
           DriveTally& tally) {
  const dns::Name& name = catalog[d.idx];
  if (d.negative) {
    if (cache.lookup_negative(name, dns::RRType::kAAAA, d.at)) {
      ++tally.negative_hits;
    } else {
      ++tally.negative_misses;
      cache.insert_negative(name, dns::RRType::kAAAA, dns::Rcode::kNXDomain,
                            ttl, d.at);
    }
  } else {
    if (cache.lookup(name, dns::RRType::kA, d.at)) {
      ++tally.hits;
    } else {
      ++tally.misses;
      cache.insert(make_answer(name, ttl, d.idx),
                   cache::Credibility::kAuthAnswer, d.at);
    }
  }
}

/// Drives @p cache with @p count queries from @p demand, sweeping expired
/// entries every kPurgeEvery queries.
DriveTally drive(cache::Cache& cache, DemandStream& demand,
                 const std::vector<dns::Name>& catalog, dns::Ttl ttl,
                 std::uint64_t count) {
  DriveTally tally;
  for (std::uint64_t q = 0; q < count; ++q) {
    const Demand d = demand.next();
    if ((q + 1) % kPurgeEvery == 0) {
      cache.purge_expired(d.at);
    }
    serve(cache, d, catalog, ttl, tally);
  }
  return tally;
}

cache::Cache::Config make_cache_config(std::size_t max_entries,
                                       cache::EvictionPolicy policy) {
  cache::Cache::Config config;
  config.max_ttl = dns::kTtl1Week;  // no clamp: the sweep sets record TTLs
  config.max_entries = max_entries;
  config.policy = policy;
  return config;
}

}  // namespace

CachePressurePoint run_cache_pressure_point(const CachePressureConfig& config,
                                            dns::Ttl ttl,
                                            std::size_t max_entries,
                                            cache::EvictionPolicy policy) {
  cache::Cache cache(make_cache_config(max_entries, policy));
  const std::vector<dns::Name> catalog = build_catalog(config.names);
  DemandStream demand(config.seed, config.names);

  CachePressurePoint point;
  point.ttl = ttl;
  point.max_entries = max_entries;
  point.policy = policy;
  point.queries = config.queries;

  const DriveTally tally = drive(cache, demand, catalog, ttl, config.queries);
  point.hits = tally.hits;
  point.misses = tally.misses;
  point.negative_hits = tally.negative_hits;
  point.negative_misses = tally.negative_misses;

  const cache::Cache::Stats& stats = cache.stats();
  point.evictions = stats.capacity_evictions;
  point.evicted_positive = stats.evicted_positive;
  point.evicted_negative = stats.evicted_negative;
  point.expired = stats.expired;
  point.high_water = stats.high_water;
  point.resident =
      static_cast<std::uint64_t>(cache.size() + cache.negative_size());
  return point;
}

CacheRestartPoint run_cache_restart_point(const CachePressureConfig& config,
                                          cache::EvictionPolicy policy) {
  // Longest TTL, smallest capacity: the restart question is only
  // interesting when eviction was active while the cache warmed.
  const dns::Ttl ttl = config.ttls.back();
  const std::size_t max_entries = config.capacities.front();
  const std::vector<dns::Name> catalog = build_catalog(config.names);
  const cache::Cache::Config cache_config =
      make_cache_config(max_entries, policy);

  // Warm a cache, then freeze it: the restart image.
  cache::Cache warmed(cache_config);
  DemandStream demand(config.seed, config.names);
  drive(warmed, demand, catalog, ttl, config.warm_queries);
  const std::vector<std::uint8_t> image = warmed.snapshot();

  // Pre-generate the measurement stream (continuing the warmup clock) so
  // warm and cold replay byte-identical demand.
  std::vector<Demand> measured;
  measured.reserve(config.warm_queries);
  for (std::uint64_t q = 0; q < config.warm_queries; ++q) {
    measured.push_back(demand.next());
  }

  const auto replay = [&](cache::Cache& cache) {
    DriveTally tally;
    for (const Demand& d : measured) {
      serve(cache, d, catalog, ttl, tally);
    }
    return tally;
  };

  CacheRestartPoint point;
  point.policy = policy;
  point.snapshot_bytes = static_cast<std::uint64_t>(image.size());

  cache::Cache warm;
  warm.restore(image);
  point.restored =
      static_cast<std::uint64_t>(warm.size() + warm.negative_size());
  const DriveTally warm_tally = replay(warm);
  point.warm_hits = warm_tally.hits + warm_tally.negative_hits;
  point.warm_auth = warm_tally.misses + warm_tally.negative_misses;

  cache::Cache cold(cache_config);
  const DriveTally cold_tally = replay(cold);
  point.cold_hits = cold_tally.hits + cold_tally.negative_hits;
  point.cold_auth = cold_tally.misses + cold_tally.negative_misses;
  return point;
}

CachePressureResult run_cache_pressure_experiment(
    const CachePressureConfig& config, std::size_t jobs) {
  CachePressureResult result;
  result.config = config;
  result.points = par::map_grid(
      jobs,
      [&](cache::EvictionPolicy policy, std::size_t max_entries,
          dns::Ttl ttl) {
        return run_cache_pressure_point(config, ttl, max_entries, policy);
      },
      kEvictionPolicies, config.capacities, config.ttls);
  result.restarts = par::map_grid(
      jobs,
      [&](cache::EvictionPolicy policy) {
        return run_cache_restart_point(config, policy);
      },
      kEvictionPolicies);
  return result;
}

std::string CachePressureResult::render() const {
  std::string out = stats::fmt(
      "cache pressure: catalog=%zu queries=%llu purge_every=%llu seed=%llu\n",
      config.names, static_cast<unsigned long long>(config.queries),
      static_cast<unsigned long long>(kPurgeEvery),
      static_cast<unsigned long long>(config.seed));
  stats::TablePrinter grid({"ttl", "cap", "policy", "queries", "hits", "miss",
                            "neg_hit", "neg_mis", "evict", "ev_pos", "ev_neg",
                            "hiwater", "resid"});
  for (const CachePressurePoint& p : points) {
    grid.add_row({std::to_string(p.ttl.value()), std::to_string(p.max_entries),
                  std::string(cache::to_string(p.policy)),
                  std::to_string(p.queries), std::to_string(p.hits),
                  std::to_string(p.misses), std::to_string(p.negative_hits),
                  std::to_string(p.negative_misses),
                  std::to_string(p.evictions),
                  std::to_string(p.evicted_positive),
                  std::to_string(p.evicted_negative),
                  std::to_string(p.high_water), std::to_string(p.resident)});
  }
  out += grid.render();
  if (restarts.empty()) {
    return out;
  }
  out += stats::fmt(
      "warm vs cold restart: ttl=%u cap=%zu warmup=%llu measured=%llu\n",
      config.ttls.back().value(), config.capacities.front(),
      static_cast<unsigned long long>(config.warm_queries),
      static_cast<unsigned long long>(config.warm_queries));
  stats::TablePrinter restart({"policy", "snap_byte", "restored", "warm_hit",
                               "warm_auth", "cold_hit", "cold_auth"});
  for (const CacheRestartPoint& p : restarts) {
    restart.add_row({std::string(cache::to_string(p.policy)),
                     std::to_string(p.snapshot_bytes),
                     std::to_string(p.restored), std::to_string(p.warm_hits),
                     std::to_string(p.warm_auth), std::to_string(p.cold_hits),
                     std::to_string(p.cold_auth)});
  }
  return out + restart.render();
}

}  // namespace dnsttl::core
