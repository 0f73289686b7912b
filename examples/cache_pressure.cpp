// Cache pressure lab: where does the paper's TTL→hit-rate story break
// down once the cache is capacity-bounded and eviction competes with TTL
// expiry?
//
// Sweeps a (TTL, max_entries, policy) grid — every point drives a private
// bounded cache with an identical Pareto-popular demand stream — and runs
// a warm-vs-cold restart scenario per policy (snapshot → restore vs empty
// cache over the same replayed demand).  The table is byte-identical at
// any --jobs value.  --quick trims the grid for CI; --json writes a
// BENCH_cache_pressure.json report.

#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "core/cache_pressure_experiment.h"

int main(int argc, char** argv) {
  using namespace dnsttl;

  bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("cache_pressure",
                      "TTL vs hit rate under bounded-cache eviction");

  core::CachePressureConfig config;
  config.seed = args.seed;
  if (args.quick) {
    config.ttls = {dns::Ttl{30}, dns::Ttl{3600}};
    config.capacities = {64, 512};
    config.names = 2048;
    config.queries = 20000;
    config.warm_queries = 5000;
  }

  bench::JsonReport json("cache_pressure", args);
  auto wall_start = std::chrono::steady_clock::now();
  core::CachePressureResult result =
      core::run_cache_pressure_experiment(config, args.jobs);
  double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              wall_start)
                    .count();

  std::fputs(result.render().c_str(), stdout);

  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t auth_queries = 0;
  std::uint64_t evictions = 0;
  for (const core::CachePressurePoint& p : result.points) {
    queries += p.queries;
    hits += p.hits + p.negative_hits;
    auth_queries += p.misses + p.negative_misses;
    evictions += p.evictions;
  }
  std::printf(
      "totals: %llu queries, %llu hits, %llu auth queries, %llu evictions\n",
      static_cast<unsigned long long>(queries),
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(auth_queries),
      static_cast<unsigned long long>(evictions));

  if (!args.json_path.empty()) {
    json.add_metric("queries", "queries/sec", queries, wall);
    json.add_metric("hits", "hits/sec", hits, wall);
    json.add_metric("auth_queries", "queries/sec", auth_queries, wall);
    json.add_metric("evictions", "evictions/sec", evictions, wall);
    if (!json.write(args.json_path, wall)) {
      return 1;
    }
  }
  return 0;
}
