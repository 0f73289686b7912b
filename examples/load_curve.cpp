// Load-vs-TTL curve at full scale: authoritative query load as a function
// of record TTL for the paper's two populations — the .nl passive resolver
// demand of §5 (205k resolvers, ~6.5M queries over two days at scale 1.0)
// and a million-stub Atlas population sharing 10k recursive caches — next
// to the renewal-model prediction λ/(1+λT) per cache (§6/§7).
//
// Every TTL point sees the same realized arrival process, so the curve
// isolates the cache-filter effect.  The stub phase drives a
// structure-of-arrays pool through the sim::TimerWheel (one pending
// arrival per stub); both phases shard over par:: with per-actor forked
// RNG streams, so the table is byte-identical at any --jobs value.
// --quick trims both populations for CI; --json writes
// BENCH_load_curve.json (queries/sec simulated + peak RSS).

#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "core/load_curve_experiment.h"

int main(int argc, char** argv) {
  using namespace dnsttl;

  bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("load_curve",
                      "authoritative load vs TTL at population scale");

  core::LoadCurveConfig config;
  config.seed = args.seed;
  config.apply_scale(args.scale);
  if (args.quick) {
    config.nl_duration = 12 * sim::kHour;
    config.stub_duration = 2 * sim::kHour;
  }

  bench::JsonReport json("load_curve", args);
  auto wall_start = std::chrono::steady_clock::now();
  core::LoadCurveResult result =
      core::run_load_curve_experiment(config, args.jobs);
  double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              wall_start)
                    .count();

  std::fputs(result.render().c_str(), stdout);

  std::uint64_t auth_queries = 0;
  for (const core::LoadCurvePointResult& p : result.points) {
    auth_queries += p.nl_auth_queries + p.stub_auth_queries;
  }
  const std::uint64_t client_queries =
      result.nl_client_queries + result.stub_client_queries;
  std::printf("totals: %llu client queries, %llu auth queries across %zu "
              "TTL points\n",
              static_cast<unsigned long long>(client_queries),
              static_cast<unsigned long long>(auth_queries),
              result.points.size());

  if (!args.json_path.empty()) {
    json.add_metric("client_queries", "queries/sec", client_queries, wall);
    json.add_metric("auth_queries", "queries/sec", auth_queries, wall);
    if (!json.write(args.json_path, wall)) {
      return 1;
    }
  }
  return 0;
}
