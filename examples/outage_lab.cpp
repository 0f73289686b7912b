// Outage resilience lab: record TTL vs user-visible failure and
// authoritative load across a scripted fault window (the paper's §1/§7
// resilience argument, run as a controlled experiment).
//
// Sweeps a (TTL, serve-stale) grid; every point runs in a private World
// with one net::Network::add_outage window over the child nameserver, so
// the table is byte-identical at any --jobs value.  --quick trims the grid
// and horizon for CI; --json <path> writes the totals and wall time as a
// bench JSON report.

#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "core/outage_experiment.h"

int main(int argc, char** argv) {
  using namespace dnsttl;

  bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("outage", "TTL vs resilience under a scripted outage");

  core::OutageConfig config;
  config.seed = args.seed;
  if (args.quick) {
    config.ttls = {dns::Ttl{60}, dns::Ttl{3600}};
    config.horizon = 30 * sim::kMinute;
    config.outage_start = 5 * sim::kMinute;
    config.outage_duration = 15 * sim::kMinute;
  }

  bench::JsonReport json("outage", args);
  auto wall_start = std::chrono::steady_clock::now();
  core::OutageResult result = core::run_outage_experiment(config, args.jobs);
  double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              wall_start)
                    .count();

  std::fputs(result.render().c_str(), stdout);

  std::uint64_t client_queries = 0;
  std::uint64_t auth_queries = 0;
  std::uint64_t stale_answers = 0;
  std::uint64_t outage_timeouts = 0;
  for (const core::OutagePointResult& p : result.points) {
    client_queries += p.queries;
    auth_queries += p.auth_queries;
    stale_answers += p.stale_answers;
    outage_timeouts += p.outage_timeouts;
  }
  std::printf(
      "totals: %llu client queries, %llu auth queries, %llu stale answers, "
      "%llu outage timeouts\n",
      static_cast<unsigned long long>(client_queries),
      static_cast<unsigned long long>(auth_queries),
      static_cast<unsigned long long>(stale_answers),
      static_cast<unsigned long long>(outage_timeouts));

  if (!args.json_path.empty()) {
    json.add_metric("client_queries", "queries/sec", client_queries, wall);
    json.add_metric("auth_queries", "queries/sec", auth_queries, wall);
    json.add_metric("stale_answers", "answers/sec", stale_answers, wall);
    json.add_metric("outage_timeouts", "timeouts/sec", outage_timeouts, wall);
    if (!json.write(args.json_path, wall)) {
      return 1;
    }
  }
  return 0;
}
