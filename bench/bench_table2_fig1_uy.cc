// Reproduces Table 2 and Figure 1: resolver centricity for Uruguay's .uy,
// measured from ~15k vantage points.  Parent (root) TTL is 172800 s while
// the child's own NS TTL is 300 s and a.nic.uy's A TTL is 120 s; the
// distribution of observed TTLs separates child- from parent-centric
// resolvers.  Also runs uy-NS-new (child TTL raised to 86400 s, §5.3).
//
// Sharded (PR 4): every shard replicates the world + platform and runs the
// three phases over its probe slice; merged output is byte-identical for
// any --jobs value.

#include "bench_common.h"
#include "core/centricity_experiment.h"
#include "core/sharded.h"
#include "par/pool.h"
#include "stats/table.h"

using namespace dnsttl;

namespace {

void report(const char* name, const core::CentricityResult& result,
            const core::CentricitySetup& setup, std::size_t vps) {
  std::printf("--- %s (parent TTL %u, child TTL %u) ---\n", name,
              setup.parent_ttl.value(), setup.child_ttl.value());
  std::printf("VPs=%zu  queries=%zu  responses=%zu  valid=%zu  disc=%zu\n",
              vps, result.run.query_count(), result.run.response_count(),
              result.run.valid_count(), result.run.discarded_count());
  std::printf("%s\n", result.summary().c_str());

  auto cdf = result.run.ttl_cdf();
  std::printf("%s", cdf.render(
                        {0, 60, 120, 300, 600, 3600, 21599, 86400, 172800},
                        std::string("TTL CDF ") + name)
                        .c_str());
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Table 2 + Figure 1",
                      ".uy centricity from RIPE-Atlas-like VPs");
  bench::JsonReport json("table2_fig1_uy", args);

  auto factory = [&args] {
    core::ShardEnv env;
    env.world = std::make_unique<core::World>(
        core::World::Options{args.seed, 0.002, {}});
    env.world->add_tld("uy", "a.nic", dns::kTtl2Days, dns::kTtl5Min,
                       dns::Ttl{120}, net::Location{net::Region::kSA, 1.0});
    env.platform = std::make_unique<atlas::Platform>(atlas::Platform::build(
        env.world->network(), env.world->hints(), env.world->root_zone(),
        args.platform_spec(), env.world->rng()));
    return env;
  };

  // One extra env on the main thread supplies the shard-independent
  // metadata (probe/VP counts) without waiting for the measurement.
  auto meta = factory();
  const std::size_t vp_count = meta.platform->vp_count();
  std::printf("platform: %zu probes, %zu VPs, %zu resolvers\n\n",
              meta.platform->probes().size(), vp_count,
              meta.platform->resolver_population().size());
  const std::size_t shards =
      par::shard_count_for(meta.platform->probes().size());
  meta = {};

  // --- uy-NS: child TTL 300 s ---
  core::CentricitySetup ns_setup;
  ns_setup.name = "uy-NS";
  ns_setup.qname = dns::Name::from_string("uy");
  ns_setup.qtype = dns::RRType::kNS;
  ns_setup.parent_ttl = dns::kTtl2Days;
  ns_setup.child_ttl = dns::kTtl5Min;
  ns_setup.duration = 2 * sim::kHour;

  // --- a.nic.uy-A: child TTL 120 s ---
  core::CentricitySetup a_setup;
  a_setup.name = "a.nic.uy-A";
  a_setup.qname = dns::Name::from_string("a.nic.uy");
  a_setup.qtype = dns::RRType::kA;
  a_setup.parent_ttl = dns::kTtl2Days;
  a_setup.child_ttl = dns::Ttl{120};
  a_setup.duration = 3 * sim::kHour;

  // --- uy-NS-new: the child raised its NS TTL to one day (§5.3) ---
  core::CentricitySetup new_setup = ns_setup;
  new_setup.name = "uy-NS-new";
  new_setup.child_ttl = dns::kTtl1Day;

  auto runs = core::run_sharded_script(
      factory, shards, args.jobs,
      [&](core::ShardEnv& env, std::size_t shard, std::size_t count) {
        std::vector<atlas::MeasurementRun> phases;

        core::CentricitySetup s1 = ns_setup;
        s1.shard_count = count;
        s1.shard_index = shard;
        phases.push_back(std::move(
            core::run_centricity(*env.world, *env.platform, s1).run));

        core::CentricitySetup s2 = a_setup;
        s2.shard_count = count;
        s2.shard_index = shard;
        s2.start = env.world->simulation().now() + sim::kHour;
        env.platform->flush_all();
        phases.push_back(std::move(
            core::run_centricity(*env.world, *env.platform, s2).run));

        // The operator raises the child NS TTL (same virtual moment in
        // every shard — the simulation clock is deterministic).
        env.world->server("a.nic.uy.").zones().back()->set_ttl(
            dns::Name::from_string("uy"), dns::RRType::kNS, dns::kTtl1Day);
        core::CentricitySetup s3 = new_setup;
        s3.shard_count = count;
        s3.shard_index = shard;
        s3.start = env.world->simulation().now() + sim::kHour;
        env.platform->flush_all();
        phases.push_back(std::move(
            core::run_centricity(*env.world, *env.platform, s3).run));

        return phases;
      });
  const double parallel_wall = json.elapsed_seconds();
  auto record_phase = [&](const char* name,
                          const core::CentricityResult& result) {
    json.add_metric(name, "queries/sec", result.run.query_count(),
                    parallel_wall);
  };

  auto ns_result = core::classify_centricity(std::move(runs[0]), ns_setup);
  record_phase("uy_ns", ns_result);
  report("uy-NS", ns_result, ns_setup, vp_count);

  std::printf("%s", stats::compare_line(
                        "uy-NS answers <= 300 s (child-centric)", "90%",
                        stats::fmt("%.0f%%", 100 * ns_result.at_most_child))
                        .c_str());
  std::printf("%s", stats::compare_line(
                        "uy-NS full 172800 s TTL", "2.9%",
                        stats::fmt("%.1f%%",
                                   100 * ns_result.exact_full_parent))
                        .c_str());
  std::printf("\n");

  auto a_result = core::classify_centricity(std::move(runs[1]), a_setup);
  record_phase("a_nic_uy_a", a_result);
  report("a.nic.uy-A", a_result, a_setup, vp_count);

  std::printf("%s", stats::compare_line(
                        "a.nic.uy-A answers <= 120 s (child-centric)", "88%",
                        stats::fmt("%.0f%%", 100 * a_result.at_most_child))
                        .c_str());
  std::printf("%s", stats::compare_line(
                        "a.nic.uy-A full 172800 s TTL", "2.2%",
                        stats::fmt("%.1f%%", 100 * a_result.exact_full_parent))
                        .c_str());
  std::printf("\n");

  auto new_result = core::classify_centricity(std::move(runs[2]), new_setup);
  record_phase("uy_ns_new", new_result);
  report("uy-NS-new", new_result, new_setup, vp_count);

  std::printf("%s",
              stats::compare_line(
                  "uy-NS-new answers <= 86400 s (child share)", "~90%",
                  stats::fmt("%.0f%%", 100 * new_result.at_most_child))
                  .c_str());
  return json.finish();
}
