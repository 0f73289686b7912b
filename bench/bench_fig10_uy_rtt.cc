// Reproduces Figure 10: the .uy natural experiment.  Before 2019-03-04 the
// child NS TTL was 300 s (median client RTT 28.7 ms); after raising it to
// 86400 s the median fell to 8 ms because .uy stays cached at recursives.
// Panel (b) breaks the RTT change down by probe region.
//
// Sharded (PR 4): each shard replicates the world and runs the before/after
// phases over its probe slice; output is byte-identical for any --jobs.

#include "bench_common.h"
#include "core/latency_experiment.h"
#include "core/sharded.h"
#include "par/pool.h"
#include "stats/table.h"

using namespace dnsttl;

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  bench::JsonReport json("fig10_uy_rtt", args);
  bench::print_header("Figure 10",
                      ".uy RTT before/after the NS TTL change (300s->86400s)");

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

  // The region table needs a platform; shard platforms are identical, so
  // one main-thread env doubles as the reporting copy.
  auto meta = factory();
  std::printf("platform: %zu probes, %zu VPs\n\n",
              meta.platform->probes().size(), meta.platform->vp_count());
  const std::size_t shards =
      par::shard_count_for(meta.platform->probes().size());

  auto runs = core::run_sharded_script(
      factory, shards, args.jobs,
      [](core::ShardEnv& env, std::size_t shard, std::size_t count) {
        std::vector<atlas::MeasurementRun> phases;

        // Before: short child TTL.
        phases.push_back(core::run_uy_rtt(*env.world, *env.platform,
                                          sim::Time{}, 2 * sim::kHour, count,
                                          shard));

        // The operator raises the TTL to one day; caches from the "before"
        // era drain naturally (we give them an hour, like the days between
        // the paper's measurements, scaled to the short TTLs involved).
        env.world->server("a.nic.uy.").zones().back()->set_ttl(
            dns::Name::from_string("uy"), dns::RRType::kNS, dns::kTtl1Day);
        env.platform->flush_all();
        phases.push_back(core::run_uy_rtt(
            *env.world, *env.platform,
            env.world->simulation().now() + sim::kHour, 2 * sim::kHour, count,
            shard));
        return phases;
      });
  const auto& before = runs[0];
  const auto& after = runs[1];

  auto before_cdf = before.rtt_cdf_ms();
  auto after_cdf = after.rtt_cdf_ms();

  std::printf("Figure 10a — RTT CDF, all VPs combined:\n");
  std::printf("%s\n", before_cdf.render({5, 10, 20, 50, 100, 200, 500, 1000},
                                        "RTT ms (TTL 300)")
                          .c_str());
  std::printf("%s\n", after_cdf.render({5, 10, 20, 50, 100, 200, 500, 1000},
                                       "RTT ms (TTL 86400)")
                          .c_str());
  std::printf("TTL 300:   %s\n",
              stats::percentile_summary(before_cdf, "ms").c_str());
  std::printf("TTL 86400: %s\n\n",
              stats::percentile_summary(after_cdf, "ms").c_str());

  std::printf("Figure 10b — median (p25-p75) RTT per region:\n");
  stats::TablePrinter regions({"region", "TTL300 p25/p50/p75",
                               "TTL86400 p25/p50/p75"});
  for (net::Region region : net::kAllRegions) {
    auto b = before.rtt_cdf_ms(region, *meta.platform);
    auto a = after.rtt_cdf_ms(region, *meta.platform);
    if (b.empty() || a.empty()) continue;
    regions.add_row({std::string(net::to_string(region)),
                     stats::fmt("%5.1f /%6.1f /%6.1f ms", b.quantile(0.25),
                                b.median(), b.quantile(0.75)),
                     stats::fmt("%5.1f /%6.1f /%6.1f ms", a.quantile(0.25),
                                a.median(), a.quantile(0.75))});
  }
  std::printf("%s\n", regions.render().c_str());

  std::printf("%s", stats::compare_line(
                        "median RTT with short TTL", "28.7 ms",
                        stats::fmt("%.1f ms", before_cdf.median()))
                        .c_str());
  std::printf("%s", stats::compare_line("median RTT with long TTL", "8 ms",
                                        stats::fmt("%.1f ms",
                                                   after_cdf.median()))
                        .c_str());
  std::printf("%s", stats::compare_line(
                        "75th percentile short vs long", "183 ms vs 21 ms",
                        stats::fmt("%.0f ms vs %.0f ms",
                                   before_cdf.quantile(0.75),
                                   after_cdf.quantile(0.75)))
                        .c_str());
  std::printf("%s", stats::compare_line(
                        "every region improves", "yes",
                        "see Figure 10b table above")
                        .c_str());
  return json.finish();
}
