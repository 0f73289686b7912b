// Reproduces Table 3, Table 4, and Figures 6, 7 and 8: the §4 renumbering
// experiments.  A test zone sub.cachetest.net is renumbered at t = 9 min;
// the answering-server time series reveals which TTL governs the cached
// nameserver address.  In-bailiwick servers switch at the NS expiry
// (60 min, ~90% of resolvers); out-of-bailiwick servers are trusted to the
// A record's own 120 min; a sticky/parent-centric minority never switches.

#include "bench_common.h"
#include "core/bailiwick_experiment.h"
#include "core/sharded.h"
#include "par/pool.h"
#include "stats/cdf.h"
#include "stats/table.h"

using namespace dnsttl;

namespace {

void print_run(const char* name, const core::BailiwickResult& result,
               const atlas::Platform& platform) {
  std::printf("--- %s ---\n", name);
  std::printf("VPs=%zu queries=%zu timeouts=%zu responses=%zu valid=%zu\n",
              platform.vp_count(), result.run.query_count(),
              result.run.timeout_count(), result.run.response_count(),
              result.run.valid_count());
  std::printf("\nTimeseries of answers (10-minute bins; Figures 6/7):\n%s\n",
              result.series.render().c_str());
  std::printf("sticky VPs: %zu  sticky resolvers: %zu\n",
              result.sticky_vp_count(), result.sticky_resolver_count());
  std::map<std::string, std::pair<std::size_t, std::size_t>> by_profile;
  for (const auto& [key, vp] : result.vps) {
    auto& bucket = by_profile[platform.profile_of(vp.resolver)];
    ++bucket.first;
    if (vp.sticky()) ++bucket.second;
  }
  std::printf("per-profile VPs (sticky/total):");
  for (const auto& [profile, counts] : by_profile) {
    std::printf(" %s=%zu/%zu", profile.c_str(), counts.second, counts.first);
  }
  std::printf("\n");
  std::printf("switched to new server by t=85min: %.0f%%  by t=145min: "
              "%.0f%%\n\n",
              100 * result.switched_fraction_by(85),
              100 * result.switched_fraction_by(145));
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  bench::JsonReport json("table3_4_fig678_bailiwick", args);
  bench::print_header("Table 3/4 + Figures 6/7/8",
                      "in- vs out-of-bailiwick renumbering");

  // Separate worlds (the paper ran the experiments on different days), but
  // the same seed: probe/resolver assignments are identical, so VP keys
  // match across runs for the Figure 8 analysis.  Each experiment shards
  // its probe slice over identical world replicas (see core::sharded).
  auto factory = core::make_env_factory(
      core::World::Options{args.seed, 0.002, {}}, args.platform_spec());
  auto meta = factory();
  const std::size_t shards =
      par::shard_count_for(meta.platform->probes().size());

  core::BailiwickConfig in_config;
  in_config.in_bailiwick = true;
  auto in_result =
      core::run_bailiwick_sharded(factory, in_config, shards, args.jobs);
  core::BailiwickConfig out_config;
  out_config.in_bailiwick = false;
  auto out_result =
      core::run_bailiwick_sharded(factory, out_config, shards, args.jobs);

  atlas::Platform* platform_in = meta.platform.get();
  atlas::Platform* platform_out = meta.platform.get();

  print_run("in-bailiwick (NS 3600 s / A 7200 s, renumber at 9 min)",
            in_result, *platform_in);
  print_run("out-of-bailiwick (ns1.zurroundeddu.com)", out_result,
            *platform_out);

  // Table 4: resolver classification.
  stats::TablePrinter table4({"", "in-bailiwick", "out-of-bailiwick"});
  table4.add_row({"Sticky VPs", std::to_string(in_result.sticky_vp_count()),
                  std::to_string(out_result.sticky_vp_count())});
  table4.add_row({"Sticky resolvers",
                  std::to_string(in_result.sticky_resolver_count()),
                  std::to_string(out_result.sticky_resolver_count())});
  std::printf("Table 4 — sticky-resolver classification:\n%s\n",
              table4.render().c_str());

  double in_sticky_pct = 100.0 * static_cast<double>(in_result.sticky_vp_count()) /
                         static_cast<double>(platform_in->vp_count());
  double out_sticky_pct =
      100.0 * static_cast<double>(out_result.sticky_vp_count()) /
      static_cast<double>(platform_out->vp_count());

  std::printf("%s", stats::compare_line(
                        "in-bailiwick: switched by NS expiry (+1 probe round)",
                        "~90%",
                        stats::fmt("%.0f%%",
                                   100 * in_result.switched_fraction_by(85)))
                        .c_str());
  std::printf("%s", stats::compare_line(
                        "out-of-bailiwick: switched by NS expiry (should be low)",
                        "small",
                        stats::fmt("%.0f%%",
                                   100 * out_result.switched_fraction_by(85)))
                        .c_str());
  std::printf("%s", stats::compare_line(
                        "out-of-bailiwick: switched by A expiry (+1 probe round)",
                        "most",
                        stats::fmt("%.0f%%",
                                   100 * out_result.switched_fraction_by(145)))
                        .c_str());
  std::printf("%s", stats::compare_line("in-bailiwick sticky VPs", "2.25%",
                                        stats::fmt("%.1f%%", in_sticky_pct))
                        .c_str());
  std::printf("%s", stats::compare_line("out-of-bailiwick sticky VPs",
                                        "17.8%",
                                        stats::fmt("%.1f%%", out_sticky_pct))
                        .c_str());

  // Figure 8: matched VPs — out-of-bailiwick-sticky VPs observed in the
  // in-bailiwick run mostly behave normally there.
  auto ratios = core::matched_vp_new_ratios(in_result, out_result);
  if (!ratios.empty()) {
    stats::Cdf cdf(ratios);
    std::printf("\nFigure 8 — new-server response ratio of matched VPs "
                "(out-sticky, in-bailiwick behavior):\n");
    std::printf("%s", cdf.render({0.0, 0.25, 0.5, 0.75, 0.9, 1.0},
                                 "new-server ratio")
                          .c_str());
    std::printf("%s", stats::compare_line(
                          "matched VPs mostly fetch from the new server",
                          "most >0.5",
                          stats::fmt("%.0f%% above 0.5",
                                     100 * (1.0 - cdf.fraction_at_most(0.5))))
                          .c_str());
  }
  return json.finish();
}
