// Reproduces Figures 3 and 4: passive analysis of the .nl TLD from the
// authoritative side.  Resolvers generate two days of demand for .nl
// names; we observe the query logs of 2 of the 4 ns[1-4].dns.nl servers
// and group queries for the nameserver A records by (resolver, qname).
// The paper finds 52% of groups send more than one query (child-centric,
// following the 1-hour child TTL instead of the 2-day root glue), with
// interarrival bumps at multiples of one hour.

#include "bench_common.h"
#include "crawl/passive_workload.h"
#include "stats/table.h"

using namespace dnsttl;

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  bench::JsonReport json("fig3_fig4_nl_passive", args);
  bench::print_header("Figure 3 + Figure 4",
                      ".nl passive resolver-centricity analysis");

  core::World world{core::World::Options{args.seed, 0.002, {}}};

  crawl::PassiveConfig config;
  config.resolver_count = std::max<std::size_t>(
      200, static_cast<std::size_t>(20000 * args.scale));
  std::printf(
      "resolvers=%zu duration=48h parent(root glue)=172800s child=3600s\n"
      "(paper observed 205k resolvers; counts scale, ratios hold — see "
      "DESIGN.md)\n\n",
      config.resolver_count);

  auto report = crawl::run_passive_nl(world, config);

  std::printf("client queries:              %zu\n", report.client_queries);
  std::printf("queries at observed auths:   %zu\n", report.logged_queries);
  std::printf("unique resolvers observed:   %zu\n", report.unique_resolvers);
  std::printf("(resolver, qname) groups:    %zu\n", report.groups);
  std::printf("single-query groups:         %zu (%.0f%%)\n",
              report.single_query_groups, 100 * report.single_fraction);
  std::printf("multi-query groups:          %.0f%%\n\n",
              100 * report.multi_fraction);

  std::printf("Figure 3 — CDF of A queries per (resolver, qname) group:\n");
  std::printf("%s\n",
              report.queries_per_group
                  .render({1, 2, 3, 5, 10, 20, 50}, "queries/group (all)")
                  .c_str());
  std::printf("%s\n",
              report.queries_per_group_filtered
                  .render({1, 2, 3, 5, 10, 20, 50},
                          "queries/group (filtered >2s)")
                  .c_str());

  std::printf("Figure 4 — CDF of minimum interarrival (hours), multi-query "
              "groups:\n");
  std::printf("%s\n",
              report.min_interarrival_hours
                  .render({0.5, 1.0, 1.5, 2.0, 3.0, 6.0, 12.0, 24.0},
                          "min interarrival (h)")
                  .c_str());
  // The 1-hour "bumps": fraction of minimum interarrivals within 10% of
  // exact multiples of the 3600 s child TTL.
  double near_multiple = 0.0;
  std::size_t n = report.min_interarrival_hours.count();
  if (n > 0) {
    std::size_t hits = 0;
    for (const auto& [h, count] : report.min_interarrival_hours.runs()) {
      double nearest = std::max(1.0, std::round(h));
      if (std::abs(h - nearest) < 0.10 * nearest) hits += count;
    }
    near_multiple = static_cast<double>(hits) / static_cast<double>(n);
  }

  std::printf("%s",
              stats::compare_line("multi-query (child-centric) groups",
                                  "52%",
                                  stats::fmt("%.0f%%",
                                             100 * report.multi_fraction))
                  .c_str());
  std::printf("%s",
              stats::compare_line(
                  "single-query sources also child-centric elsewhere", "14%",
                  stats::fmt("%.0f%%", 100 * report.single_ips_also_multi))
                  .c_str());
  std::printf("%s",
              stats::compare_line(
                  "min-interarrivals near 1h multiples (the Fig 4 bumps)",
                  "visible bumps",
                  stats::fmt("%.0f%% of groups", 100 * near_multiple))
                  .c_str());
  return json.finish();
}
