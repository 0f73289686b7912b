// Reproduces Table 10 and Figure 11: the §6.2 controlled experiments on
// mapache-de-madrid.co.  Five configurations — unique query names at TTL 60
// and 86400, a shared name at TTL 60 and 86400, and a 45-site anycast
// service at TTL 60 — measured both from the clients (latency CDFs) and at
// the authoritative (query volume).
//
// The five configurations are independent experiments (the paper ran
// them on separate days), so each is one par::map_grid point with its own
// fresh world + platform; results keep config order, so output is
// byte-identical for any --jobs value.

#include <vector>

#include "bench_common.h"
#include "core/latency_experiment.h"
#include "core/sharded.h"
#include "par/pool.h"
#include "stats/table.h"

using namespace dnsttl;

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Table 10 + Figure 11",
                      "controlled TTL / anycast latency & load experiments");
  bench::JsonReport json("table10_fig11_controlled", args);

  auto factory = core::make_env_factory(
      core::World::Options{args.seed, 0.002, {}}, args.platform_spec());
  auto meta = factory();
  std::printf("platform: %zu probes, %zu VPs\n\n",
              meta.platform->probes().size(), meta.platform->vp_count());
  meta = {};

  std::vector<core::ControlledTtlConfig> configs;
  {
    core::ControlledTtlConfig c;
    c.name = "TTL60-u";
    c.answer_ttl = dns::Ttl{60};
    c.unique_qnames = true;
    configs.push_back(c);
    c.name = "TTL86400-u";
    c.answer_ttl = dns::kTtl1Day;
    configs.push_back(c);
    c.name = "TTL60-s";
    c.answer_ttl = dns::Ttl{60};
    c.unique_qnames = false;
    c.shared_label = "1";
    c.duration = 65 * sim::kMinute;
    configs.push_back(c);
    c.name = "TTL86400-s";
    c.answer_ttl = dns::kTtl1Day;
    c.shared_label = "2";
    configs.push_back(c);
    c.name = "TTL60-s-anycast";
    c.answer_ttl = dns::Ttl{60};
    c.shared_label = "4";
    c.anycast = true;
    configs.push_back(c);
  }

  auto results = par::map_grid(
      args.jobs,
      [&](const core::ControlledTtlConfig& config) {
        auto env = factory();  // a fresh world per config: separate days
        return core::run_controlled_ttl(*env.world, *env.platform, config);
      },
      configs);
  const double parallel_wall = json.elapsed_seconds();
  for (std::size_t i = 0; i < results.size(); ++i) {
    json.add_metric(configs[i].name, "queries/sec",
                    results[i].run.query_count(), parallel_wall);
  }

  // ---- Table 10 ----
  stats::TablePrinter table({"", "TTL60-u", "TTL86400-u", "TTL60-s",
                             "TTL86400-s", "TTL60-s-anycast"});
  auto row = [&](const std::string& label, auto getter) {
    std::vector<std::string> cells{label};
    for (std::size_t i = 0; i < results.size(); ++i) {
      cells.push_back(getter(results[i]));
    }
    table.add_row(std::move(cells));
  };
  row("Queries (client)", [](const core::ControlledTtlResult& r) {
    return std::to_string(r.run.query_count());
  });
  row("Responses (valid)", [](const core::ControlledTtlResult& r) {
    return std::to_string(r.run.valid_count());
  });
  row("Querying IPs (auth)", [](const core::ControlledTtlResult& r) {
    return std::to_string(r.auth_unique_ips);
  });
  row("Queries (auth)", [](const core::ControlledTtlResult& r) {
    return std::to_string(r.auth_queries);
  });
  row("median RTT (ms)", [](const core::ControlledTtlResult& r) {
    return stats::fmt("%.2f", r.median_rtt_ms);
  });
  std::printf("Table 10 — TTL experiments, client and authoritative view:\n%s\n",
              table.render().c_str());

  // ---- Figure 11 ----
  const auto print_cdf = [&](std::size_t i) {
    std::printf("%s\n", results[i]
                            .run.rtt_cdf_ms()
                            .render({5, 10, 25, 50, 100, 200, 500},
                                    configs[i].name)
                            .c_str());
  };
  std::printf("Figure 11a — latency CDF, unique query names:\n");
  print_cdf(0);
  print_cdf(1);
  std::printf("Figure 11b — latency CDF, shared query names (+anycast):\n");
  for (std::size_t i = 2; i < results.size(); ++i) {
    print_cdf(i);
  }

  double load_drop_u = 100.0 * (1.0 - static_cast<double>(results[1].auth_queries) /
                                          static_cast<double>(results[0].auth_queries));
  double load_drop_s = 100.0 * (1.0 - static_cast<double>(results[3].auth_queries) /
                                          static_cast<double>(results[2].auth_queries));
  std::printf("%s", stats::compare_line(
                        "authoritative load drop, long vs short TTL (unique)",
                        "~66% (127k->43k)",
                        stats::fmt("%.0f%% (%llu -> %llu)", load_drop_u,
                                   static_cast<unsigned long long>(
                                       results[0].auth_queries),
                                   static_cast<unsigned long long>(
                                       results[1].auth_queries)))
                        .c_str());
  std::printf("%s", stats::compare_line(
                        "authoritative load drop (shared)", "~78% (92k->20k)",
                        stats::fmt("%.0f%%", load_drop_s))
                        .c_str());
  std::printf("%s", stats::compare_line("median RTT TTL60-u vs TTL86400-u",
                                        "49.28 ms vs 9.68 ms",
                                        stats::fmt("%.2f ms vs %.2f ms",
                                                   results[0].median_rtt_ms,
                                                   results[1].median_rtt_ms))
                        .c_str());
  std::printf("%s", stats::compare_line(
                        "median RTT shared: TTL60 / anycast / TTL86400",
                        "35.59 / 29.95 / 7.38 ms",
                        stats::fmt("%.2f / %.2f / %.2f ms",
                                   results[2].median_rtt_ms,
                                   results[4].median_rtt_ms,
                                   results[3].median_rtt_ms))
                        .c_str());
  std::printf("%s", stats::compare_line(
                        "caching beats anycast at the median", "yes",
                        results[3].median_rtt_ms < results[4].median_rtt_ms
                            ? "yes"
                            : "no")
                        .c_str());
  return json.finish();
}
