// Reproduces Table 5 and Figure 9: the §5.1 crawl of five domain
// populations (Alexa, Majestic, Umbrella top-1M; the .nl zone; the root
// zone TLDs) — record counts, unique-value ratios, and per-record-type TTL
// CDFs from the child authoritative view.  Populations are synthetic but
// calibrated per list (DESIGN.md §4); counts scale with --scale, ratios and
// CDF shapes hold.

#include <vector>

#include "bench_common.h"
#include "crawl/engine.h"
#include "stats/table.h"

using namespace dnsttl;

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  bench::JsonReport json("table5_fig9_crawl", args);
  bench::print_header("Table 5 + Figure 9",
                      "TTLs in the wild: five-list crawl");

  sim::Rng rng(args.seed);
  auto scaled = [&](std::size_t full) {
    // The paper's 1M-entry lists are generated at 1/10 scale by default; a
    // --scale of 1.0 therefore means 100k domains per top list.  The bulk
    // engine streams domains one at a time per shard instead of
    // materializing the population, so --scale 100 (10M per top list)
    // costs only the tally footprint (TTL samples, unique-value sets),
    // not the population's.
    return std::max<std::size_t>(2000,
                                 static_cast<std::size_t>(static_cast<double>(full) * args.scale));
  };

  std::vector<crawl::ListParams> lists = {
      crawl::alexa_params(scaled(100000)),
      crawl::majestic_params(scaled(100000)),
      crawl::umbrella_params(scaled(100000)),
      crawl::nl_params(scaled(500000)),
      crawl::root_params(),
  };

  crawl::EngineOptions options;
  options.jobs = args.jobs;
  std::vector<crawl::CrawlReport> reports;
  for (std::size_t i = 0; i < lists.size(); ++i) {
    // Each list crawls from its own forked stream, so lists are
    // independent and every shard regenerates exactly its own slice.
    reports.push_back(
        crawl::crawl_engine(lists[i], rng.fork(i), options).report);
  }

  // ---- Table 5: dataset sizes and per-type record counts/ratios ----
  stats::TablePrinter sizes({"", "Alexa", "Majestic", "Umbre.", ".nl",
                             "Root"});
  auto row = [&](const std::string& label, auto getter) {
    std::vector<std::string> cells{label};
    for (const auto& report : reports) {
      cells.push_back(getter(report));
    }
    sizes.add_row(std::move(cells));
  };
  row("domains", [](const crawl::CrawlReport& r) {
    return std::to_string(r.domains);
  });
  row("responsive", [](const crawl::CrawlReport& r) {
    return std::to_string(r.responsive);
  });
  row("ratio", [](const crawl::CrawlReport& r) {
    return stats::fmt("%.2f", r.responsive_ratio());
  });
  for (auto type : {dns::RRType::kNS, dns::RRType::kA, dns::RRType::kAAAA,
                    dns::RRType::kMX, dns::RRType::kDNSKEY,
                    dns::RRType::kCNAME}) {
    row(std::string(dns::to_string(type)), [type](const crawl::CrawlReport& r) {
      const auto* tally = r.by_type.find(type);
      return tally == nullptr ? "-" : std::to_string(tally->records);
    });
    row("  unique", [type](const crawl::CrawlReport& r) {
      const auto* tally = r.by_type.find(type);
      return tally == nullptr ? "-" : std::to_string(tally->unique_values);
    });
    row("  ratio", [type](const crawl::CrawlReport& r) {
      const auto* tally = r.by_type.find(type);
      return tally == nullptr ? "-" : stats::fmt("%.2f", tally->unique_ratio());
    });
  }
  std::printf("Table 5 — datasets and RR counts (child authoritative):\n%s\n",
              sizes.render().c_str());

  // ---- Figure 9: TTL CDFs per record type ----
  const std::vector<double> probes = {0,    60,    300,   900,   3600,
                                      7200, 14400, 43200, 86400, 172800};
  for (auto type : {dns::RRType::kNS, dns::RRType::kA, dns::RRType::kAAAA,
                    dns::RRType::kMX, dns::RRType::kDNSKEY}) {
    std::printf("Figure 9 — TTL CDF for %s records:\n",
                std::string(dns::to_string(type)).c_str());
    stats::TablePrinter cdf_table({"TTL(s)", "Alexa", "Majestic", "Umbre.",
                                   ".nl", "Root"});
    for (double p : probes) {
      std::vector<std::string> cells{stats::fmt("%.0f", p)};
      for (const auto& report : reports) {
        const auto* tally = report.by_type.find(type);
        cells.push_back(tally == nullptr || tally->ttl_cdf.empty()
                            ? "-"
                            : stats::fmt("%.2f",
                                         tally->ttl_cdf.fraction_at_most(p)));
      }
      cdf_table.add_row(std::move(cells));
    }
    std::printf("%s\n", cdf_table.render().c_str());
  }

  // ---- Headline comparisons ----
  const auto& root = reports[4];
  const auto& umbrella = reports[2];
  const auto& alexa = reports[0];
  double root_ns_long =
      1.0 - root.by_type.at(dns::RRType::kNS).ttl_cdf.fraction_below(86400);
  double umbrella_ns_1min =
      umbrella.by_type.at(dns::RRType::kNS).ttl_cdf.fraction_at_most(60);
  std::printf("%s", stats::compare_line("root NS TTLs at 1-2 days", "~80%",
                                        stats::fmt("%.0f%%",
                                                   100 * root_ns_long))
                        .c_str());
  std::printf("%s",
              stats::compare_line("Umbrella NS TTLs <= 1 minute", "25%",
                                  stats::fmt("%.0f%%", 100 * umbrella_ns_1min))
                  .c_str());
  std::printf("%s",
              stats::compare_line(
                  "Alexa NS unique ratio (shared hosting)", "9.19",
                  stats::fmt("%.2f",
                             alexa.by_type.at(dns::RRType::kNS).unique_ratio()))
                  .c_str());
  std::printf("%s",
              stats::compare_line(
                  ".nl NS unique ratio", "190.09",
                  stats::fmt("%.2f", reports[3]
                                         .by_type.at(dns::RRType::kNS)
                                         .unique_ratio()))
                  .c_str());
  std::printf("%s",
              stats::compare_line(
                  "NS/DNSKEY longest-lived, A/AAAA shortest", "holds",
                  stats::fmt(
                      "NS med=%.0fs A med=%.0fs DNSKEY med=%.0fs",
                      alexa.by_type.at(dns::RRType::kNS).ttl_cdf.median(),
                      alexa.by_type.at(dns::RRType::kA).ttl_cdf.median(),
                      alexa.by_type.at(dns::RRType::kDNSKEY).ttl_cdf.median()))
                  .c_str());
  return json.finish();
}
