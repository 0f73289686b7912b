// Reproduces Table 8: domains configured with TTL = 0 s per record type and
// list — rare, but they fully disable caching (§5.1.2 recommends against
// them).  Same five-list crawl as Tables 5 and 9: same lists, same forked
// streams, same engine.

#include <vector>

#include "bench_common.h"
#include "crawl/engine.h"
#include "stats/table.h"

using namespace dnsttl;

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  bench::JsonReport json("table8_ttl0", args);
  bench::print_header("Table 8", "domains with TTL=0 s per record type");

  sim::Rng rng(args.seed);
  auto scaled = [&](std::size_t full) {
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
    reports.push_back(
        crawl::crawl_engine(lists[i], rng.fork(i), options).report);
  }

  stats::TablePrinter table({"", "Alexa", "Majestic", "Umbrella", ".nl",
                             "Root"});
  std::size_t grand_total = 0;
  for (auto type : {dns::RRType::kNS, dns::RRType::kA, dns::RRType::kAAAA,
                    dns::RRType::kMX, dns::RRType::kDNSKEY}) {
    std::vector<std::string> cells{std::string(dns::to_string(type))};
    for (const auto& report : reports) {
      const auto* tally = report.by_type.find(type);
      std::size_t count = tally == nullptr ? 0 : tally->ttl_zero_domain_count;
      grand_total += count;
      cells.push_back(std::to_string(count));
    }
    table.add_row(std::move(cells));
  }
  std::printf("%s\n", table.render().c_str());

  const auto& root = reports[4];
  std::size_t root_zero = 0;
  for (const auto& [type, tally] : root.by_type) {
    root_zero += tally.ttl_zero_domain_count;
  }
  std::printf("%s", stats::compare_line(
                        "TTL=0 is rare but present in every big list",
                        "thousands per 1M",
                        stats::fmt("%zu total at this scale", grand_total))
                        .c_str());
  std::printf("%s", stats::compare_line("root zone has zero TTL=0 entries",
                                        "0",
                                        std::to_string(root_zero))
                        .c_str());
  std::printf("\nRecommendation (§5.1.2): do not set TTL=0 — it undermines\n"
              "caching, raising latency and removing DDoS resilience.\n");
  return json.finish();
}
