// Reproduces Table 9: bailiwick configuration in the wild — more than 90%
// of popular domains use exclusively out-of-bailiwick nameservers, while
// the root's TLDs split roughly half and half.

#include <vector>

#include "bench_common.h"
#include "crawl/engine.h"
#include "stats/table.h"

using namespace dnsttl;

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  bench::JsonReport json("table9_bailiwick_wild", args);
  bench::print_header("Table 9", "bailiwick distribution in the wild");

  sim::Rng rng(args.seed);
  auto scaled = [&](std::size_t full) {
    // Streaming engine: --scale 100 crawls 10M-domain top lists without
    // ever materializing the population (memory is the tally footprint).
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

  stats::TablePrinter table({"", "Alexa", "Majestic", "Umbre.", ".nl",
                             "Root"});
  auto row = [&](const std::string& label, auto getter) {
    std::vector<std::string> cells{label};
    for (const auto& report : reports) {
      cells.push_back(getter(report.bailiwick));
    }
    table.add_row(std::move(cells));
  };
  row("responsive", [](const crawl::BailiwickTally& b) {
    return std::to_string(b.responsive);
  });
  row("CNAME", [](const crawl::BailiwickTally& b) {
    return std::to_string(b.cname);
  });
  row("SOA", [](const crawl::BailiwickTally& b) {
    return std::to_string(b.soa);
  });
  row("respond NS", [](const crawl::BailiwickTally& b) {
    return std::to_string(b.respond_ns);
  });
  row("Out only", [](const crawl::BailiwickTally& b) {
    return std::to_string(b.out_only);
  });
  row("percent out", [](const crawl::BailiwickTally& b) {
    return b.respond_ns == 0
               ? "-"
               : stats::fmt("%.1f", 100.0 * static_cast<double>(b.out_only) /
                                        static_cast<double>(b.respond_ns));
  });
  row("In only", [](const crawl::BailiwickTally& b) {
    return std::to_string(b.in_only);
  });
  row("Mixed", [](const crawl::BailiwickTally& b) {
    return std::to_string(b.mixed);
  });
  std::printf("%s\n", table.render().c_str());

  auto pct_out = [](const crawl::CrawlReport& r) {
    return 100.0 * static_cast<double>(r.bailiwick.out_only) /
           static_cast<double>(r.bailiwick.respond_ns);
  };
  std::printf("%s", stats::compare_line("Alexa percent out-only", "95.0",
                                        stats::fmt("%.1f", pct_out(reports[0])))
                        .c_str());
  std::printf("%s", stats::compare_line(".nl percent out-only", "99.7",
                                        stats::fmt("%.1f", pct_out(reports[3])))
                        .c_str());
  std::printf("%s", stats::compare_line("Root percent out-only", "48.7",
                                        stats::fmt("%.1f", pct_out(reports[4])))
                        .c_str());
  return json.finish();
}
