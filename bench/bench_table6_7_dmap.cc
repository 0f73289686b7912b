// Reproduces Tables 6 and 7: DMap content classification of .nl domains
// (placeholder / e-commerce / parking) and the median TTL per class and
// record type.

#include "bench_common.h"
#include "crawl/dmap.h"
#include "crawl/engine.h"
#include "stats/table.h"

using namespace dnsttl;

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  bench::JsonReport json("table6_7_dmap", args);
  bench::print_header("Table 6 + Table 7",
                      ".nl content classes and their TTL choices");

  sim::Rng rng(args.seed);
  auto params = crawl::nl_params(std::max<std::size_t>(
      5000, static_cast<std::size_t>(500000 * args.scale)));
  crawl::EngineOptions options;
  options.jobs = args.jobs;
  options.collect_content = true;  // DMap classification rides the crawl
  auto report = crawl::crawl_engine(params, rng.fork(0), options).dmap;

  stats::TablePrinter table6({"Categories", "#", "share"});
  const auto classes = {crawl::ContentClass::kPlaceholder,
                        crawl::ContentClass::kEcommerce,
                        crawl::ContentClass::kParking};
  for (auto content : classes) {
    auto it = report.class_counts.find(content);
    std::size_t count = it == report.class_counts.end() ? 0 : it->second;
    table6.add_row({std::string(crawl::to_string(content)),
                    std::to_string(count),
                    stats::fmt("%.1f%%", 100.0 * static_cast<double>(count) /
                                             static_cast<double>(
                                                 report.total_classified()))});
  }
  table6.add_row({"Total", std::to_string(report.total_classified()), ""});
  std::printf("Table 6 — .nl classified domains (DMap):\n%s\n",
              table6.render().c_str());

  stats::TablePrinter table7(
      {"", "Ecommerce", "Parking", "Placeholder"});
  for (auto type : {dns::RRType::kNS, dns::RRType::kA, dns::RRType::kAAAA,
                    dns::RRType::kMX, dns::RRType::kDNSKEY}) {
    std::vector<std::string> cells{std::string(dns::to_string(type))};
    for (auto content : {crawl::ContentClass::kEcommerce,
                         crawl::ContentClass::kParking,
                         crawl::ContentClass::kPlaceholder}) {
      auto it = report.median_ttl_hours.find({content, type});
      cells.push_back(it == report.median_ttl_hours.end()
                          ? "-"
                          : stats::fmt("%.1f", it->second));
    }
    table7.add_row(std::move(cells));
  }
  std::printf("Table 7 — median TTL (hours) per class:\n%s\n",
              table7.render().c_str());

  auto median = [&](crawl::ContentClass content, dns::RRType type) {
    auto it = report.median_ttl_hours.find({content, type});
    return it == report.median_ttl_hours.end() ? -1.0 : it->second;
  };
  std::printf("%s", stats::compare_line(
                        "Parking NS median", "24 h",
                        stats::fmt("%.0f h", median(crawl::ContentClass::kParking,
                                                    dns::RRType::kNS)))
                        .c_str());
  std::printf("%s",
              stats::compare_line(
                  "E-commerce / Placeholder NS median", "4 h",
                  stats::fmt("%.0f h / %.0f h",
                             median(crawl::ContentClass::kEcommerce,
                                    dns::RRType::kNS),
                             median(crawl::ContentClass::kPlaceholder,
                                    dns::RRType::kNS)))
                  .c_str());
  std::printf("%s", stats::compare_line(
                        "A-record median (all classes)", "1 h",
                        stats::fmt("%.0f h",
                                   median(crawl::ContentClass::kEcommerce,
                                          dns::RRType::kA)))
                        .c_str());
  return json.finish();
}
