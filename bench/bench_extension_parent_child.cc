// Extension experiment: the full parent-vs-child TTL comparison the paper
// explicitly leaves as future work ("A full comparison of parent and child
// is future work", §5.1).  For every NS-responding domain in each list,
// the child's apex NS TTL is compared against the registry's delegation
// copy (172800 s for the gTLD-style lists, 3600 s for .nl children).

#include <vector>

#include "bench_common.h"
#include "crawl/crawler.h"
#include "stats/table.h"

using namespace dnsttl;

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  bench::JsonReport json("extension_parent_child", args);
  bench::print_header("Extension (paper future work)",
                      "parent vs child NS TTL across the five lists");

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
  };

  stats::TablePrinter table({"list", "registry TTL", "compared",
                             "child shorter", "equal", "child longer",
                             "median child/parent"});
  double nl_shorter = 0.0;
  for (std::size_t i = 0; i < lists.size(); ++i) {
    // Each list gets the forked stream the five-list crawl gives it, so
    // these are the domains Tables 5, 8 and 9 crawl.
    const auto& params = lists[i];
    auto report = crawl::compare_parent_child(params, rng.fork(i));
    if (params.name == ".nl") {
      nl_shorter = report.child_shorter_fraction();
    }
    table.add_row(
        {params.name, std::to_string(params.registry_ns_ttl.value()),
         std::to_string(report.compared),
         stats::fmt("%.1f%%", 100.0 * report.child_shorter_fraction()),
         stats::fmt("%.1f%%", 100.0 * static_cast<double>(report.equal) /
                                  static_cast<double>(report.compared)),
         stats::fmt("%.1f%%", 100.0 * static_cast<double>(report.child_longer) /
                                  static_cast<double>(report.compared)),
         report.child_over_parent_ratio.empty()
             ? "-"
             : stats::fmt("%.3f", report.child_over_parent_ratio.median())});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("%s", stats::compare_line(
                        ".nl children with NS TTL below the 1-hour parent "
                        "copy",
                        "~40% (paper §5.1)",
                        stats::fmt("%.0f%%", 100 * nl_shorter))
                        .c_str());
  std::printf(
      "\noperational reading (paper §6.3): whichever side is shorter, a\n"
      "parent-centric resolver minority will use the parent's copy — so\n"
      "registries and operators should keep both TTLs equal where the\n"
      "registry interface (EPP) allows it at all.\n");
  return json.finish();
}
