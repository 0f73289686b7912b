// Ablation: each resolver design choice in isolation, on one fixed
// workload (the .uy layout of §3.2).  For every policy knob DESIGN.md
// calls out — centricity, glue↔NS linkage, TTL caps, stickiness,
// authoritative address verification, SRTT server selection, DNSSEC
// validation, prefetch — a single-profile population runs the same
// 2-hour NS measurement and reports what the knob changes: the observed
// TTL, client latency, and upstream/authoritative load.

#include <functional>
#include <vector>

#include "bench_common.h"
#include "core/centricity_experiment.h"
#include "dns/dnssec.h"
#include "par/pool.h"
#include "stats/table.h"

using namespace dnsttl;

namespace {

struct Variant {
  std::string name;
  resolver::ResolverConfig config;
};

std::vector<Variant> variants() {
  std::vector<Variant> out;
  out.push_back({"baseline (child-centric)", resolver::child_centric_config()});
  out.push_back({"parent-centric", resolver::parent_centric_config()});
  out.push_back({"opendns (parent+local root)", resolver::opendns_like_config()});
  out.push_back({"sticky", resolver::sticky_config()});
  {
    auto c = resolver::child_centric_config();
    c.link_glue_to_ns = false;
    out.push_back({"no glue<->NS linkage", c});
  }
  {
    auto c = resolver::child_centric_config();
    c.fetch_authoritative_ns_addresses = false;
    out.push_back({"no address verification", c});
  }
  {
    auto c = resolver::child_centric_config();
    c.srtt_selection = false;
    out.push_back({"round-robin server selection", c});
  }
  out.push_back({"21599s cap (google-like)", resolver::google_like_config()});
  {
    auto c = resolver::child_centric_config();
    c.max_ttl = dns::Ttl{600};
    out.push_back({"600s cap", c});
  }
  {
    auto c = resolver::child_centric_config();
    c.min_ttl = dns::Ttl{3600};
    out.push_back({"3600s floor", c});
  }
  {
    auto c = resolver::child_centric_config();
    c.validate_dnssec = true;
    out.push_back({"DNSSEC validation", c});
  }
  {
    auto c = resolver::child_centric_config();
    c.prefetch = true;
    out.push_back({"prefetch", c});
  }
  {
    auto c = resolver::child_centric_config();
    c.serve_stale = true;
    out.push_back({"serve-stale", c});
  }
  {
    auto c = resolver::child_centric_config();
    c.qname_minimization = true;
    out.push_back({"QNAME minimization", c});
  }
  return out;
}

/// Runs the 2-hour NS measurement for one variant in its own world and
/// returns its table row.
std::vector<std::string> measure(const bench::BenchArgs& args,
                                 const Variant& variant) {
  core::World world{core::World::Options{args.seed, 0.002, {}}};
  auto uy_zone = world.add_tld("uy", "a.nic", dns::kTtl2Days, dns::kTtl5Min,
                               dns::Ttl{120},
                               net::Location{net::Region::kSA, 1.0});
  // The zone is signed so the validation variant has signatures to check.
  dns::sign_zone(*uy_zone, dns::make_zone_key(dns::Name::from_string("uy")));

  atlas::PlatformSpec spec;
  spec.probe_count = std::max<std::size_t>(
      60, static_cast<std::size_t>(1200 * args.scale));
  spec.resolver_count = std::max<std::size_t>(
      40, static_cast<std::size_t>(800 * args.scale));
  spec.public_resolver_fraction = 0.0;
  spec.forwarder_fraction = 0.0;
  spec.profiles = {{"variant", variant.config, 1.0}};
  auto platform = atlas::Platform::build(world.network(), world.hints(),
                                         world.root_zone(), spec,
                                         world.rng());

  core::CentricitySetup setup;
  setup.name = variant.name;
  setup.qname = dns::Name::from_string("uy");
  setup.qtype = dns::RRType::kNS;
  setup.parent_ttl = dns::kTtl2Days;
  setup.child_ttl = dns::kTtl5Min;
  setup.duration = 2 * sim::kHour;
  auto result = core::run_centricity(world, platform, setup);

  std::uint64_t upstream = 0;
  std::uint64_t clients = 0;
  for (const auto& member : platform.resolver_population().members()) {
    upstream += member.resolver->stats().upstream_queries;
    clients += member.resolver->stats().client_queries;
  }
  auto ttl_cdf = result.run.ttl_cdf();
  auto rtt_cdf = result.run.rtt_cdf_ms();
  return {variant.name,
          ttl_cdf.empty() ? "-" : stats::fmt("%.0f s", ttl_cdf.median()),
          ttl_cdf.empty() ? "-" : stats::fmt("%.0f s", ttl_cdf.quantile(0.9)),
          rtt_cdf.empty() ? "-" : stats::fmt("%.1f ms", rtt_cdf.median()),
          clients == 0 ? "-"
                       : stats::fmt("%.2f", static_cast<double>(upstream) /
                                                static_cast<double>(clients)),
          std::to_string(world.server("a.nic.uy.").queries_answered())};
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  bench::JsonReport json("ablation_policies", args);
  bench::print_header("Ablation", "resolver policy knobs on the .uy workload");

  stats::TablePrinter table({"variant", "median TTL", "p90 TTL",
                             "median RTT", "upstream q / client q",
                             "auth queries"});

  for (auto& row : par::map_grid(args.jobs, std::bind_front(measure, args),
                                 variants())) {
    table.add_row(std::move(row));
  }

  std::printf("%s\n", table.render().c_str());
  std::printf(
      "reading guide:\n"
      "  - parent-centric/opendns: median TTL jumps to the 2-day parent copy\n"
      "  - caps/floors: the served TTL band is clamped\n"
      "  - no address verification: fewer authoritative queries\n"
      "  - DNSSEC validation: extra DNSKEY fetches (higher load)\n"
      "  - prefetch: fewer client-visible misses at slightly higher load\n");
  return json.finish();
}
