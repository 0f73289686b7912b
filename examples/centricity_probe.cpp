// Centricity probe: run a miniature §3-style measurement against your own
// zone configuration.  Configure a TLD with any parent/child TTL pair and a
// small Atlas-like platform, then see how the resolver population splits
// between the two copies.
//
//   $ ./build/examples/centricity_probe [parent_ttl] [child_ttl]

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "bench_common.h"
#include "core/centricity_experiment.h"
#include "core/world.h"

using namespace dnsttl;

namespace {

/// A TTL argument in seconds; anything but a non-negative integer exits 2.
dns::Ttl parse_ttl(const char* flag, const char* text) {
  const std::uint64_t seconds =
      bench::BenchArgs::parse_u64("centricity_probe", flag, text);
  return dns::Ttl::of_seconds(static_cast<std::int64_t>(
      std::min<std::uint64_t>(seconds, dns::kMaxTtlSeconds)));
}

}  // namespace

int main(int argc, char** argv) {
  dns::Ttl parent_ttl =
      argc > 1 ? parse_ttl("parent_ttl", argv[1]) : dns::kTtl2Days;
  dns::Ttl child_ttl =
      argc > 2 ? parse_ttl("child_ttl", argv[2]) : dns::kTtl5Min;

  std::printf("centricity probe: parent NS TTL=%u s, child NS TTL=%u s\n\n",
              parent_ttl.value(), child_ttl.value());

  core::World world;
  world.add_tld("example", "a.nic", parent_ttl, child_ttl, child_ttl,
                net::Location{net::Region::kEU, 1.0});

  atlas::PlatformSpec spec;
  spec.probe_count = 1200;
  spec.resolver_count = 800;
  auto platform = atlas::Platform::build(world.network(), world.hints(),
                                         world.root_zone(), spec,
                                         world.rng());
  std::printf("measuring from %zu vantage points (%zu probes)...\n\n",
              platform.vp_count(), platform.probes().size());

  core::CentricitySetup setup;
  setup.name = "probe";
  setup.qname = dns::Name::from_string("example");
  setup.qtype = dns::RRType::kNS;
  setup.parent_ttl = parent_ttl;
  setup.child_ttl = child_ttl;
  setup.duration = 2 * sim::kHour;
  auto result = core::run_centricity(world, platform, setup);

  std::printf("%s\n\n", result.summary().c_str());
  auto cdf = result.run.ttl_cdf();
  std::printf("observed TTL distribution (sparkline, min=%u max=%u):\n[%s]\n\n",
              static_cast<unsigned>(cdf.min()),
              static_cast<unsigned>(cdf.max()),
              cdf.sparkline(60).c_str());

  std::printf(
      "interpretation:\n"
      "  %.0f%% of answers follow the child copy -> your zone's own TTL\n"
      "  %.0f%% follow the parent copy -> set both TTLs equal if you can\n",
      100 * result.at_most_child, 100 * result.above_child);
  return 0;
}
