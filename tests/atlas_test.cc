#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "atlas/measurement.h"
#include "atlas/platform.h"
#include "core/world.h"
#include "dns/rr.h"
#include "sim/rng.h"

namespace dnsttl::atlas {
namespace {

PlatformSpec small_spec() {
  PlatformSpec spec;
  spec.probe_count = 200;
  spec.resolver_count = 150;
  return spec;
}

TEST(PlatformTest, BuildsProbesAndVps) {
  core::World world;
  auto platform = Platform::build(world.network(), world.hints(),
                                  world.root_zone(), small_spec(),
                                  world.rng());
  EXPECT_EQ(platform.probes().size(), 200u);
  // ~1.7 VPs per probe.
  EXPECT_GT(platform.vp_count(), 250u);
  EXPECT_LT(platform.vp_count(), 400u);
  EXPECT_EQ(platform.resolver_population().size(), 150u);
}

TEST(PlatformTest, EveryProbeHasAtLeastOneResolver) {
  core::World world;
  auto platform = Platform::build(world.network(), world.hints(),
                                  world.root_zone(), small_spec(),
                                  world.rng());
  for (const auto& probe : platform.probes()) {
    EXPECT_FALSE(probe.resolvers.empty());
    for (auto resolver : probe.resolvers) {
      EXPECT_TRUE(world.network().is_attached(resolver));
    }
  }
}

TEST(PlatformTest, RejectsEmptyResolverPopulationBeforeAnyDraw) {
  core::World world;
  PlatformSpec spec = small_spec();
  spec.resolver_count = 0;  // used to index past an empty population
  sim::Rng untouched = world.rng();
  EXPECT_THROW((void)Platform::build(world.network(), world.hints(),
                                     world.root_zone(), spec, world.rng()),
               std::invalid_argument);
  EXPECT_EQ(world.rng().next(), untouched.next());
}

TEST(PlatformTest, PublicServicesAreAnycast) {
  core::World world;
  auto platform = Platform::build(world.network(), world.hints(),
                                  world.root_zone(), small_spec(),
                                  world.rng());
  EXPECT_EQ(world.network().site_count(platform.google_anycast()), 6u);
  EXPECT_EQ(world.network().site_count(platform.opendns_anycast()), 6u);
  EXPECT_TRUE(platform.is_public(platform.google_anycast()));
  EXPECT_FALSE(platform.is_public(
      platform.resolver_population().members()[0].address));
}

TEST(PlatformTest, ProfileLookupCoversAllKinds) {
  core::World world;
  auto platform = Platform::build(world.network(), world.hints(),
                                  world.root_zone(), small_spec(),
                                  world.rng());
  EXPECT_EQ(platform.profile_of(platform.google_anycast()), "public-google");
  EXPECT_EQ(platform.profile_of(platform.opendns_anycast()),
            "public-opendns");
  const auto& member = platform.resolver_population().members()[0];
  EXPECT_EQ(platform.profile_of(member.address), member.profile);
  EXPECT_EQ(platform.profile_of(dns::Ipv4(9, 9, 9, 9)), "?");
}

TEST(PlatformTest, HomeResolverSharesProbePop) {
  core::World world;
  PlatformSpec spec = small_spec();
  spec.public_resolver_fraction = 0.0;
  spec.forwarder_fraction = 0.0;
  auto platform = Platform::build(world.network(), world.hints(),
                                  world.root_zone(), spec, world.rng());
  std::size_t matched = 0;
  for (const auto& probe : platform.probes()) {
    for (const auto& member : platform.resolver_population().members()) {
      if (member.address == probe.resolvers[0] &&
          member.location.pop_id == probe.ref.location.pop_id) {
        ++matched;
        break;
      }
    }
  }
  // The first resolver slot is the co-located "home" resolver.
  EXPECT_EQ(matched, platform.probes().size());
}

TEST(MeasurementTest, SchedulesOneQueryPerVpPerRound) {
  core::World world;
  world.add_tld("uy", "a.nic", dns::kTtl2Days, dns::kTtl5Min, dns::Ttl{120},
                net::Location{net::Region::kSA, 1.0});
  auto platform = Platform::build(world.network(), world.hints(),
                                  world.root_zone(), small_spec(),
                                  world.rng());
  MeasurementSpec spec;
  spec.name = "test";
  spec.qname = dns::Name::from_string("uy");
  spec.qtype = dns::RRType::kNS;
  spec.duration = 30 * sim::kMinute;  // 3 rounds
  auto run = MeasurementRun::execute(world.simulation(), world.network(),
                                     platform, spec, world.rng());
  EXPECT_EQ(run.query_count(), platform.vp_count() * 3);
  EXPECT_GT(run.valid_count(), run.query_count() * 9 / 10);
  EXPECT_EQ(run.valid_count() + run.discarded_count(), run.response_count());
}

TEST(MeasurementTest, PerProbeQnamesAreDistinct) {
  core::World world;
  auto zone = world.add_tld("test", "ns1", dns::Ttl{3600}, dns::Ttl{3600}, dns::Ttl{3600},
                            net::Location{net::Region::kEU, 1.0});
  PlatformSpec spec_p = small_spec();
  spec_p.probe_count = 10;
  auto platform = Platform::build(world.network(), world.hints(),
                                  world.root_zone(), spec_p, world.rng());
  for (const auto& probe : platform.probes()) {
    zone->add(dns::make_aaaa(
        dns::Name::from_string("p" + std::to_string(probe.id) + ".test"), dns::Ttl{60},
        dns::Ipv6::from_string("2001:db8::1")));
  }
  MeasurementSpec spec;
  spec.name = "probeid";
  spec.qname = dns::Name::from_string("test");
  spec.per_probe_qname = true;
  spec.qtype = dns::RRType::kAAAA;
  spec.duration = 10 * sim::kMinute;
  auto run = MeasurementRun::execute(world.simulation(), world.network(),
                                     platform, spec, world.rng());
  EXPECT_GT(run.valid_count(), 0u);
  for (const auto& sample : run.samples()) {
    if (!sample.timeout && sample.has_answer) {
      EXPECT_EQ(sample.rdata, "2001:db8::1");
    }
  }
}

TEST(MeasurementTest, TtlAndRttCdfsCoverValidSamples) {
  core::World world;
  world.add_tld("uy", "a.nic", dns::kTtl2Days, dns::kTtl5Min, dns::Ttl{120},
                net::Location{net::Region::kSA, 1.0});
  auto platform = Platform::build(world.network(), world.hints(),
                                  world.root_zone(), small_spec(),
                                  world.rng());
  MeasurementSpec spec;
  spec.name = "cdf";
  spec.qname = dns::Name::from_string("uy");
  spec.qtype = dns::RRType::kNS;
  spec.duration = 20 * sim::kMinute;
  auto run = MeasurementRun::execute(world.simulation(), world.network(),
                                     platform, spec, world.rng());
  EXPECT_EQ(run.ttl_cdf().count(), run.valid_count());
  EXPECT_EQ(run.rtt_cdf_ms().count(), run.valid_count());

  std::size_t regional = 0;
  for (net::Region region : net::kAllRegions) {
    regional += run.rtt_cdf_ms(region, platform).count();
  }
  EXPECT_EQ(regional, run.valid_count());
}

TEST(MeasurementTest, DetachedZoneYieldsTimeoutsNotCrashes) {
  core::World world;  // no TLD configured: every resolution SERVFAILs
  auto platform = Platform::build(world.network(), world.hints(),
                                  world.root_zone(), small_spec(),
                                  world.rng());
  MeasurementSpec spec;
  spec.name = "nothing";
  spec.qname = dns::Name::from_string("unconfigured");
  spec.qtype = dns::RRType::kA;
  spec.duration = 10 * sim::kMinute;
  auto run = MeasurementRun::execute(world.simulation(), world.network(),
                                     platform, spec, world.rng());
  EXPECT_EQ(run.valid_count(), 0u);
  EXPECT_EQ(run.query_count(), platform.vp_count());
}

}  // namespace
}  // namespace dnsttl::atlas
