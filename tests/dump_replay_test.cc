// Tests for cache introspection, deterministic replay, and a master-file
// render/parse property sweep.

#include <gtest/gtest.h>

#include "core/centricity_experiment.h"
#include "core/world.h"
#include "dns/master_file.h"
#include "dns/rr.h"

namespace dnsttl {
namespace {

using dns::Name;
using dns::RRType;

// ------------------------------------------------------------- cache dump

TEST(CacheDumpTest, ShowsLiveEntriesWithMetadata) {
  cache::Cache cache;
  dns::RRset ns(Name::from_string("uy"), dns::RClass::kIN, dns::Ttl{300});
  ns.add(dns::NsRdata{Name::from_string("a.nic.uy")});
  cache.insert(ns, cache::Credibility::kAuthAnswer, sim::Time{});
  dns::RRset glue(Name::from_string("a.nic.uy"), dns::RClass::kIN, dns::Ttl{120});
  glue.add(dns::ARdata{dns::Ipv4(10, 0, 0, 1)});
  cache.insert(glue, cache::Credibility::kGlue, sim::Time{},
               Name::from_string("uy"));
  cache.insert_negative(Name::from_string("gone.uy"), RRType::kA,
                        dns::Rcode::kNXDomain, dns::Ttl{60}, sim::Time{});

  std::string dump = cache.dump(sim::at(10 * sim::kSecond));
  EXPECT_NE(dump.find("uy. 290 NS a.nic.uy. ; auth-answer"),
            std::string::npos);
  EXPECT_NE(dump.find("linked=uy."), std::string::npos);
  EXPECT_NE(dump.find("negative NXDOMAIN"), std::string::npos);

  // Expired entries disappear from the dump.
  EXPECT_EQ(cache.dump(sim::at(400 * sim::kSecond)).find("a.nic.uy"),
            std::string::npos);
}

// ----------------------------------------------------------- determinism

TEST(DeterminismTest, IdenticalSeedsProduceIdenticalExperiments) {
  auto run_once = [](std::uint64_t seed) {
    core::World world{core::World::Options{seed, 0.002, {}}};
    world.add_tld("uy", "a.nic", dns::kTtl2Days, dns::kTtl5Min, dns::Ttl{120},
                  net::Location{net::Region::kSA, 1.0});
    atlas::PlatformSpec spec;
    spec.probe_count = 150;
    spec.resolver_count = 100;
    auto platform = atlas::Platform::build(world.network(), world.hints(),
                                           world.root_zone(), spec,
                                           world.rng());
    core::CentricitySetup setup;
    setup.name = "det";
    setup.qname = Name::from_string("uy");
    setup.qtype = RRType::kNS;
    setup.duration = 30 * sim::kMinute;
    return core::run_centricity(world, platform, setup);
  };

  auto a = run_once(77);
  auto b = run_once(77);
  auto c = run_once(78);

  ASSERT_EQ(a.run.samples().size(), b.run.samples().size());
  for (std::size_t i = 0; i < a.run.samples().size(); ++i) {
    EXPECT_EQ(a.run.samples()[i].sent, b.run.samples()[i].sent);
    EXPECT_EQ(a.run.samples()[i].rtt, b.run.samples()[i].rtt);
    EXPECT_EQ(a.run.samples()[i].ttl, b.run.samples()[i].ttl);
  }
  // A different seed genuinely changes the run.
  bool differs = a.run.samples().size() != c.run.samples().size();
  for (std::size_t i = 0;
       !differs && i < std::min(a.run.samples().size(),
                                c.run.samples().size());
       ++i) {
    differs = a.run.samples()[i].rtt != c.run.samples()[i].rtt;
  }
  EXPECT_TRUE(differs);
}

// ------------------------------------------- master-file property sweep

class MasterFileRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MasterFileRoundTrip, RandomZonesSurviveRenderParse) {
  sim::Rng rng(GetParam());
  dns::Zone zone{Name::from_string("prop.example")};
  zone.add(dns::make_soa(Name::from_string("prop.example"), dns::Ttl{3600},
                         Name::from_string("ns1.prop.example"),
                         static_cast<std::uint32_t>(rng.uniform_int(1, 1u << 30))));
  std::size_t records = rng.uniform_int(1, 40);
  for (std::size_t i = 0; i < records; ++i) {
    auto owner = Name::from_string("h" + std::to_string(i) + ".prop.example");
    auto ttl = dns::Ttl::of_seconds(static_cast<std::int64_t>(rng.uniform_int(0, 172800)));
    switch (rng.uniform_int(0, 4)) {
      case 0:
        zone.add(dns::make_a(owner, ttl,
                             dns::Ipv4(static_cast<std::uint32_t>(rng.next()))));
        break;
      case 1:
        zone.add(dns::make_ns(owner, ttl, Name::from_string("ns.example")));
        break;
      case 2:
        zone.add(dns::make_mx(owner, ttl,
                              static_cast<std::uint16_t>(rng.uniform_int(0, 99)),
                              Name::from_string("mx.example")));
        break;
      case 3:
        zone.add(dns::make_txt(owner, ttl,
                               "t" + std::to_string(rng.uniform_int(0, 999))));
        break;
      default:
        zone.add(dns::make_cname(owner, ttl, Name::from_string("www.example")));
    }
  }

  auto rendered = dns::render_master_file(zone);
  auto reparsed =
      dns::parse_master_file(rendered, Name::from_string("prop.example"));
  ASSERT_EQ(reparsed.rrset_count(), zone.rrset_count());
  for (const auto& rrset : zone.all_rrsets()) {
    auto copy = reparsed.find(rrset.name(), rrset.type());
    ASSERT_TRUE(copy.has_value()) << rrset.name().to_string();
    EXPECT_EQ(copy->ttl(), rrset.ttl());
    EXPECT_EQ(copy->rdatas(), rrset.rdatas());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MasterFileRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace dnsttl
