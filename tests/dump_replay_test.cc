// Tests for cache introspection and deterministic replay.

#include <gtest/gtest.h>

#include "core/centricity_experiment.h"
#include "core/world.h"
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

}  // namespace
}  // namespace dnsttl
