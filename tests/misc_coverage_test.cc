// Coverage for corners not exercised elsewhere: config descriptions,
// population profile shares, latency-model region sanity, simulation
// accounting, and World helpers.

#include <gtest/gtest.h>

#include "core/world.h"
#include "dns/rr.h"
#include "net/latency.h"
#include "resolver/forwarder.h"
#include "resolver/population.h"

namespace dnsttl {
namespace {

TEST(ConfigDescribeTest, MentionsEveryActiveKnob) {
  resolver::ResolverConfig config;
  config.centricity = resolver::Centricity::kParentCentric;
  config.min_ttl = dns::Ttl{30};
  config.sticky = true;
  config.serve_stale = true;
  config.local_root = true;
  auto text = config.describe();
  EXPECT_NE(text.find("parent-centric"), std::string::npos);
  EXPECT_NE(text.find("min_ttl=30"), std::string::npos);
  EXPECT_NE(text.find("sticky"), std::string::npos);
  EXPECT_NE(text.find("serve-stale"), std::string::npos);
  EXPECT_NE(text.find("local-root"), std::string::npos);
}

TEST(ProfilesTest, WeightsArePositiveAndChildDominates) {
  auto profiles = resolver::paper_profiles();
  ASSERT_GE(profiles.size(), 7u);
  double total = 0.0;
  double child = 0.0;
  double parentish = 0.0;
  for (const auto& profile : profiles) {
    EXPECT_GT(profile.weight, 0.0) << profile.tag;
    total += profile.weight;
    if (profile.config.centricity == resolver::Centricity::kChildCentric &&
        !profile.config.sticky) {
      child += profile.weight;
    }
    if (profile.config.centricity == resolver::Centricity::kParentCentric) {
      parentish += profile.weight;
    }
  }
  // The §3 headline requires a dominant child-centric share and a ~10%
  // parent-centric minority.
  EXPECT_GT(child / total, 0.75);
  EXPECT_GT(parentish / total, 0.05);
  EXPECT_LT(parentish / total, 0.20);
}

TEST(ProfilesTest, PresetConfigsAreInternallyConsistent) {
  EXPECT_EQ(resolver::google_like_config().max_ttl, dns::Ttl{21599});
  EXPECT_EQ(resolver::child_centric_config().max_ttl, dns::kTtl1Week);
  EXPECT_TRUE(resolver::opendns_like_config().local_root);
  EXPECT_FALSE(
      resolver::opendns_like_config().fetch_authoritative_ns_addresses);
  EXPECT_TRUE(resolver::sticky_config().sticky);
  EXPECT_EQ(resolver::to_string(resolver::Centricity::kChildCentric),
            "child-centric");
}

TEST(RegionWeightsTest, AtlasSkewIsEuHeavy) {
  auto weights = resolver::atlas_region_weights();
  ASSERT_EQ(weights.size(), 6u);
  double total = 0.0;
  for (double w : weights) {
    EXPECT_GT(w, 0.0);
    total += w;
  }
  EXPECT_NEAR(total, 1.0, 0.01);
  // EU (index 2) dominates, as on the real platform.
  EXPECT_GT(weights[2], 0.4);
}

TEST(LatencySanityTest, FrankfurtSpreadMatchesFigure10b) {
  // Expected RTTs to an EU (Frankfurt-like) server must order the regions
  // the way Figure 10b does: EU < NA < AF/SA/AS < OC-ish.
  net::LatencyModel model;
  net::Location frankfurt{net::Region::kEU, 1.0};
  auto rtt_ms = [&](net::Region region) {
    return sim::to_milliseconds(
        model.expected_rtt(net::Location{region, 2.0}, frankfurt));
  };
  EXPECT_LT(rtt_ms(net::Region::kEU), rtt_ms(net::Region::kNA));
  EXPECT_LT(rtt_ms(net::Region::kNA), rtt_ms(net::Region::kAF));
  EXPECT_LT(rtt_ms(net::Region::kAF), rtt_ms(net::Region::kOC));
  EXPECT_GT(rtt_ms(net::Region::kOC), 200.0);
  EXPECT_LT(rtt_ms(net::Region::kEU), 30.0);
}

TEST(SimulationAccountingTest, PendingAndProcessedCounts) {
  sim::Simulation simulation;
  simulation.schedule_at(sim::at(sim::kSecond), [] {});
  simulation.schedule_at(sim::at(2 * sim::kSecond), [] {});
  EXPECT_EQ(simulation.pending(), 2u);
  simulation.run();
  EXPECT_EQ(simulation.pending(), 0u);
  EXPECT_EQ(simulation.events_processed(), 2u);
}

TEST(WorldHelperTest, CreateZoneAddsSoaWithRequestedTtl) {
  core::World world;
  auto zone = world.create_zone("helper.example", dns::Ttl{7200});
  auto soa = zone->soa();
  ASSERT_TRUE(soa.has_value());
  EXPECT_EQ(soa->ttl, dns::Ttl{7200});
  EXPECT_EQ(zone->origin(), dns::Name::from_string("helper.example"));
}

TEST(WorldHelperTest, HintsPointAtLiveServers) {
  core::World world;
  for (const auto& hint : world.hints().servers) {
    EXPECT_TRUE(world.network().is_attached(hint.address))
        << hint.name.to_string();
  }
}

TEST(ForwarderSelectionTest, RoundRobinAlternates) {
  core::World world{core::World::Options{1, 0.0, {}}};
  world.add_tld("zz", "a.nic", dns::Ttl{3600}, dns::Ttl{3600}, dns::Ttl{3600},
                net::Location{net::Region::kEU, 1.0});
  net::Location eu{net::Region::kEU, 1.0};

  std::vector<std::shared_ptr<resolver::RecursiveResolver>> backends;
  std::vector<net::Address> addresses;
  for (int i = 0; i < 2; ++i) {
    auto r = std::make_shared<resolver::RecursiveResolver>(
        "b" + std::to_string(i), resolver::child_centric_config(),
        world.network(), world.hints());
    r->set_node_ref(net::NodeRef{world.network().attach(*r, eu), eu});
    addresses.push_back(r->node_ref().address);
    backends.push_back(std::move(r));
  }
  resolver::Forwarder forwarder{"rr", world.network(), addresses,
                                resolver::Forwarder::Selection::kRoundRobin};
  forwarder.set_node_ref(
      net::NodeRef{world.network().attach(forwarder, eu), eu});

  for (int i = 0; i < 6; ++i) {
    auto query = dns::Message::make_query(
        static_cast<std::uint16_t>(i), dns::Name::from_string("zz"),
        dns::RRType::kNS);
    forwarder.handle_query(query, dns::Ipv4(1, 1, 1, 1),
                           sim::at(i * 10 * sim::kMinute));
  }
  EXPECT_EQ(backends[0]->stats().client_queries, 3u);
  EXPECT_EQ(backends[1]->stats().client_queries, 3u);
}

}  // namespace
}  // namespace dnsttl
