#include <gtest/gtest.h>

#include "auth/secondary.h"
#include "core/world.h"
#include "dns/rr.h"
#include "resolver/recursive_resolver.h"

namespace dnsttl::auth {
namespace {

using dns::Name;
using dns::RRType;

// ---------------------------------------------------------------- secondary

class SecondaryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world = std::make_unique<core::World>(core::World::Options{1, 0.0, {}});
    primary_zone = world->create_zone("shop", dns::Ttl{3600});
    // Short SOA refresh so tests stay fast: refresh=600, retry=300.
    dns::SoaRdata soa;
    soa.mname = Name::from_string("ns1.shop");
    soa.rname = Name::from_string("hostmaster.shop");
    soa.serial = 1;
    soa.refresh = dns::WireTtl{600};
    soa.retry = dns::WireTtl{300};
    soa.expire = dns::WireTtl{3600};
    soa.minimum = dns::WireTtl{300};
    dns::RRset soa_set(Name::from_string("shop"), dns::RClass::kIN, dns::Ttl{3600});
    soa_set.add(soa);
    primary_zone->replace(soa_set);
    primary_zone->add(dns::make_ns(Name::from_string("shop"), dns::Ttl{300},
                                   Name::from_string("ns1.shop")));
    primary_zone->add(dns::make_a(Name::from_string("www.shop"), dns::Ttl{300},
                                  dns::Ipv4(10, 0, 0, 1)));

    secondary_server = &world->add_server(
        "ns2.shop", net::Location{net::Region::kEU, 1.0});
  }

  std::unique_ptr<core::World> world;
  std::shared_ptr<dns::Zone> primary_zone;
  AuthServer* secondary_server = nullptr;
};

TEST_F(SecondaryTest, InitialTransferServesTheZone) {
  Secondary secondary(world->simulation(), primary_zone, *secondary_server);
  EXPECT_EQ(secondary.transfers(), 1u);
  EXPECT_EQ(secondary.serial(), 1u);

  net::NodeRef client{dns::Ipv4(10, 9, 9, 9),
                      net::Location{net::Region::kEU, 1.0}};
  auto query = dns::Message::make_query(1, Name::from_string("www.shop"),
                                        RRType::kA);
  auto outcome = world->network().query(
      client, world->address_of("ns2.shop"), query, sim::Time{});
  ASSERT_TRUE(outcome.response.has_value());
  EXPECT_TRUE(outcome.response->flags.aa);
  EXPECT_EQ(outcome.response->answers.size(), 1u);
}

TEST_F(SecondaryTest, EditWithoutSerialBumpIsInvisible) {
  Secondary secondary(world->simulation(), primary_zone, *secondary_server);
  primary_zone->set_ttl(Name::from_string("shop"), RRType::kNS, dns::Ttl{86400});
  world->simulation().run_until(sim::at(30 * sim::kMinute));
  EXPECT_EQ(secondary.transfers(), 1u);  // serial unchanged: no transfer
  EXPECT_EQ(secondary.zone()
                ->find(Name::from_string("shop"), RRType::kNS)
                ->ttl(),
            dns::Ttl{300});
}

TEST_F(SecondaryTest, TtlChangePropagatesAtNextRefresh) {
  // The §5.3 operational reality: .uy's TTL change reached each secondary
  // only at its next successful refresh.
  Secondary secondary(world->simulation(), primary_zone, *secondary_server);
  primary_zone->set_ttl(Name::from_string("shop"), RRType::kNS, dns::Ttl{86400});
  primary_zone->bump_serial();

  // Before the refresh interval the secondary still serves the old TTL.
  world->simulation().run_until(sim::at(5 * sim::kMinute));
  EXPECT_EQ(secondary.zone()
                ->find(Name::from_string("shop"), RRType::kNS)
                ->ttl(),
            dns::Ttl{300});

  // After a refresh period the new TTL is live.
  world->simulation().run_until(sim::at(15 * sim::kMinute));
  EXPECT_EQ(secondary.transfers(), 2u);
  EXPECT_EQ(secondary.serial(), 2u);
  EXPECT_EQ(secondary.zone()
                ->find(Name::from_string("shop"), RRType::kNS)
                ->ttl(),
            dns::Ttl{86400});
}

TEST_F(SecondaryTest, ExpiresAfterPrimaryOutageAndRecovers) {
  Secondary secondary(world->simulation(), primary_zone, *secondary_server);
  secondary.set_primary_reachable(false);

  // Within the expire window the stale copy keeps being served.
  world->simulation().run_until(sim::at(30 * sim::kMinute));
  EXPECT_FALSE(secondary.expired());

  // Past SOA expire (3600 s) the copy is withdrawn: REFUSED.
  world->simulation().run_until(sim::at(2 * sim::kHour));
  EXPECT_TRUE(secondary.expired());
  net::NodeRef client{dns::Ipv4(10, 9, 9, 9),
                      net::Location{net::Region::kEU, 1.0}};
  auto query = dns::Message::make_query(1, Name::from_string("www.shop"),
                                        RRType::kA);
  auto outcome = world->network().query(
      client, world->address_of("ns2.shop"), query,
      world->simulation().now());
  ASSERT_TRUE(outcome.response.has_value());
  EXPECT_EQ(outcome.response->flags.rcode, dns::Rcode::kRefused);

  // Connectivity returns: service resumes at the next retry.
  secondary.set_primary_reachable(true);
  world->simulation().run_until(world->simulation().now() + sim::kHour);
  EXPECT_FALSE(secondary.expired());
  auto after = world->network().query(
      client, world->address_of("ns2.shop"), query,
      world->simulation().now());
  EXPECT_EQ(after.response->flags.rcode, dns::Rcode::kNoError);
}

TEST_F(SecondaryTest, RefreshOverrideSpeedsPolling) {
  Secondary secondary(world->simulation(), primary_zone, *secondary_server,
                      dns::Ttl{60});
  primary_zone->bump_serial();
  world->simulation().run_until(sim::at(3 * sim::kMinute));
  EXPECT_GE(secondary.transfers(), 2u);
}

// bump_serial builds a new SOA payload.  Copies taken before it (a reply's
// authority section, a secondary's transferred zone) share the old payload
// and keep the old serial; the zone serves the new one.
TEST_F(SecondaryTest, BumpSerialLeavesEarlierCopiesOnTheOldSerial) {
  const auto serial_of = [](const dns::ResourceRecord& rr) {
    return std::get<dns::Shared<dns::SoaRdata>>(rr.rdata)->serial;
  };
  const Name missing = Name::from_string("nx.shop");
  Secondary secondary(world->simulation(), primary_zone, *secondary_server);
  const dns::LookupResult reply = primary_zone->lookup(missing, RRType::kA);
  ASSERT_EQ(reply.kind, dns::LookupResult::Kind::kNxDomain);
  ASSERT_EQ(reply.authorities.size(), 1u);

  ASSERT_TRUE(primary_zone->bump_serial());
  EXPECT_EQ(serial_of(reply.authorities[0]), 1u);
  EXPECT_EQ(secondary.serial(), 1u);
  EXPECT_EQ(serial_of(*secondary.zone()->soa()), 1u);
  EXPECT_EQ(serial_of(*primary_zone->soa()), 2u);
  const dns::LookupResult fresh = primary_zone->lookup(missing, RRType::kA);
  ASSERT_EQ(fresh.authorities.size(), 1u);
  EXPECT_EQ(serial_of(fresh.authorities[0]), 2u);
}

TEST(ZoneSerialTest, BumpSerialIncrements) {
  dns::Zone zone{Name::from_string("shop")};
  EXPECT_FALSE(zone.bump_serial());  // no SOA yet
  zone.add(dns::make_soa(Name::from_string("shop"), dns::Ttl{3600},
                         Name::from_string("ns1.shop"), 41));
  EXPECT_TRUE(zone.bump_serial());
  EXPECT_EQ(std::get<dns::Shared<dns::SoaRdata>>(zone.soa()->rdata)->serial,
            42u);
}

}  // namespace
}  // namespace dnsttl::auth
