#include <gtest/gtest.h>

#include <vector>

#include "auth/auth_server.h"
#include "dns/rr.h"
#include "net/latency.h"
#include "net/network.h"

namespace dnsttl::net {
namespace {

using dns::Name;
using dns::RRType;

std::shared_ptr<dns::Zone> tiny_zone() {
  auto zone = std::make_shared<dns::Zone>(Name::from_string("example.org"));
  zone->add(dns::make_soa(Name::from_string("example.org"), dns::Ttl{3600},
                          Name::from_string("ns.example.org"), 1));
  zone->add(dns::make_a(Name::from_string("www.example.org"), dns::Ttl{300},
                        dns::Ipv4(10, 1, 1, 1)));
  return zone;
}

TEST(LatencyTest, MatrixIsSymmetric) {
  for (Region a : kAllRegions) {
    for (Region b : kAllRegions) {
      EXPECT_DOUBLE_EQ(LatencyModel::base_oneway_ms(a, b),
                       LatencyModel::base_oneway_ms(b, a));
    }
  }
}

TEST(LatencyTest, IntraRegionFasterThanInterRegion) {
  for (Region a : kAllRegions) {
    for (Region b : kAllRegions) {
      if (a == b) continue;
      EXPECT_LT(LatencyModel::base_oneway_ms(a, a),
                LatencyModel::base_oneway_ms(a, b));
    }
  }
}

TEST(LatencyTest, SamePopCollapsesToMetroDelay) {
  LatencyModel model;
  Location probe{Region::kEU, 1.0, 7};
  Location resolver{Region::kEU, 1.0, 7};
  Location other{Region::kEU, 1.0, 8};
  EXPECT_LT(model.expected_rtt(probe, resolver),
            model.expected_rtt(probe, other));
  EXPECT_LT(sim::to_milliseconds(model.expected_rtt(probe, resolver)), 10.0);
}

TEST(LatencyTest, SampledRttPositiveAndJittered) {
  LatencyModel model;
  sim::Rng rng(1);
  Location eu{Region::kEU, 2.0};
  Location na{Region::kNA, 2.0};
  double lo = 1e18;
  double hi = 0.0;
  for (int i = 0; i < 1000; ++i) {
    double ms = sim::to_milliseconds(model.rtt(eu, na, rng));
    EXPECT_GT(ms, 0.0);
    lo = std::min(lo, ms);
    hi = std::max(hi, ms);
  }
  EXPECT_LT(lo, hi);  // jitter produces a spread
  EXPECT_GT(hi / lo, 1.1);
}

TEST(NetworkTest, AttachAllocatesDistinctAddresses) {
  Network network{sim::Rng{1}};
  auth::AuthServer s1{"one"};
  auth::AuthServer s2{"two"};
  Address a1 = network.attach(s1, Location{});
  Address a2 = network.attach(s2, Location{});
  EXPECT_NE(a1, a2);
  EXPECT_TRUE(network.is_attached(a1));
  EXPECT_EQ(network.site_count(a1), 1u);
}

TEST(NetworkTest, FixedAddressRespectedAndCollisionRejected) {
  Network network{sim::Rng{1}};
  auth::AuthServer s1{"one"};
  auth::AuthServer s2{"two"};
  Address want = dns::Ipv4::from_string("190.124.27.10");
  EXPECT_EQ(network.attach(s1, Location{}, want), want);
  EXPECT_THROW(network.attach(s2, Location{}, want), std::invalid_argument);
}

TEST(NetworkTest, QueryReachesServerAndReturnsAnswer) {
  Network network{sim::Rng{1}};
  auth::AuthServer server{"auth"};
  server.add_zone(tiny_zone());
  Address addr = network.attach(server, Location{Region::kEU, 1.0});

  NodeRef client{dns::Ipv4(10, 0, 0, 99), Location{Region::kEU, 1.0}};
  auto query = dns::Message::make_query(
      7, Name::from_string("www.example.org"), RRType::kA);
  auto outcome = network.query(client, addr, query, sim::Time{});
  ASSERT_TRUE(outcome.response.has_value());
  EXPECT_EQ(outcome.response->id, 7);
  EXPECT_TRUE(outcome.response->flags.aa);
  ASSERT_EQ(outcome.response->answers.size(), 1u);
  EXPECT_GT(outcome.elapsed, sim::Duration{});
}

TEST(MessageLeaseTest, RecycledMessageCarriesNothingFromItsLastUse) {
  Network network{sim::Rng{1}};
  const Name owner = Name::from_string("www.example.org");
  {
    MessageLease used(network);
    used->id = 0x1234;
    used->flags.qr = true;
    used->flags.opcode = dns::Opcode::kNotify;
    used->flags.aa = true;
    used->flags.tc = true;
    used->flags.rd = false;
    used->flags.ra = true;
    used->flags.rcode = dns::Rcode::kNXDomain;
    used->questions.push_back({owner, RRType::kA, dns::RClass::kIN});
    used->answers.push_back(
        dns::make_a(owner, dns::Ttl{300}, dns::Ipv4(10, 1, 1, 1)));
    used->authorities.push_back(
        dns::make_ns(owner, dns::Ttl{300}, Name::from_string("ns.org")));
    used->add_edns();
  }
  MessageLease recycled(network);
  EXPECT_EQ(*recycled, dns::Message{});
  // The same message came back: its sections kept their capacity.
  EXPECT_GE(recycled->answers.capacity(), 1u);
  EXPECT_GE(recycled->additionals.capacity(), 1u);
  // A second lease open at once gets a message of its own.
  MessageLease fresh(network);
  EXPECT_EQ(*fresh, dns::Message{});
  EXPECT_EQ(fresh->answers.capacity(), 0u);
}

TEST(MessageLeaseTest, ExchangeOverwritesEveryFieldOfAReusedReply) {
  Network network{sim::Rng{1}};
  auth::AuthServer server{"auth"};
  server.add_zone(tiny_zone());
  const Address addr = network.attach(server, Location{});
  const NodeRef client{dns::Ipv4(10, 0, 0, 99), Location{}};
  MessageLease query(network);
  MessageLease reply(network);
  query->set_query(7, Name::from_string("www.example.org"), RRType::kA);
  query->add_edns();
  ASSERT_TRUE(network.exchange(client, addr, *query, sim::Time{}, *reply)
                  .answered);
  ASSERT_TRUE(reply->flags.aa);
  ASSERT_EQ(reply->answers.size(), 1u);

  // Outside the zone: REFUSED, without AA or records.  The reused reply
  // must equal the one a fresh message gets.
  query->set_query(8, Name::from_string("www.example.com"), RRType::kA,
                   false);
  ASSERT_TRUE(network.exchange(client, addr, *query, sim::Time{}, *reply)
                  .answered);
  const auto fresh = network.query(client, addr, *query, sim::Time{});
  ASSERT_TRUE(fresh.response.has_value());
  EXPECT_EQ(*reply, *fresh.response);
  EXPECT_EQ(reply->id, 8);
  EXPECT_EQ(reply->flags.rcode, dns::Rcode::kRefused);
  EXPECT_FALSE(reply->flags.aa);
  EXPECT_FALSE(reply->flags.rd);
  EXPECT_TRUE(reply->answers.empty());
}

TEST(NetworkTest, DetachedAddressTimesOut) {
  Network network{sim::Rng{1}};
  auth::AuthServer server{"auth"};
  server.add_zone(tiny_zone());
  Address addr = network.attach(server, Location{});
  network.detach(addr);

  NodeRef client{dns::Ipv4(10, 0, 0, 99), Location{}};
  auto query = dns::Message::make_query(
      1, Name::from_string("www.example.org"), RRType::kA);
  auto outcome = network.query(client, addr, query, sim::Time{});
  EXPECT_FALSE(outcome.response.has_value());
  EXPECT_EQ(outcome.elapsed, Network::kQueryTimeout);
}

TEST(NetworkTest, OfflineServerTimesOut) {
  Network network{sim::Rng{1}};
  auth::AuthServer server{"auth"};
  server.add_zone(tiny_zone());
  server.set_online(false);
  Address addr = network.attach(server, Location{});
  NodeRef client{dns::Ipv4(10, 0, 0, 99), Location{}};
  auto query = dns::Message::make_query(
      1, Name::from_string("www.example.org"), RRType::kA);
  EXPECT_FALSE(network.query(client, addr, query, sim::Time{}).response.has_value());
}

TEST(NetworkTest, TotalLossDropsEverything) {
  Network::Params params;
  params.loss_rate = 1.0;
  Network network{sim::Rng{1}, LatencyModel{}, params};
  auth::AuthServer server{"auth"};
  server.add_zone(tiny_zone());
  Address addr = network.attach(server, Location{});
  NodeRef client{dns::Ipv4(10, 0, 0, 99), Location{}};
  auto query = dns::Message::make_query(
      1, Name::from_string("www.example.org"), RRType::kA);
  EXPECT_FALSE(network.query(client, addr, query, sim::Time{}).response.has_value());
}

TEST(NetworkTest, AnycastRoutesToNearestSite) {
  Network network{sim::Rng{1}};
  auth::AuthServer eu_site{"eu"};
  auth::AuthServer oc_site{"oc"};
  auto zone = tiny_zone();
  eu_site.add_zone(zone);
  oc_site.add_zone(zone);
  Address anycast = network.attach_anycast(
      {{&eu_site, Location{Region::kEU, 1.0}},
       {&oc_site, Location{Region::kOC, 1.0}}});
  EXPECT_EQ(network.site_count(anycast), 2u);

  NodeRef oc_client{dns::Ipv4(10, 0, 0, 99), Location{Region::kOC, 1.0}};
  auto query = dns::Message::make_query(
      1, Name::from_string("www.example.org"), RRType::kA);
  for (int i = 0; i < 5; ++i) {
    network.query(oc_client, anycast, query, sim::Time{});
  }
  EXPECT_EQ(oc_site.queries_answered(), 5u);
  EXPECT_EQ(eu_site.queries_answered(), 0u);
}

/// Elapsed times of the answered queries among 50 sent one a second from
/// t = 0, NA client to EU server, on a network seeded 42; @p script may add
/// outages on the server's address or on another address before the first.
template <typename Script>
std::vector<sim::Duration> answered_elapsed(double loss_rate, Script script) {
  Network::Params params;
  params.loss_rate = loss_rate;
  Network network{sim::Rng{42}, LatencyModel{}, params};
  auth::AuthServer server{"auth"};
  server.add_zone(tiny_zone());
  Address addr = network.attach(server, Location{Region::kEU, 1.0});
  script(network, addr, dns::Ipv4(10, 9, 9, 9));
  NodeRef client{dns::Ipv4(10, 0, 0, 99), Location{Region::kNA, 2.0}};
  auto query = dns::Message::make_query(
      1, Name::from_string("www.example.org"), RRType::kA);
  std::vector<sim::Duration> elapsed;
  for (int i = 0; i < 50; ++i) {
    const auto outcome =
        network.query(client, addr, query, sim::at(i * sim::kSecond));
    if (outcome.response) {
      elapsed.push_back(outcome.elapsed);
    }
  }
  return elapsed;
}

void no_outage(Network&, Address, Address) {}

// Pin of the RNG-stream contract (documented on add_outage): a zero loss
// rate burns no RNG draw, and outage windows that kill nothing — one not yet
// active, one active on another address — are indistinguishable, draw for
// draw, from no windows at all.  Any nonzero loss rate consumes one extra
// draw per exchange, which shifts the jitter stream and therefore the
// elapsed sequence.  If this test breaks, every golden output built on
// "same seed, outage on/off agree outside the window" silently drifts.
TEST(NetworkTest, RngStreamContract) {
  const auto baseline = answered_elapsed(0.0, no_outage);
  ASSERT_EQ(baseline.size(), 50u);
  EXPECT_EQ(baseline,
            answered_elapsed(0.0, [](Network& network, Address server,
                                     Address other) {
              network.add_outage(server, sim::at(1 * sim::kHour),
                                 sim::at(2 * sim::kHour));
              network.add_outage(other, sim::Time{}, sim::at(1 * sim::kHour));
            }))
      << "outage windows that kill nothing must not consume RNG draws";

  // Nonzero loss burns one draw per exchange: the stream shifts even
  // though a 1e-9 rate never actually loses a packet.
  EXPECT_NE(baseline, answered_elapsed(1e-9, no_outage))
      << "nonzero loss rate must consume a draw per exchange";
}

TEST(NetworkTest, OutageKilledExchangeDrawsNothing) {
  const auto baseline = answered_elapsed(0.0, no_outage);
  const auto outaged =
      answered_elapsed(0.0, [](Network& network, Address server, Address) {
        network.add_outage(server, sim::at(10 * sim::kSecond),
                           sim::at(20 * sim::kSecond));
      });
  // Queries 10-19 time out; the 40 answered ones see the RTT draws of the
  // first 40 queries of the run without the outage.
  EXPECT_EQ(outaged, std::vector<sim::Duration>(baseline.begin(),
                                                baseline.begin() + 40));
}

TEST(NetworkTest, OutageWindowIsHalfOpenAndTargeted) {
  Network network{sim::Rng{1}};
  auth::AuthServer dark{"dark"};
  auth::AuthServer lit{"lit"};
  dark.add_zone(tiny_zone());
  lit.add_zone(tiny_zone());
  const Address dark_addr = network.attach(dark, Location{});
  const Address lit_addr = network.attach(lit, Location{});
  const sim::Time from = sim::at(10 * sim::kSecond);
  const sim::Time until = sim::at(20 * sim::kSecond);
  network.add_outage(dark_addr, from, until);

  const NodeRef client{dns::Ipv4(10, 0, 0, 99), Location{}};
  const auto query = dns::Message::make_query(
      1, Name::from_string("www.example.org"), RRType::kA);
  auto answered = [&](Address to, sim::Time now) {
    return network.query(client, to, query, now).response.has_value();
  };
  EXPECT_TRUE(answered(dark_addr, from - sim::kMicrosecond));
  EXPECT_FALSE(answered(dark_addr, from));  // closed start
  EXPECT_FALSE(answered(dark_addr, until - sim::kMicrosecond));
  EXPECT_TRUE(answered(dark_addr, until));  // open end
  EXPECT_TRUE(answered(lit_addr, from));    // another server stays lit
  EXPECT_EQ(network.outage_timeouts(), 2u);
  EXPECT_EQ(dark.queries_answered(), 2u);
}

TEST(NetworkTest, AddOutageRejectsWindowEndingBeforeItStarts) {
  Network network{sim::Rng{1}};
  const Address server = dns::Ipv4(10, 0, 0, 1);
  EXPECT_THROW(network.add_outage(server, sim::at(20 * sim::kSecond),
                                  sim::at(10 * sim::kSecond)),
               std::invalid_argument);
  // An empty window is well-formed and darkens nothing.
  network.add_outage(server, sim::at(10 * sim::kSecond),
                     sim::at(10 * sim::kSecond));
}

TEST(AuthServerTest, RefusesForeignZone) {
  Network network{sim::Rng{1}};
  auth::AuthServer server{"auth"};
  server.add_zone(tiny_zone());
  Address addr = network.attach(server, Location{});
  NodeRef client{dns::Ipv4(10, 0, 0, 99), Location{}};
  auto query = dns::Message::make_query(
      1, Name::from_string("www.elsewhere.net"), RRType::kA);
  auto outcome = network.query(client, addr, query, sim::Time{});
  ASSERT_TRUE(outcome.response.has_value());
  EXPECT_EQ(outcome.response->flags.rcode, dns::Rcode::kRefused);
}

TEST(AuthServerTest, LogsQueriesWhenEnabled) {
  Network network{sim::Rng{1}};
  auth::AuthServer server{"auth"};
  server.add_zone(tiny_zone());
  server.set_logging(true);
  Address addr = network.attach(server, Location{});
  NodeRef client{dns::Ipv4(10, 0, 0, 99), Location{}};
  auto query = dns::Message::make_query(
      1, Name::from_string("www.example.org"), RRType::kA);
  network.query(client, addr, query, sim::at(5 * sim::kSecond));
  ASSERT_EQ(server.log().size(), 1u);
  EXPECT_EQ(server.log().entries()[0].client, client.address);
  EXPECT_EQ(server.log().entries()[0].qname,
            Name::from_string("www.example.org"));
  EXPECT_GT(server.log().entries()[0].time, sim::at(5 * sim::kSecond));
  EXPECT_EQ(server.log().unique_clients(), 1u);
}

TEST(AuthServerTest, DeepestZoneWins) {
  Network network{sim::Rng{1}};
  auth::AuthServer server{"auth"};
  auto parent = std::make_shared<dns::Zone>(Name::from_string("net"));
  parent->add(dns::make_soa(Name::from_string("net"), dns::Ttl{3600},
                            Name::from_string("ns.net"), 1));
  parent->add(dns::make_ns(Name::from_string("cachetest.net"), dns::Ttl{3600},
                           Name::from_string("ns1.cachetest.net")));
  auto child =
      std::make_shared<dns::Zone>(Name::from_string("cachetest.net"));
  child->add(dns::make_soa(Name::from_string("cachetest.net"), dns::Ttl{3600},
                           Name::from_string("ns1.cachetest.net"), 1));
  child->add(dns::make_a(Name::from_string("www.cachetest.net"), dns::Ttl{60},
                         dns::Ipv4(1, 1, 1, 1)));
  server.add_zone(parent);
  server.add_zone(child);
  Address addr = network.attach(server, Location{});
  NodeRef client{dns::Ipv4(10, 0, 0, 99), Location{}};
  auto query = dns::Message::make_query(
      1, Name::from_string("www.cachetest.net"), RRType::kA);
  auto outcome = network.query(client, addr, query, sim::Time{});
  ASSERT_TRUE(outcome.response.has_value());
  // Served from the child zone (authoritative answer), not a referral.
  EXPECT_TRUE(outcome.response->flags.aa);
  EXPECT_EQ(outcome.response->answers.size(), 1u);
}

}  // namespace
}  // namespace dnsttl::net
