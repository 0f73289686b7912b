#include "dns/dnssec.h"

#include <gtest/gtest.h>

#include "auth/auth_server.h"
#include "core/world.h"
#include "dns/rr.h"
#include "resolver/recursive_resolver.h"

namespace dnsttl::dns {
namespace {

RRset sample_rrset() {
  RRset rrset(Name::from_string("www.example.org"), RClass::kIN, dns::Ttl{300});
  rrset.add(ARdata{Ipv4(10, 1, 2, 3)});
  return rrset;
}

TEST(DnssecTest, SignatureVerifies) {
  auto key = make_zone_key(Name::from_string("example.org"));
  auto rrset = sample_rrset();
  auto rrsig = make_rrsig(rrset, Name::from_string("example.org"), key);
  const RrsigRdata& sig = *std::get<Shared<RrsigRdata>>(rrsig.rdata);
  EXPECT_TRUE(verify_rrsig(rrset, sig, key));
  EXPECT_EQ(sig.type_covered, RRType::kA);
  EXPECT_EQ(sig.original_ttl.raw(), 300u);
  EXPECT_EQ(sig.key_tag, key_tag(key));
}

TEST(DnssecTest, TamperedRdataFailsVerification) {
  auto key = make_zone_key(Name::from_string("example.org"));
  auto rrset = sample_rrset();
  auto rrsig = make_rrsig(rrset, Name::from_string("example.org"), key);

  RRset tampered(rrset.name(), rrset.rclass(), rrset.ttl());
  tampered.add(ARdata{Ipv4(66, 66, 66, 66)});
  EXPECT_FALSE(
      verify_rrsig(tampered, *std::get<Shared<RrsigRdata>>(rrsig.rdata), key));
}

TEST(DnssecTest, WrongKeyFailsVerification) {
  auto key = make_zone_key(Name::from_string("example.org"));
  auto other = make_zone_key(Name::from_string("evil.example"));
  auto rrset = sample_rrset();
  auto rrsig = make_rrsig(rrset, Name::from_string("example.org"), key);
  EXPECT_FALSE(
      verify_rrsig(rrset, *std::get<Shared<RrsigRdata>>(rrsig.rdata), other));
}

TEST(DnssecTest, CountedDownTtlStillVerifies) {
  // RFC 4035 §5.3.3: validators reconstruct the original TTL.
  auto key = make_zone_key(Name::from_string("example.org"));
  auto rrset = sample_rrset();
  auto rrsig = make_rrsig(rrset, Name::from_string("example.org"), key);
  RRset counted = rrset;
  counted.set_ttl(dns::Ttl{17});  // as seen after cache countdown
  EXPECT_TRUE(
      verify_rrsig(counted, *std::get<Shared<RrsigRdata>>(rrsig.rdata), key));
}

TEST(DnssecTest, SignZoneCoversAuthoritativeSetsOnly) {
  Zone zone{Name::from_string("example.org")};
  zone.add(make_soa(Name::from_string("example.org"), dns::Ttl{3600},
                    Name::from_string("ns1.example.org"), 1));
  zone.add(make_a(Name::from_string("www.example.org"), dns::Ttl{300},
                  Ipv4(10, 0, 0, 1)));
  // A delegation with glue: must stay unsigned.
  zone.add(make_ns(Name::from_string("sub.example.org"), dns::Ttl{3600},
                   Name::from_string("ns1.sub.example.org")));
  zone.add(make_a(Name::from_string("ns1.sub.example.org"), dns::Ttl{3600},
                  Ipv4(10, 0, 0, 2)));

  auto key = make_zone_key(Name::from_string("example.org"));
  sign_zone(zone, key);

  EXPECT_TRUE(zone.find(Name::from_string("example.org"), RRType::kDNSKEY)
                  .has_value());
  EXPECT_TRUE(zone.find(Name::from_string("www.example.org"), RRType::kRRSIG)
                  .has_value());
  EXPECT_FALSE(zone.find(Name::from_string("sub.example.org"), RRType::kRRSIG)
                   .has_value());
  EXPECT_FALSE(
      zone.find(Name::from_string("ns1.sub.example.org"), RRType::kRRSIG)
          .has_value());
}

TEST(DnssecTest, SignedAnswersCarryRrsig) {
  Zone zone{Name::from_string("example.org")};
  zone.add(make_soa(Name::from_string("example.org"), dns::Ttl{3600},
                    Name::from_string("ns1.example.org"), 1));
  zone.add(make_a(Name::from_string("www.example.org"), dns::Ttl{300},
                  Ipv4(10, 0, 0, 1)));
  sign_zone(zone, make_zone_key(Name::from_string("example.org")));

  auto result = zone.lookup(Name::from_string("www.example.org"), RRType::kA);
  ASSERT_EQ(result.kind, LookupResult::Kind::kAnswer);
  ASSERT_EQ(result.answers.size(), 2u);
  EXPECT_EQ(result.answers[0].type(), RRType::kA);
  EXPECT_EQ(result.answers[1].type(), RRType::kRRSIG);
  EXPECT_EQ(
      std::get<Shared<RrsigRdata>>(result.answers[1].rdata)->type_covered,
      RRType::kA);
}

// ------------------------------------------------- validating resolver

class ValidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world = std::make_unique<core::World>(core::World::Options{1, 0.0, {}});
    zone = world->add_tld("org", "ns1", dns::kTtl1Day, dns::kTtl1Day,
                          dns::kTtl1Day,
                          net::Location{net::Region::kNA, 1.0});
    zone->add(make_a(Name::from_string("www.org"), dns::Ttl{300}, Ipv4(10, 0, 0, 7)));
    key = make_zone_key(Name::from_string("org"));
    sign_zone(*zone, key);
  }

  std::unique_ptr<resolver::RecursiveResolver> make_validator() {
    auto config = resolver::child_centric_config();
    config.validate_dnssec = true;
    auto r = std::make_unique<resolver::RecursiveResolver>(
        "validator", config, world->network(), world->hints());
    net::Location eu{net::Region::kEU, 1.0};
    r->set_node_ref(net::NodeRef{world->network().attach(*r, eu), eu});
    return r;
  }

  std::unique_ptr<core::World> world;
  std::shared_ptr<Zone> zone;
  DnskeyRdata key;
};

TEST_F(ValidationTest, ValidSignedAnswerAccepted) {
  auto validator = make_validator();
  auto result = validator->resolve(
      {Name::from_string("www.org"), RRType::kA, RClass::kIN}, sim::Time{});
  EXPECT_EQ(result.response.flags.rcode, Rcode::kNoError);
  ASSERT_FALSE(result.response.answers.empty());
  // The target answer, the DNSKEY fetch and the NS-address fetch all get
  // validated.
  EXPECT_GE(validator->stats().validations, 1u);
  EXPECT_EQ(validator->stats().validation_failures, 0u);
}

TEST_F(ValidationTest, ValidationFetchesChildDnskey) {
  auto validator = make_validator();
  auto& server = world->server("ns1.org.");
  server.set_logging(true);
  validator->resolve(
      {Name::from_string("www.org"), RRType::kA, RClass::kIN}, sim::Time{});
  bool saw_dnskey_query = false;
  for (const auto& entry : server.log().entries()) {
    if (entry.qtype == RRType::kDNSKEY &&
        entry.qname == Name::from_string("org")) {
      saw_dnskey_query = true;
    }
  }
  // The §2 point: a validator must query the *child* zone for keys.
  EXPECT_TRUE(saw_dnskey_query);
}

TEST_F(ValidationTest, TamperedRecordIsBogus) {
  // Tamper after signing: the resolver must refuse the answer.
  zone->renumber_a(Name::from_string("www.org"), Ipv4(66, 66, 66, 66));
  auto validator = make_validator();
  auto result = validator->resolve(
      {Name::from_string("www.org"), RRType::kA, RClass::kIN}, sim::Time{});
  EXPECT_EQ(result.response.flags.rcode, Rcode::kServFail);
  EXPECT_GT(validator->stats().validation_failures, 0u);
}

TEST_F(ValidationTest, NonValidatingResolverAcceptsTamperedData) {
  zone->renumber_a(Name::from_string("www.org"), Ipv4(66, 66, 66, 66));
  resolver::RecursiveResolver plain("plain",
                                    resolver::child_centric_config(),
                                    world->network(), world->hints());
  net::Location eu{net::Region::kEU, 1.0};
  plain.set_node_ref(net::NodeRef{world->network().attach(plain, eu), eu});
  auto result = plain.resolve(
      {Name::from_string("www.org"), RRType::kA, RClass::kIN}, sim::Time{});
  EXPECT_EQ(result.response.flags.rcode, Rcode::kNoError);
}

TEST_F(ValidationTest, UnsignedZoneIsInsecureButResolves) {
  auto unsigned_zone = world->add_tld("net", "ns1", dns::Ttl{3600}, dns::Ttl{3600}, dns::Ttl{3600},
                                      net::Location{net::Region::kNA, 1.0});
  unsigned_zone->add(
      make_a(Name::from_string("www.net"), dns::Ttl{300}, Ipv4(10, 0, 0, 8)));
  auto validator = make_validator();
  auto result = validator->resolve(
      {Name::from_string("www.net"), RRType::kA, RClass::kIN}, sim::Time{});
  EXPECT_EQ(result.response.flags.rcode, Rcode::kNoError);
  EXPECT_EQ(validator->stats().validations, 0u);
}

// --------------------------------------------------------------- prefetch

TEST(PrefetchTest, NearExpiryHitTriggersBackgroundRefresh) {
  core::World world{core::World::Options{1, 0.0, {}}};
  auto zone = world.add_tld("org", "ns1", dns::kTtl1Day, dns::kTtl1Day,
                            dns::kTtl1Day,
                            net::Location{net::Region::kNA, 1.0});
  zone->add(make_a(Name::from_string("www.org"), dns::Ttl{600}, Ipv4(10, 0, 0, 7)));

  auto config = resolver::child_centric_config();
  config.prefetch = true;
  resolver::RecursiveResolver r("prefetcher", config, world.network(),
                                world.hints());
  net::Location eu{net::Region::kEU, 1.0};
  r.set_node_ref(net::NodeRef{world.network().attach(r, eu), eu});

  dns::Question q{Name::from_string("www.org"), RRType::kA, RClass::kIN};
  r.resolve(q, sim::Time{});

  // Hit with 50% left: no prefetch.
  auto mid = r.resolve(q, sim::at(300 * sim::kSecond));
  EXPECT_TRUE(mid.answered_from_cache);
  EXPECT_EQ(r.stats().prefetches, 0u);

  // Hit with <10% left: background refresh fires; the *next* query, after
  // the original TTL would have expired, is still a cache hit.
  auto late = r.resolve(q, sim::at(545 * sim::kSecond));
  EXPECT_TRUE(late.answered_from_cache);
  EXPECT_EQ(r.stats().prefetches, 1u);

  auto after = r.resolve(q, sim::at(650 * sim::kSecond));
  EXPECT_TRUE(after.answered_from_cache)
      << "prefetched entry should still be live past the original expiry";
}

TEST(PrefetchTest, DisabledByDefault) {
  core::World world{core::World::Options{1, 0.0, {}}};
  auto zone = world.add_tld("org", "ns1", dns::Ttl{3600}, dns::Ttl{3600}, dns::Ttl{3600},
                            net::Location{net::Region::kNA, 1.0});
  zone->add(make_a(Name::from_string("www.org"), dns::Ttl{600}, Ipv4(10, 0, 0, 7)));
  resolver::RecursiveResolver r("plain", resolver::child_centric_config(),
                                world.network(), world.hints());
  net::Location eu{net::Region::kEU, 1.0};
  r.set_node_ref(net::NodeRef{world.network().attach(r, eu), eu});
  dns::Question q{Name::from_string("www.org"), RRType::kA, RClass::kIN};
  r.resolve(q, sim::Time{});
  r.resolve(q, sim::at(545 * sim::kSecond));
  EXPECT_EQ(r.stats().prefetches, 0u);
  auto after = r.resolve(q, sim::at(650 * sim::kSecond));
  EXPECT_FALSE(after.answered_from_cache);
}

}  // namespace
}  // namespace dnsttl::dns
