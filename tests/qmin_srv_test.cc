// Tests for QNAME minimization (RFC 7816), the SRV/PTR record types, and
// the KS statistic.

#include <gtest/gtest.h>

#include "core/world.h"
#include "dns/rr.h"
#include "dns/wire.h"
#include "resolver/recursive_resolver.h"
#include "stats/cdf.h"

namespace dnsttl {
namespace {

using dns::Name;
using dns::RRType;

// ------------------------------------------------------------------- qmin

class QminTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world = std::make_unique<core::World>(core::World::Options{1, 0.0, {}});
    auto zone = world->add_tld("org", "ns1", dns::Ttl{3600}, dns::Ttl{3600}, dns::Ttl{3600},
                               net::Location{net::Region::kEU, 1.0});
    zone->add(dns::make_a(Name::from_string("www.deep.sub.example.org"), dns::Ttl{300},
                          dns::Ipv4(10, 0, 0, 1)));
    world->server("ns1.org.").set_logging(true);
    world->server("a.root-servers.net").set_logging(true);
    world->server("k.root-servers.net").set_logging(true);
    world->server("m.root-servers.net").set_logging(true);
  }

  resolver::RecursiveResolver make(bool minimize) {
    auto config = resolver::child_centric_config();
    config.qname_minimization = minimize;
    resolver::RecursiveResolver r("qmin", config, world->network(),
                                  world->hints());
    net::Location eu{net::Region::kEU, 1.0};
    r.set_node_ref(net::NodeRef{world->network().attach(r, eu), eu});
    return r;
  }

  std::unique_ptr<core::World> world;
};

TEST_F(QminTest, ResolvesDeepNamesCorrectly) {
  auto resolver = make(true);
  auto result = resolver.resolve(
      {Name::from_string("www.deep.sub.example.org"), RRType::kA,
       dns::RClass::kIN},
      sim::Time{});
  EXPECT_EQ(result.response.flags.rcode, dns::Rcode::kNoError);
  ASSERT_FALSE(result.response.answers.empty());
  EXPECT_EQ(dns::rdata_to_string(result.response.answers[0].rdata),
            "10.0.0.1");
}

TEST_F(QminTest, HidesFullNameFromUpperZones) {
  auto resolver = make(true);
  resolver.resolve({Name::from_string("www.deep.sub.example.org"),
                    RRType::kA, dns::RClass::kIN},
                   sim::Time{});
  // The first client-question query at the .org authoritative (skipping
  // the resolver's own NS-address verification fetch) must expose only one
  // label beyond .org, as an NS question.
  const auto& log = world->server("ns1.org.").log();
  const auto infra = Name::from_string("ns1.org");
  for (const auto& entry : log.entries()) {
    if (entry.qname == infra) continue;
    EXPECT_EQ(entry.qname, Name::from_string("example.org"));
    EXPECT_EQ(entry.qtype, RRType::kNS);
    break;
  }
  // Zones *above* the one holding the name never see it: the roots only
  // ever learn "org".  (.org itself must eventually receive the full
  // question — it is authoritative for it.)
  for (const char* root :
       {"a.root-servers.net", "k.root-servers.net", "m.root-servers.net"}) {
    for (const auto& entry : world->server(root).log().entries()) {
      EXPECT_LE(entry.qname.label_count(), 1u)
          << root << " saw " << entry.qname.to_string();
    }
  }
}

TEST_F(QminTest, NonMinimizingResolverExposesFullName) {
  auto resolver = make(false);
  resolver.resolve({Name::from_string("www.deep.sub.example.org"),
                    RRType::kA, dns::RClass::kIN},
                   sim::Time{});
  const auto& log = world->server("ns1.org.").log();
  bool saw_full_name = false;
  for (const auto& entry : log.entries()) {
    if (entry.qname == Name::from_string("www.deep.sub.example.org")) {
      saw_full_name = true;
    }
  }
  EXPECT_TRUE(saw_full_name);
}

TEST_F(QminTest, MinimizationCostsExtraQueries) {
  auto plain = make(false);
  auto minimizing = make(true);
  dns::Question q{Name::from_string("www.deep.sub.example.org"), RRType::kA,
                  dns::RClass::kIN};
  auto plain_result = plain.resolve(q, sim::Time{});
  auto min_result = minimizing.resolve(q, sim::at(sim::kHour * 24));
  EXPECT_GT(min_result.upstream_queries, plain_result.upstream_queries);
}

TEST_F(QminTest, NxdomainAncestorIsConclusive) {
  auto resolver = make(true);
  auto result = resolver.resolve(
      {Name::from_string("a.b.missing.org"), RRType::kA, dns::RClass::kIN},
      sim::Time{});
  EXPECT_EQ(result.response.flags.rcode, dns::Rcode::kNXDomain);
  // RFC 8020/7816: the full name never crossed the wire.
  for (const auto& entry : world->server("ns1.org.").log().entries()) {
    EXPECT_NE(entry.qname, Name::from_string("a.b.missing.org"));
  }
}

TEST_F(QminTest, CacheHitsStillWork) {
  auto resolver = make(true);
  dns::Question q{Name::from_string("www.deep.sub.example.org"), RRType::kA,
                  dns::RClass::kIN};
  resolver.resolve(q, sim::Time{});
  auto second = resolver.resolve(q, sim::at(10 * sim::kSecond));
  EXPECT_TRUE(second.answered_from_cache);
}

// --------------------------------------------------------------- SRV / PTR

TEST(SrvPtrTest, WireRoundTrip) {
  auto query = dns::Message::make_query(
      1, Name::from_string("_sip._tcp.example.org"), RRType::kSRV);
  auto response = dns::Message::make_response(query);
  dns::SrvRdata srv;
  srv.priority = 10;
  srv.weight = 60;
  srv.port = 5060;
  srv.target = Name::from_string("sip1.example.org");
  response.answers.push_back(dns::ResourceRecord{
      Name::from_string("_sip._tcp.example.org"), dns::RClass::kIN, dns::Ttl{300},
      srv});
  response.answers.push_back(dns::ResourceRecord{
      Name::from_string("1.0.0.10.in-addr.arpa"), dns::RClass::kIN, dns::Ttl{300},
      dns::PtrRdata{Name::from_string("www.example.org")}});
  EXPECT_EQ(dns::decode(dns::encode(response)), response);
}

TEST(SrvPtrTest, PresentationFormat) {
  dns::SrvRdata srv;
  srv.priority = 10;
  srv.weight = 60;
  srv.port = 5060;
  srv.target = Name::from_string("sip1.example.org");
  EXPECT_EQ(dns::rdata_to_string(srv), "10 60 5060 sip1.example.org.");
  EXPECT_EQ(dns::rdata_to_string(
                dns::PtrRdata{Name::from_string("www.example.org")}),
            "www.example.org.");
  EXPECT_EQ(dns::rdata_type(srv), RRType::kSRV);
  EXPECT_EQ(dns::rdata_type(dns::PtrRdata{}), RRType::kPTR);
}

TEST(SrvPtrTest, ServedAndResolvedEndToEnd) {
  core::World world{core::World::Options{1, 0.0, {}}};
  auto zone = world.add_tld("org", "ns1", dns::Ttl{3600}, dns::Ttl{3600}, dns::Ttl{3600},
                            net::Location{net::Region::kEU, 1.0});
  dns::SrvRdata srv;
  srv.priority = 1;
  srv.port = 443;
  srv.target = Name::from_string("web.org");
  zone->add(dns::ResourceRecord{Name::from_string("_https._tcp.org"),
                                dns::RClass::kIN, dns::Ttl{600}, srv});
  resolver::RecursiveResolver resolver("r", resolver::child_centric_config(),
                                       world.network(), world.hints());
  net::Location eu{net::Region::kEU, 1.0};
  resolver.set_node_ref(
      net::NodeRef{world.network().attach(resolver, eu), eu});
  auto result = resolver.resolve(
      {Name::from_string("_https._tcp.org"), RRType::kSRV, dns::RClass::kIN},
      sim::Time{});
  ASSERT_FALSE(result.response.answers.empty());
  EXPECT_EQ(result.response.answers[0].ttl, dns::Ttl{600});
}

// ------------------------------------------------------------------- KS

TEST(KsTest, IdenticalDistributionsScoreZero) {
  stats::Cdf a({1, 2, 3, 4, 5});
  stats::Cdf b({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(stats::ks_statistic(a, b), 0.0);
}

TEST(KsTest, DisjointDistributionsScoreOne) {
  stats::Cdf a({1, 2, 3});
  stats::Cdf b({10, 20, 30});
  EXPECT_DOUBLE_EQ(stats::ks_statistic(a, b), 1.0);
}

TEST(KsTest, KnownShift) {
  // b is a shifted by one position out of four distinct values.
  stats::Cdf a({1, 2, 3, 4});
  stats::Cdf b({2, 3, 4, 5});
  EXPECT_NEAR(stats::ks_statistic(a, b), 0.25, 1e-12);
}

TEST(KsTest, EmptyThrows) {
  stats::Cdf a({1.0});
  stats::Cdf empty;
  EXPECT_THROW(stats::ks_statistic(a, empty), std::logic_error);
  EXPECT_THROW(stats::ks_statistic(empty, a), std::logic_error);
}

TEST(KsTest, SimilarSamplesScoreLow) {
  sim::Rng rng(1);
  stats::Cdf a;
  stats::Cdf b;
  for (int i = 0; i < 20000; ++i) {
    a.add(rng.normal(0, 1));
    b.add(rng.normal(0, 1));
  }
  EXPECT_LT(stats::ks_statistic(a, b), 0.03);
}

}  // namespace
}  // namespace dnsttl
