#include "resolver/recursive_resolver.h"

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "auth/auth_server.h"
#include "dns/rr.h"
#include "resolver/forwarder.h"
#include "resolver/population.h"

namespace dnsttl::resolver {
namespace {

using dns::Name;
using dns::RRType;
using sim::kSecond;

/// An authoritative server whose every reply carries the scripted answer
/// section, in the order given, with AA set.
class ScriptedServer : public net::DnsNode {
 public:
  std::optional<sim::Duration> serve(const dns::Message& query,
                                     net::Address /*client*/,
                                     sim::Time /*now*/,
                                     dns::Message& reply) override {
    reply.set_response(query);
    reply.flags.aa = true;
    reply.answers = answers;
    return sim::Duration{};
  }

  std::vector<dns::ResourceRecord> answers;
};

/// A miniature Internet mirroring the paper's §3 setup: a root zone
/// delegating .uy with 172800 s NS/glue TTLs, and the .uy child zone
/// carrying a 300 s NS TTL and a 120 s address TTL for a.nic.uy.
class ResolverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network = std::make_unique<net::Network>(sim::Rng{1});

    root_zone = std::make_shared<dns::Zone>(Name{});
    root_zone->add(dns::make_soa(Name{}, dns::Ttl{86400},
                                 Name::from_string("a.root-servers.net"), 1));
    root_zone->add(dns::make_ns(Name{}, dns::Ttl{518400},
                                Name::from_string("a.root-servers.net")));

    root_server = std::make_unique<auth::AuthServer>("a.root-servers.net");
    root_server->add_zone(root_zone);
    root_addr = network->attach(*root_server, net::Location{net::Region::kNA});
    root_zone->add(dns::make_a(Name::from_string("a.root-servers.net"),
                               dns::Ttl{518400}, root_addr));
    hints.servers.push_back({Name::from_string("a.root-servers.net"),
                             root_addr});

    // .uy child zone and server.
    uy_zone = std::make_shared<dns::Zone>(Name::from_string("uy"));
    uy_zone->add(dns::make_soa(Name::from_string("uy"), dns::Ttl{300},
                               Name::from_string("a.nic.uy"), 1));
    uy_zone->add(dns::make_ns(Name::from_string("uy"), dns::Ttl{300},
                              Name::from_string("a.nic.uy")));
    uy_server = std::make_unique<auth::AuthServer>("a.nic.uy");
    uy_server->add_zone(uy_zone);
    uy_addr = network->attach(*uy_server, net::Location{net::Region::kSA});
    uy_zone->add(dns::make_a(Name::from_string("a.nic.uy"), dns::Ttl{120}, uy_addr));
    uy_zone->add(dns::make_a(Name::from_string("www.gub.uy"), dns::Ttl{600},
                             dns::Ipv4(10, 77, 0, 1)));

    // Root-side delegation: the 2-day parent copies.
    root_zone->add(dns::make_ns(Name::from_string("uy"), dns::Ttl{172800},
                                Name::from_string("a.nic.uy")));
    root_zone->add(dns::make_a(Name::from_string("a.nic.uy"), dns::Ttl{172800},
                               uy_addr));
  }

  std::unique_ptr<RecursiveResolver> make_resolver(ResolverConfig config) {
    auto resolver = std::make_unique<RecursiveResolver>("test", config,
                                                        *network, hints);
    auto location = net::Location{net::Region::kEU, 1.0};
    auto address = network->attach(*resolver, location);
    resolver->set_node_ref(net::NodeRef{address, location});
    if (config.local_root) {
      resolver->set_local_root_zone(root_zone);
    }
    return resolver;
  }

  /// Delegates `test` from the root to @p server, named ns1.test and
  /// given in-bailiwick glue; returns the server's address.
  net::Address delegate_test_to(net::DnsNode& server) {
    const net::Address address =
        network->attach(server, net::Location{net::Region::kEU});
    root_zone->add(dns::make_ns(Name::from_string("test"), dns::Ttl{172800},
                                Name::from_string("ns1.test")));
    root_zone->add(dns::make_a(Name::from_string("ns1.test"),
                               dns::Ttl{172800}, address));
    return address;
  }

  /// Delegates `test` from the root to ns.other, out of bailiwick and
  /// without glue.  The `other` zone, on @p other_server, holds only an
  /// AAAA for ns.other when @p with_aaaa and nothing at that name
  /// otherwise, so the NS-address lookup gets NODATA or NXDOMAIN.
  void delegate_test_to_ns_other(auth::AuthServer& other_server,
                                 bool with_aaaa) {
    const Name other = Name::from_string("other");
    const Name other_ns = Name::from_string("ns1.other");
    auto other_zone = std::make_shared<dns::Zone>(other);
    other_zone->add(dns::make_soa(other, dns::Ttl{300}, other_ns, 1));
    other_zone->add(dns::make_ns(other, dns::Ttl{300}, other_ns));
    other_server.add_zone(other_zone);
    const net::Address other_addr =
        network->attach(other_server, net::Location{net::Region::kEU});
    other_zone->add(dns::make_a(other_ns, dns::Ttl{300}, other_addr));
    if (with_aaaa) {
      other_zone->add(dns::make_aaaa(Name::from_string("ns.other"),
                                     dns::Ttl{300},
                                     dns::Ipv6::from_string("2001:db8::53")));
    }
    root_zone->add(dns::make_ns(other, dns::Ttl{172800}, other_ns));
    root_zone->add(dns::make_a(other_ns, dns::Ttl{172800}, other_addr));
    root_zone->add(dns::make_ns(Name::from_string("test"), dns::Ttl{172800},
                                Name::from_string("ns.other")));
  }

  /// Child-centric, and trusting glue, so the scripted server sees only
  /// the client's question.
  std::unique_ptr<RecursiveResolver> make_scripted_client() {
    ResolverConfig config = child_centric_config();
    config.fetch_authoritative_ns_addresses = false;
    return make_resolver(config);
  }

  static dns::Ttl answer_ttl(const dns::Message& response, RRType type) {
    for (const auto& rr : response.answers) {
      if (rr.type() == type) {
        return rr.ttl;
      }
    }
    ADD_FAILURE() << "no answer of requested type:\n" << response.to_string();
    return dns::Ttl{0};
  }

  std::unique_ptr<net::Network> network;
  std::shared_ptr<dns::Zone> root_zone;
  std::shared_ptr<dns::Zone> uy_zone;
  std::unique_ptr<auth::AuthServer> root_server;
  std::unique_ptr<auth::AuthServer> uy_server;
  net::Address root_addr;
  net::Address uy_addr;
  RootHints hints;
};

TEST_F(ResolverTest, ChildCentricSeesChildNsTtl) {
  auto resolver = make_resolver(child_centric_config());
  auto result = resolver->resolve(
      dns::Question{Name::from_string("uy"), RRType::kNS, dns::RClass::kIN},
      sim::Time{});
  EXPECT_EQ(result.response.flags.rcode, dns::Rcode::kNoError);
  EXPECT_EQ(answer_ttl(result.response, RRType::kNS), dns::Ttl{300});
  EXPECT_FALSE(result.answered_from_cache);
  EXPECT_GT(result.elapsed, sim::Duration{});
}

TEST_F(ResolverTest, ParentCentricSeesParentNsTtl) {
  auto resolver = make_resolver(parent_centric_config());
  auto result = resolver->resolve(
      dns::Question{Name::from_string("uy"), RRType::kNS, dns::RClass::kIN},
      sim::Time{});
  EXPECT_EQ(answer_ttl(result.response, RRType::kNS), dns::Ttl{172800});
  // Parent-centric resolvers never consult the child for the NS copy.
  EXPECT_EQ(uy_server->queries_answered(), 0u);
}

TEST_F(ResolverTest, ChildCentricSeesChildAddressTtl) {
  auto resolver = make_resolver(child_centric_config());
  auto result = resolver->resolve(
      dns::Question{Name::from_string("a.nic.uy"), RRType::kA,
                    dns::RClass::kIN},
      sim::Time{});
  EXPECT_EQ(answer_ttl(result.response, RRType::kA), dns::Ttl{120});
}

TEST_F(ResolverTest, ParentCentricSeesGlueAddressTtl) {
  auto resolver = make_resolver(parent_centric_config());
  auto result = resolver->resolve(
      dns::Question{Name::from_string("a.nic.uy"), RRType::kA,
                    dns::RClass::kIN},
      sim::Time{});
  EXPECT_EQ(answer_ttl(result.response, RRType::kA), dns::Ttl{172800});
}

TEST_F(ResolverTest, SecondQueryServedFromCacheWithCountedDownTtl) {
  auto resolver = make_resolver(child_centric_config());
  dns::Question question{Name::from_string("www.gub.uy"), RRType::kA,
                         dns::RClass::kIN};
  auto first = resolver->resolve(question, sim::Time{});
  EXPECT_EQ(answer_ttl(first.response, RRType::kA), dns::Ttl{600});

  auto second = resolver->resolve(question, sim::at(100 * kSecond));
  EXPECT_TRUE(second.answered_from_cache);
  EXPECT_EQ(second.elapsed, sim::Duration{});
  EXPECT_EQ(answer_ttl(second.response, RRType::kA), dns::Ttl{500});

  // Past the TTL, a full re-resolution happens.
  auto third = resolver->resolve(question, sim::at(700 * kSecond));
  EXPECT_FALSE(third.answered_from_cache);
  EXPECT_EQ(answer_ttl(third.response, RRType::kA), dns::Ttl{600});
}

TEST_F(ResolverTest, GoogleLikeCapsServedTtl) {
  // A 21599 s cap flattens long TTLs — the Figure 2 plateau.
  auto resolver = make_resolver(google_like_config());
  auto result = resolver->resolve(
      dns::Question{Name::from_string("a.nic.uy"), RRType::kA,
                    dns::RClass::kIN},
      sim::Time{});
  EXPECT_EQ(answer_ttl(result.response, RRType::kA), dns::Ttl{120});  // under cap

  auto ns = resolver->resolve(
      dns::Question{Name::from_string("uy"), RRType::kNS, dns::RClass::kIN},
      sim::Time{});
  EXPECT_EQ(answer_ttl(ns.response, RRType::kNS), dns::Ttl{300});  // child copy
}

TEST_F(ResolverTest, LocalRootAnswersWithFullParentTtlEveryTime) {
  // RFC 7706 + parent-centric: the §3.2 VPs that always report 172800 s.
  auto resolver = make_resolver(opendns_like_config());
  for (sim::Time t : {sim::Time{0}, sim::at(10 * sim::kMinute),
                      sim::at(3 * sim::kHour)}) {
    auto result = resolver->resolve(
        dns::Question{Name::from_string("uy"), RRType::kNS, dns::RClass::kIN},
        t);
    EXPECT_EQ(answer_ttl(result.response, RRType::kNS), dns::Ttl{172800});
    EXPECT_TRUE(result.answered_from_referral);
  }
  // Nothing left the resolver toward the root.
  EXPECT_EQ(root_server->queries_answered(), 0u);
}

TEST_F(ResolverTest, LocalRootStillForwardsChildQuestions) {
  auto resolver = make_resolver(opendns_like_config());
  auto result = resolver->resolve(
      dns::Question{Name::from_string("www.gub.uy"), RRType::kA,
                    dns::RClass::kIN},
      sim::Time{});
  EXPECT_EQ(answer_ttl(result.response, RRType::kA), dns::Ttl{600});
  EXPECT_EQ(root_server->queries_answered(), 0u);
  EXPECT_GT(uy_server->queries_answered(), 0u);
}

TEST_F(ResolverTest, ParentCentricCountsDownCachedReferralTtl) {
  auto resolver = make_resolver(parent_centric_config());
  dns::Question question{Name::from_string("uy"), RRType::kNS,
                         dns::RClass::kIN};
  resolver->resolve(question, sim::Time{});
  auto later = resolver->resolve(question, sim::at(1000 * kSecond));
  EXPECT_TRUE(later.answered_from_cache);
  EXPECT_EQ(answer_ttl(later.response, RRType::kNS), dns::Ttl{172800 - 1000});
}

TEST_F(ResolverTest, NxDomainIsNegativeCached) {
  auto resolver = make_resolver(child_centric_config());
  dns::Question question{Name::from_string("nope.uy"), RRType::kA,
                         dns::RClass::kIN};
  auto first = resolver->resolve(question, sim::Time{});
  EXPECT_EQ(first.response.flags.rcode, dns::Rcode::kNXDomain);
  auto upstream_before = resolver->stats().upstream_queries;

  auto second = resolver->resolve(question, sim::at(10 * kSecond));
  EXPECT_EQ(second.response.flags.rcode, dns::Rcode::kNXDomain);
  EXPECT_EQ(resolver->stats().upstream_queries, upstream_before);
}

TEST_F(ResolverTest, ServeStaleAnswersWhenChildOffline) {
  ResolverConfig config = child_centric_config();
  config.serve_stale = true;
  auto resolver = make_resolver(config);
  dns::Question question{Name::from_string("www.gub.uy"), RRType::kA,
                         dns::RClass::kIN};
  resolver->resolve(question, sim::Time{});

  uy_server->set_online(false);
  auto result = resolver->resolve(question, sim::at(700 * kSecond));  // TTL expired
  EXPECT_TRUE(result.served_stale);
  EXPECT_EQ(result.response.flags.rcode, dns::Rcode::kNoError);
  ASSERT_FALSE(result.response.answers.empty());
}

TEST_F(ResolverTest, WithoutServeStaleOfflineChildMeansServfail) {
  auto resolver = make_resolver(child_centric_config());
  dns::Question question{Name::from_string("www.gub.uy"), RRType::kA,
                         dns::RClass::kIN};
  resolver->resolve(question, sim::Time{});
  uy_server->set_online(false);
  auto result = resolver->resolve(question, sim::at(700 * kSecond));
  EXPECT_EQ(result.response.flags.rcode, dns::Rcode::kServFail);
}

TEST_F(ResolverTest, OfflineSoleServerGetsExactlyMaxServerAttempts) {
  ResolverConfig config = child_centric_config();
  config.fetch_authoritative_ns_addresses = false;
  auto resolver = make_resolver(config);
  uy_server->set_online(false);
  auto result = resolver->resolve(
      dns::Question{Name::from_string("www.gub.uy"), RRType::kA,
                    dns::RClass::kIN},
      sim::Time{});
  EXPECT_EQ(result.response.flags.rcode, dns::Rcode::kServFail);
  // One referral from the root; every attempt of the .uy step is then a
  // retransmission to a.nic.uy, the zone's only address.
  EXPECT_EQ(root_server->queries_answered(), 1u);
  EXPECT_EQ(result.upstream_queries, 1 + kMaxServerAttempts);
}

TEST_F(ResolverTest, AnswerMatchingNeitherQuestionNorCnameIsLame) {
  // Every reply answers for another name: nothing matches www.test or
  // leads to it by CNAME, so each attempt treats the server as lame.
  ScriptedServer server;
  server.answers.push_back(dns::make_a(Name::from_string("other.test"),
                                       dns::Ttl{300}, dns::Ipv4(10, 0, 0, 9)));
  delegate_test_to(server);
  auto resolver = make_scripted_client();
  auto result = resolver->resolve(
      dns::Question{Name::from_string("www.test"), RRType::kA,
                    dns::RClass::kIN},
      sim::Time{});
  EXPECT_EQ(result.response.flags.rcode, dns::Rcode::kServFail);
  EXPECT_TRUE(result.response.answers.empty());
  // One referral from the root, then every attempt at the lame server.
  EXPECT_EQ(result.upstream_queries, 1 + kMaxServerAttempts);
}

TEST_F(ResolverTest, NsTargetWithoutAnARecordGivesNoServer) {
  // The NS-address lookup ends in NOERROR with no A record, so `test` has
  // no server.
  auth::AuthServer other_server{"ns1.other"};
  delegate_test_to_ns_other(other_server, /*with_aaaa=*/true);

  auto resolver = make_resolver(child_centric_config());
  auto result = resolver->resolve(
      dns::Question{Name::from_string("www.test"), RRType::kA,
                    dns::RClass::kIN},
      sim::Time{});
  EXPECT_EQ(result.response.flags.rcode, dns::Rcode::kServFail);
  // `other` is asked for ns.other A once: every later referral step reads
  // the cached NODATA.  The remaining upstream queries are the referral
  // loop falling back to the root until the iteration cap.
  EXPECT_EQ(other_server.queries_answered(), 1u);
  EXPECT_EQ(result.upstream_queries, 26);
  // The lookup's NODATA answer is cached, and no address ever was.
  EXPECT_TRUE(resolver->cache()
                  .lookup_negative(Name::from_string("ns.other"), RRType::kA,
                                   sim::Time{})
                  .has_value());
  EXPECT_FALSE(resolver->cache()
                   .peek(Name::from_string("ns.other"), RRType::kA,
                         sim::Time{})
                   .has_value());
}

TEST_F(ResolverTest, NsTargetThatDoesNotExistIsAskedForOnce) {
  // The NS-address lookup ends in NXDOMAIN; every later referral step
  // reads the cached NXDOMAIN instead of asking `other` again.
  auth::AuthServer other_server{"ns1.other"};
  delegate_test_to_ns_other(other_server, /*with_aaaa=*/false);

  auto resolver = make_resolver(child_centric_config());
  auto result = resolver->resolve(
      dns::Question{Name::from_string("www.test"), RRType::kA,
                    dns::RClass::kIN},
      sim::Time{});
  EXPECT_EQ(result.response.flags.rcode, dns::Rcode::kServFail);
  EXPECT_EQ(other_server.queries_answered(), 1u);
  EXPECT_EQ(result.upstream_queries, 26);
  const auto negative = resolver->cache().lookup_negative(
      Name::from_string("ns.other"), RRType::kA, sim::Time{});
  ASSERT_TRUE(negative.has_value());
  EXPECT_EQ(negative->rcode, dns::Rcode::kNXDomain);
}

TEST_F(ResolverTest, ReferralChainLongerThanMaxIterationsIsServfail) {
  // Zones l1, l2.l1, ... below the root, each on its own server with
  // in-bailiwick glue in its parent.  A cold lookup of www in the zone k
  // levels down takes k referrals plus the answer: k + 1 iterations.
  std::vector<std::unique_ptr<auth::AuthServer>> servers;
  std::shared_ptr<dns::Zone> parent = root_zone;
  Name origin;
  std::vector<Name> www;  // www[k - 1] lives k levels below the root
  for (int level = 1; level <= kMaxIterations; ++level) {
    origin = origin.prepend("l" + std::to_string(level));
    const Name ns_name = origin.prepend("ns");
    auto zone = std::make_shared<dns::Zone>(origin);
    servers.push_back(std::make_unique<auth::AuthServer>(ns_name.to_string()));
    servers.back()->add_zone(zone);
    const net::Address address =
        network->attach(*servers.back(), net::Location{net::Region::kEU});
    zone->add(dns::make_soa(origin, dns::Ttl{300}, ns_name, 1));
    zone->add(dns::make_ns(origin, dns::Ttl{300}, ns_name));
    zone->add(dns::make_a(ns_name, dns::Ttl{300}, address));
    www.push_back(origin.prepend("www"));
    zone->add(dns::make_a(www.back(), dns::Ttl{300},
                          dns::Ipv4(10, 88, 0, static_cast<std::uint8_t>(level))));
    parent->add(dns::make_ns(origin, dns::Ttl{300}, ns_name));
    parent->add(dns::make_a(ns_name, dns::Ttl{300}, address));
    parent = zone;
  }

  ResolverConfig config = child_centric_config();
  config.fetch_authoritative_ns_addresses = false;
  auto rcode_at_level = [&](int level) {
    auto resolver = make_resolver(config);  // cold cache every time
    return resolver
        ->resolve(dns::Question{www[static_cast<std::size_t>(level - 1)],
                                RRType::kA, dns::RClass::kIN},
                  sim::Time{})
        .response.flags.rcode;
  };
  // One step shorter than the budget, exactly the budget, one step longer.
  EXPECT_EQ(rcode_at_level(kMaxIterations - 2), dns::Rcode::kNoError);
  EXPECT_EQ(rcode_at_level(kMaxIterations - 1), dns::Rcode::kNoError);
  EXPECT_EQ(rcode_at_level(kMaxIterations), dns::Rcode::kServFail);
}

TEST_F(ResolverTest, LocalRootAnswersTldNsWithChildOffline) {
  // §4.4: OpenDNS-style resolvers answered NS queries even with the child's
  // authoritative servers offline.
  auto resolver = make_resolver(opendns_like_config());
  uy_server->set_online(false);
  auto result = resolver->resolve(
      dns::Question{Name::from_string("uy"), RRType::kNS, dns::RClass::kIN},
      sim::Time{});
  EXPECT_EQ(result.response.flags.rcode, dns::Rcode::kNoError);
  EXPECT_EQ(answer_ttl(result.response, RRType::kNS), dns::Ttl{172800});
}

TEST_F(ResolverTest, StickyResolverKeepsOldServerAfterRenumber) {
  auto sticky = make_resolver(sticky_config());
  auto normal = make_resolver(child_centric_config());
  dns::Question question{Name::from_string("www.gub.uy"), RRType::kA,
                         dns::RClass::kIN};
  sticky->resolve(question, sim::Time{});
  normal->resolve(question, sim::Time{});

  // Stand up a replacement server and move every .uy pointer to it.
  auto new_zone = std::make_shared<dns::Zone>(Name::from_string("uy"));
  for (const auto& rrset : uy_zone->all_rrsets()) {
    new_zone->replace(rrset);
  }
  new_zone->replace([&] {
    dns::RRset set(Name::from_string("www.gub.uy"), dns::RClass::kIN, dns::Ttl{600});
    set.add(dns::ARdata{dns::Ipv4(10, 77, 0, 2)});  // changed answer
    return set;
  }());
  auth::AuthServer new_server{"a.nic.uy-new"};
  new_server.add_zone(new_zone);
  auto new_addr =
      network->attach(new_server, net::Location{net::Region::kSA});
  new_zone->renumber_a(Name::from_string("a.nic.uy"), new_addr);
  root_zone->renumber_a(Name::from_string("a.nic.uy"), new_addr);
  uy_zone->renumber_a(Name::from_string("a.nic.uy"), new_addr);

  // Far past every TTL, the sticky resolver still asks the old server.
  sim::Time later = sim::at(3 * sim::kDay);
  auto sticky_result = sticky->resolve(question, later);
  auto normal_result = normal->resolve(question, later);
  EXPECT_EQ(dns::rdata_to_string(sticky_result.response.answers[0].rdata),
            "10.77.0.1");
  EXPECT_EQ(dns::rdata_to_string(normal_result.response.answers[0].rdata),
            "10.77.0.2");
}

TEST_F(ResolverTest, CnameChainAcrossZonesIsChased) {
  uy_zone->add(dns::make_cname(Name::from_string("alias.uy"), dns::Ttl{300},
                               Name::from_string("www.gub.uy")));
  auto resolver = make_resolver(child_centric_config());
  auto result = resolver->resolve(
      dns::Question{Name::from_string("alias.uy"), RRType::kA,
                    dns::RClass::kIN},
      sim::Time{});
  ASSERT_GE(result.response.answers.size(), 2u);
  EXPECT_EQ(result.response.answers.front().type(), RRType::kCNAME);
  EXPECT_EQ(result.response.answers.back().type(), RRType::kA);
}

TEST_F(ResolverTest, IngestionCachesAnswerSetsInCanonicalOrder) {
  // The answer lists ns1.test's address ahead of the test NS set naming
  // it.  Cached in canonical (owner, type) order, the NS set goes in
  // first, so the address links to the NS set it arrived with and stays
  // usable.  Cached in order of appearance, the address would link to the
  // referral's NS set, which the answer's set then replaces, and would be
  // dropped as link-broken (§4.2).
  ScriptedServer test_server;
  const net::Address test_addr = delegate_test_to(test_server);
  const Name apex = Name::from_string("test");
  const Name ns1 = Name::from_string("ns1.test");
  test_server.answers = {dns::make_a(ns1, dns::Ttl{3600}, test_addr),
                         dns::make_ns(apex, dns::Ttl{3600}, ns1)};
  auto resolver = make_scripted_client();
  auto result = resolver->resolve(
      dns::Question{apex, RRType::kNS, dns::RClass::kIN}, sim::Time{});
  ASSERT_EQ(result.response.flags.rcode, dns::Rcode::kNoError);

  const sim::Time later = sim::at(kSecond);
  auto address = resolver->cache().peek(ns1, RRType::kA, later);
  ASSERT_TRUE(address.has_value()) << resolver->cache().dump(later);
  EXPECT_EQ(address->credibility, cache::Credibility::kAuthAnswer);
  EXPECT_EQ(address->original_ttl, dns::Ttl{3600});
}

TEST_F(ResolverTest, IngestionBuildsOneRRsetPerOwnerAndType) {
  // Interleaved owners, one set whose members disagree on TTL, and a
  // repeated record: each (owner, type) is cached once, at its minimum
  // member TTL (RFC 2181 §5.2), without the duplicate, and with its
  // members in order of appearance.
  ScriptedServer test_server;
  delegate_test_to(test_server);
  const Name www = Name::from_string("www.test");
  const Name mail = Name::from_string("mail.test");
  test_server.answers = {
      dns::make_a(www, dns::Ttl{300}, dns::Ipv4(10, 0, 0, 1)),
      dns::make_a(mail, dns::Ttl{600}, dns::Ipv4(10, 0, 0, 9)),
      dns::make_a(www, dns::Ttl{120}, dns::Ipv4(10, 0, 0, 2)),
      dns::make_a(www, dns::Ttl{300}, dns::Ipv4(10, 0, 0, 1))};
  auto resolver = make_scripted_client();
  auto result = resolver->resolve(
      dns::Question{www, RRType::kA, dns::RClass::kIN}, sim::Time{});
  ASSERT_EQ(result.response.flags.rcode, dns::Rcode::kNoError);

  // The referral's NS set and glue, then one insert per answer set.
  const cache::Cache& cache = resolver->cache();
  EXPECT_EQ(cache.stats().inserts, 4u);
  EXPECT_EQ(cache.size(), 4u);
  const sim::Time later = sim::at(kSecond);
  auto www_hit = cache.peek(www, RRType::kA, later);
  ASSERT_TRUE(www_hit.has_value());
  EXPECT_EQ(www_hit->original_ttl, dns::Ttl{120});
  ASSERT_EQ(www_hit->rrset().size(), 2u);
  EXPECT_EQ(dns::rdata_to_string(www_hit->rrset().rdatas()[0]), "10.0.0.1");
  EXPECT_EQ(dns::rdata_to_string(www_hit->rrset().rdatas()[1]), "10.0.0.2");
  auto mail_hit = cache.peek(mail, RRType::kA, later);
  ASSERT_TRUE(mail_hit.has_value());
  EXPECT_EQ(mail_hit->original_ttl, dns::Ttl{600});
  EXPECT_EQ(mail_hit->rrset().size(), 1u);
}

TEST_F(ResolverTest, IngestionOfALongSectionGroupsAndOrdersAsAShortOne) {
  // The two answers above, merged and padded past the 32 records that
  // ingestion sorts without allocating: ns1.test's address still precedes
  // the NS set naming it, and 20 owners each list two members at
  // different TTLs, interleaved, with one record repeated.  A long
  // section must cache the same sets, in the same order, as a short one.
  ScriptedServer test_server;
  const net::Address test_addr = delegate_test_to(test_server);
  const Name apex = Name::from_string("test");
  const Name ns1 = Name::from_string("ns1.test");
  constexpr std::size_t kOwners = 20;
  auto host = [](std::size_t i) {
    return Name::from_string("h" + std::to_string(i) + ".test");
  };
  test_server.answers = {dns::make_a(ns1, dns::Ttl{3600}, test_addr)};
  for (const dns::Ttl ttl : {dns::Ttl{300}, dns::Ttl{120}}) {
    for (std::size_t i = 0; i < kOwners; ++i) {
      test_server.answers.push_back(dns::make_a(
          host(i), ttl, dns::Ipv4(10, 0, 0, ttl == dns::Ttl{300} ? 1 : 2)));
    }
  }
  test_server.answers.push_back(
      dns::make_a(host(7), dns::Ttl{300}, dns::Ipv4(10, 0, 0, 1)));
  test_server.answers.push_back(dns::make_ns(apex, dns::Ttl{3600}, ns1));
  ASSERT_GT(test_server.answers.size(), 32u);
  auto resolver = make_scripted_client();
  auto result = resolver->resolve(
      dns::Question{apex, RRType::kNS, dns::RClass::kIN}, sim::Time{});
  ASSERT_EQ(result.response.flags.rcode, dns::Rcode::kNoError);
  ASSERT_EQ(result.response.answers.size(), test_server.answers.size());

  // The referral's NS set and glue, then one insert per answer set.
  const cache::Cache& cache = resolver->cache();
  EXPECT_EQ(cache.stats().inserts, 2u + 2u + kOwners);
  const sim::Time later = sim::at(kSecond);
  auto address = cache.peek(ns1, RRType::kA, later);
  ASSERT_TRUE(address.has_value()) << cache.dump(later);
  EXPECT_EQ(address->credibility, cache::Credibility::kAuthAnswer);
  EXPECT_EQ(address->original_ttl, dns::Ttl{3600});
  for (std::size_t i = 0; i < kOwners; ++i) {
    auto hit = cache.peek(host(i), RRType::kA, later);
    ASSERT_TRUE(hit.has_value()) << host(i).to_string();
    EXPECT_EQ(hit->original_ttl, dns::Ttl{120}) << host(i).to_string();
    ASSERT_EQ(hit->rrset().size(), 2u) << host(i).to_string();
    EXPECT_EQ(dns::rdata_to_string(hit->rrset().rdatas()[0]), "10.0.0.1");
    EXPECT_EQ(dns::rdata_to_string(hit->rrset().rdatas()[1]), "10.0.0.2");
  }
}

TEST_F(ResolverTest, IngestionRejectsAnRRsetMixingClasses) {
  ScriptedServer test_server;
  delegate_test_to(test_server);
  const Name www = Name::from_string("www.test");
  test_server.answers = {
      dns::make_a(www, dns::Ttl{300}, dns::Ipv4(10, 0, 0, 1)),
      dns::ResourceRecord{www, dns::RClass::kCH, dns::Ttl{300},
                          dns::ARdata{dns::Ipv4(10, 0, 0, 2)}}};
  auto resolver = make_scripted_client();
  EXPECT_THROW(resolver->resolve(
                   dns::Question{www, RRType::kA, dns::RClass::kIN},
                   sim::Time{}),
               std::invalid_argument);
}

TEST_F(ResolverTest, HandleQueryEchoesIdAndSetsRa) {
  auto resolver = make_resolver(child_centric_config());
  auto query = dns::Message::make_query(
      0xbeef, Name::from_string("www.gub.uy"), RRType::kA);
  auto reply = resolver->handle_query(query, dns::Ipv4(10, 9, 9, 9), sim::Time{});
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->message.id, 0xbeef);
  EXPECT_TRUE(reply->message.flags.qr);
  EXPECT_TRUE(reply->message.flags.ra);
}

TEST_F(ResolverTest, StatsTrackHitsAndResolutions) {
  auto resolver = make_resolver(child_centric_config());
  dns::Question question{Name::from_string("www.gub.uy"), RRType::kA,
                         dns::RClass::kIN};
  resolver->resolve(question, sim::Time{});
  resolver->resolve(question, sim::at(kSecond));
  EXPECT_EQ(resolver->stats().client_queries, 2u);
  EXPECT_EQ(resolver->stats().cache_answers, 1u);
  EXPECT_EQ(resolver->stats().full_resolutions, 1u);
  EXPECT_GT(resolver->stats().upstream_queries, 0u);
}

TEST_F(ResolverTest, FlushForcesFullResolution) {
  auto resolver = make_resolver(child_centric_config());
  dns::Question question{Name::from_string("www.gub.uy"), RRType::kA,
                         dns::RClass::kIN};
  resolver->resolve(question, sim::Time{});
  resolver->flush();
  auto again = resolver->resolve(question, sim::at(kSecond));
  EXPECT_FALSE(again.answered_from_cache);
}

TEST_F(ResolverTest, ForwarderRelaysToBackend) {
  auto backend = make_resolver(child_centric_config());
  Forwarder forwarder{"fw", *network, {backend->node_ref().address}};
  auto location = net::Location{net::Region::kEU, 0.5};
  auto fw_addr = network->attach(forwarder, location);
  forwarder.set_node_ref(net::NodeRef{fw_addr, location});

  net::NodeRef probe{dns::Ipv4(10, 200, 0, 1),
                     net::Location{net::Region::kEU, 1.0}};
  auto query = dns::Message::make_query(
      3, Name::from_string("www.gub.uy"), RRType::kA);
  auto outcome = network->query(probe, fw_addr, query, sim::Time{});
  ASSERT_TRUE(outcome.response.has_value());
  EXPECT_EQ(outcome.response->answers.size(), 1u);
  EXPECT_EQ(backend->stats().client_queries, 1u);
}

TEST_F(ResolverTest, PopulationBuildsCalibratedMixture) {
  sim::Rng rng(5);
  auto population = ResolverPopulation::build(
      *network, hints, root_zone, paper_profiles(), 400,
      atlas_region_weights(), rng);
  EXPECT_EQ(population.size(), 400u);

  // Every profile tag from the mixture is represented.
  for (const auto& profile : paper_profiles()) {
    EXPECT_FALSE(population.with_profile(profile.tag).empty())
        << profile.tag;
  }
  // The dominant slice is plain child-centric.
  EXPECT_GT(population.with_profile("child-bind").size(), 150u);

  // Members actually resolve.
  auto& member = population.members()[0];
  auto result = member.resolver->resolve(
      dns::Question{Name::from_string("www.gub.uy"), RRType::kA,
                    dns::RClass::kIN},
      sim::Time{});
  EXPECT_EQ(result.response.flags.rcode, dns::Rcode::kNoError);
  population.flush_all();
  EXPECT_EQ(member.resolver->cache().size(), 0u);
}

}  // namespace
}  // namespace dnsttl::resolver
