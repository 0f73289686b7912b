// Tests for the protocol extras: UDP truncation + TCP fallback, answer-set
// rotation (DNS load balancing), the parent-vs-child comparison crawl, and
// the analytic hit-rate models.

#include <gtest/gtest.h>

#include <set>

#include "core/hit_rate_model.h"
#include "core/world.h"
#include "crawl/crawler.h"
#include "dns/rr.h"
#include "dns/wire.h"
#include "resolver/recursive_resolver.h"

namespace dnsttl {
namespace {

using dns::Name;
using dns::RRType;

// ------------------------------------------------------------- truncation

core::World world_with_fat_record(std::size_t txt_bytes) {
  core::World world{core::World::Options{1, 0.0, {}}};
  auto zone = world.add_tld("zz", "a.nic", dns::Ttl{3600}, dns::Ttl{3600}, dns::Ttl{3600},
                            net::Location{net::Region::kEU, 1.0});
  zone->add(dns::make_txt(Name::from_string("big.zz"), dns::Ttl{300},
                          std::string(txt_bytes, 'x')));
  return world;
}

TEST(TruncationTest, OversizedUdpResponseComesBackTruncated) {
  auto world = world_with_fat_record(3000);
  net::NodeRef client{dns::Ipv4(10, 9, 9, 9),
                      net::Location{net::Region::kEU, 1.0}};
  auto query = dns::Message::make_query(1, Name::from_string("big.zz"),
                                        RRType::kTXT);
  auto udp = world.network().query(client, world.address_of("a.nic.zz."),
                                   query, sim::Time{});
  ASSERT_TRUE(udp.response.has_value());
  EXPECT_TRUE(udp.response->flags.tc);
  EXPECT_TRUE(udp.response->answers.empty());
}

TEST(TruncationTest, TcpCarriesFullResponseAtHigherCost) {
  auto world = world_with_fat_record(3000);
  net::NodeRef client{dns::Ipv4(10, 9, 9, 9),
                      net::Location{net::Region::kEU, 1.0}};
  auto query = dns::Message::make_query(1, Name::from_string("big.zz"),
                                        RRType::kTXT);
  auto tcp = world.network().query(client, world.address_of("a.nic.zz."),
                                   query, sim::Time{}, net::Network::Transport::kTcp);
  ASSERT_TRUE(tcp.response.has_value());
  EXPECT_FALSE(tcp.response->flags.tc);
  ASSERT_EQ(tcp.response->answers.size(), 1u);
  EXPECT_GT(dns::encoded_size(*tcp.response),
            net::Network::kUdpPayloadLimit);
}

TEST(TruncationTest, SmallResponsesAreNeverTruncated) {
  auto world = world_with_fat_record(100);
  net::NodeRef client{dns::Ipv4(10, 9, 9, 9),
                      net::Location{net::Region::kEU, 1.0}};
  auto query = dns::Message::make_query(1, Name::from_string("big.zz"),
                                        RRType::kTXT);
  auto udp = world.network().query(client, world.address_of("a.nic.zz."),
                                   query, sim::Time{});
  ASSERT_TRUE(udp.response.has_value());
  EXPECT_FALSE(udp.response->flags.tc);
}

TEST(TruncationTest, CompressibleReplyOverItsUncompressedBoundFits) {
  // Twelve addresses at one long owner: written in full the owner alone
  // exceeds the classic 512-octet limit, but every repeat after the first
  // compresses to a 2-octet pointer.
  core::World world{core::World::Options{1, 0.0, {}}};
  auto zone = world.add_tld("zz", "a.nic", dns::Ttl{3600}, dns::Ttl{3600},
                            dns::Ttl{3600},
                            net::Location{net::Region::kEU, 1.0});
  const auto owner = Name::from_string(
      "a-long-label-that-compresses-well-in-every-record.zz");
  for (std::uint8_t i = 1; i <= 12; ++i) {
    zone->add(dns::make_a(owner, dns::Ttl{300}, dns::Ipv4(10, 0, 0, i)));
  }
  net::NodeRef client{dns::Ipv4(10, 9, 9, 9),
                      net::Location{net::Region::kEU, 1.0}};
  // No EDNS: the limit is 512 octets.
  auto query = dns::Message::make_query(1, owner, RRType::kA);
  auto tcp = world.network().query(client, world.address_of("a.nic.zz."),
                                   query, sim::Time{},
                                   net::Network::Transport::kTcp);
  ASSERT_TRUE(tcp.response.has_value());
  EXPECT_GT(dns::uncompressed_size(*tcp.response), 512u);
  EXPECT_LE(dns::encoded_size(*tcp.response), 512u);

  auto udp = world.network().query(client, world.address_of("a.nic.zz."),
                                   query, sim::Time{});
  ASSERT_TRUE(udp.response.has_value());
  EXPECT_FALSE(udp.response->flags.tc);
  EXPECT_EQ(udp.response->answers.size(), 12u);
  EXPECT_EQ(*udp.response, *tcp.response);
}

TEST(TruncationTest, RdataOverRdlengthStillThrowsOverUdp) {
  auto world = world_with_fat_record(70000);
  net::NodeRef client{dns::Ipv4(10, 9, 9, 9),
                      net::Location{net::Region::kEU, 1.0}};
  auto query = dns::Message::make_query(1, Name::from_string("big.zz"),
                                        RRType::kTXT);
  query.add_edns();
  EXPECT_THROW(world.network().query(client, world.address_of("a.nic.zz."),
                                     query, sim::Time{}),
               dns::WireError);
}

TEST(TruncationTest, ResolverRetriesOverTcpTransparently) {
  auto world = world_with_fat_record(3000);
  resolver::RecursiveResolver resolver("r", resolver::child_centric_config(),
                                       world.network(), world.hints());
  net::Location eu{net::Region::kEU, 1.0};
  resolver.set_node_ref(
      net::NodeRef{world.network().attach(resolver, eu), eu});
  auto result = resolver.resolve(
      {Name::from_string("big.zz"), RRType::kTXT, dns::RClass::kIN}, sim::Time{});
  EXPECT_EQ(result.response.flags.rcode, dns::Rcode::kNoError);
  ASSERT_FALSE(result.response.answers.empty());
  EXPECT_GT(resolver.stats().tcp_retries, 0u);
}

// --------------------------------------------------------------- rotation

TEST(AnswerRotationTest, RotatesMultiRecordAnswerSets) {
  core::World world{core::World::Options{1, 0.0, {}}};
  auto zone = world.add_tld("zz", "a.nic", dns::Ttl{3600}, dns::Ttl{3600}, dns::Ttl{3600},
                            net::Location{net::Region::kEU, 1.0});
  for (int i = 1; i <= 3; ++i) {
    zone->add(dns::make_a(Name::from_string("lb.zz"), dns::Ttl{300},
                          dns::Ipv4(10, 0, 0, static_cast<std::uint8_t>(i))));
  }
  world.server("a.nic.zz.").set_rotate_answers(true);

  net::NodeRef client{dns::Ipv4(10, 9, 9, 9),
                      net::Location{net::Region::kEU, 1.0}};
  std::set<std::string> first_answers;
  for (int i = 0; i < 6; ++i) {
    auto query = dns::Message::make_query(
        static_cast<std::uint16_t>(i), Name::from_string("lb.zz"),
        RRType::kA);
    auto outcome = world.network().query(client, world.address_of("a.nic.zz."),
                                         query, sim::at(i * sim::kSecond));
    ASSERT_EQ(outcome.response->answers.size(), 3u);
    first_answers.insert(
        dns::rdata_to_string(outcome.response->answers[0].rdata));
  }
  // Every address takes the lead position across successive queries.
  EXPECT_EQ(first_answers.size(), 3u);
}

TEST(AnswerRotationTest, DisabledByDefault) {
  core::World world{core::World::Options{1, 0.0, {}}};
  auto zone = world.add_tld("zz", "a.nic", dns::Ttl{3600}, dns::Ttl{3600}, dns::Ttl{3600},
                            net::Location{net::Region::kEU, 1.0});
  for (int i = 1; i <= 3; ++i) {
    zone->add(dns::make_a(Name::from_string("lb.zz"), dns::Ttl{300},
                          dns::Ipv4(10, 0, 0, static_cast<std::uint8_t>(i))));
  }
  net::NodeRef client{dns::Ipv4(10, 9, 9, 9),
                      net::Location{net::Region::kEU, 1.0}};
  std::set<std::string> first_answers;
  for (int i = 0; i < 4; ++i) {
    auto query = dns::Message::make_query(
        static_cast<std::uint16_t>(i), Name::from_string("lb.zz"),
        RRType::kA);
    auto outcome = world.network().query(client, world.address_of("a.nic.zz."),
                                         query, sim::at(i * sim::kSecond));
    first_answers.insert(
        dns::rdata_to_string(outcome.response->answers[0].rdata));
  }
  EXPECT_EQ(first_answers.size(), 1u);
}

// ----------------------------------------------------------- parent/child

crawl::ParentChildReport tabulate_all(
    const std::vector<crawl::GeneratedDomain>& population) {
  crawl::ParentChildReport report;
  for (const auto& domain : population) {
    crawl::tabulate_parent_child(domain, report);
  }
  return report;
}

TEST(ParentChildTest, ComparesAgainstRegistryTtl) {
  std::vector<crawl::GeneratedDomain> population(3);
  population[0].parent_ns_ttl = dns::Ttl{172800};
  population[0].records = {{RRType::kNS, dns::Ttl{300}, "ns1.x.example"}};
  population[1].parent_ns_ttl = dns::Ttl{172800};
  population[1].records = {{RRType::kNS, dns::Ttl{172800}, "ns1.y.example"}};
  population[2].parent_ns_ttl = dns::Ttl{172800};
  population[2].records = {{RRType::kNS, dns::Ttl{345600}, "ns1.z.example"}};

  auto report = tabulate_all(population);
  EXPECT_EQ(report.compared, 3u);
  EXPECT_EQ(report.child_shorter, 1u);
  EXPECT_EQ(report.equal, 1u);
  EXPECT_EQ(report.child_longer, 1u);
  EXPECT_DOUBLE_EQ(report.child_shorter_fraction(), 1.0 / 3.0);
}

TEST(ParentChildTest, SkipsUnresponsiveAndNsLess) {
  std::vector<crawl::GeneratedDomain> population(2);
  population[0].responsive = false;
  population[1].ns_answer = crawl::NsAnswerKind::kCname;
  auto report = tabulate_all(population);
  EXPECT_EQ(report.compared, 0u);
}

TEST(ParentChildTest, StreamingFoldMatchesMaterializedPopulation) {
  // The streaming comparison never builds the population, yet must see
  // exactly the domains generate_population() materializes from the same
  // list stream.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (const auto& params :
         {crawl::alexa_params(3000), crawl::nl_params(5000)}) {
      const sim::Rng list_rng = sim::Rng(seed).fork(7);
      auto streamed = crawl::compare_parent_child(params, list_rng);
      auto folded =
          tabulate_all(crawl::generate_population(params, list_rng));
      EXPECT_GT(streamed.compared, 0u) << params.name << " seed " << seed;
      EXPECT_EQ(streamed.compared, folded.compared);
      EXPECT_EQ(streamed.child_shorter, folded.child_shorter);
      EXPECT_EQ(streamed.equal, folded.equal);
      EXPECT_EQ(streamed.child_longer, folded.child_longer);
      EXPECT_EQ(streamed.child_over_parent_ratio.runs(),
                folded.child_over_parent_ratio.runs());
    }
  }
}

TEST(ParentChildTest, NlPopulationMatchesPaperFraction) {
  auto report = crawl::compare_parent_child(crawl::nl_params(40000),
                                            sim::Rng(3));
  // Paper §5.1: ~40% of .nl children are shorter than the 1-hour parent.
  EXPECT_GT(report.child_shorter_fraction(), 0.20);
  EXPECT_LT(report.child_shorter_fraction(), 0.50);
}

// ----------------------------------------------------------- hit rate

TEST(HitRateModelTest, PoissonClosedForm) {
  EXPECT_DOUBLE_EQ(core::poisson_hit_rate(0.01, dns::Ttl{0}), 0.0);
  EXPECT_DOUBLE_EQ(core::poisson_hit_rate(0.0, dns::Ttl{3600}), 0.0);
  EXPECT_NEAR(core::poisson_hit_rate(0.01, dns::Ttl{100}), 0.5, 1e-12);
  EXPECT_GT(core::poisson_hit_rate(0.01, dns::Ttl{86400}), 0.99);
  // Monotone in TTL.
  EXPECT_LT(core::poisson_hit_rate(0.01, dns::Ttl{60}),
            core::poisson_hit_rate(0.01, dns::Ttl{600}));
}

TEST(HitRateModelTest, PeriodicClosedForm) {
  EXPECT_DOUBLE_EQ(core::periodic_hit_rate(600, dns::Ttl{300}), 0.0);  // p > T
  EXPECT_DOUBLE_EQ(core::periodic_hit_rate(600, dns::Ttl{600}), 0.5);  // 1 hit, 1 miss
  EXPECT_NEAR(core::periodic_hit_rate(300, dns::Ttl{3600}), 12.0 / 13.0, 1e-12);
  EXPECT_DOUBLE_EQ(core::periodic_hit_rate(0.0, dns::Ttl{600}), 0.0);
}

TEST(HitRateModelTest, AuthoritativeRateComplement) {
  double lambda = 0.02;
  dns::Ttl ttl = dns::Ttl{900};
  EXPECT_NEAR(core::authoritative_rate(lambda, ttl),
              lambda * (1.0 - core::poisson_hit_rate(lambda, ttl)), 1e-12);
}

TEST(HitRateModelTest, TtlForHitRateInvertsTheModel) {
  double lambda = 0.01;
  for (double target : {0.5, 0.7, 0.9, 0.99}) {
    dns::Ttl ttl = core::ttl_for_hit_rate(lambda, target);
    EXPECT_GE(core::poisson_hit_rate(lambda, ttl), target - 1e-6);
  }
  EXPECT_EQ(core::ttl_for_hit_rate(0.01, 1.0), dns::kMaxTtl);
  EXPECT_EQ(core::ttl_for_hit_rate(0.01, 0.0), dns::Ttl{0});
  EXPECT_EQ(core::ttl_for_hit_rate(0.0, 0.5), dns::kMaxTtl);
}

}  // namespace
}  // namespace dnsttl
