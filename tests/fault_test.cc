// Scripted outages: the network-level outage window, and the chaos
// scenario matrix — three scripted failure stories whose golden tables
// must come out byte-identical at --jobs 1 and --jobs 4.

#include <gtest/gtest.h>

#include "auth/auth_server.h"
#include "core/outage_experiment.h"
#include "dns/rr.h"
#include "net/network.h"

namespace dnsttl {
namespace {

using dns::Name;
using dns::RRType;

// ------------------------------------------------------- outage window

std::shared_ptr<dns::Zone> tiny_zone() {
  auto zone = std::make_shared<dns::Zone>(Name::from_string("example.org"));
  zone->add(dns::make_soa(Name::from_string("example.org"), dns::Ttl{3600},
                          Name::from_string("ns.example.org"), 1));
  zone->add(dns::make_a(Name::from_string("www.example.org"), dns::Ttl{300},
                        dns::Ipv4(10, 1, 1, 1)));
  return zone;
}

struct Rig {
  net::Network network{sim::Rng{1}};
  auth::AuthServer server{"auth"};
  net::Address addr;
  net::NodeRef client{dns::Ipv4(10, 0, 0, 99), net::Location{}};

  Rig() {
    server.add_zone(tiny_zone());
    addr = network.attach(server, net::Location{});
  }

  net::QueryOutcome query(std::int64_t at_seconds) {
    auto message = dns::Message::make_query(
        1, Name::from_string("www.example.org"), RRType::kA);
    return network.query(client, addr, message,
                         sim::at(sim::seconds(at_seconds)));
  }
};

TEST(FaultInjectionTest, OutageWindowTimesOutInsideOnly) {
  Rig rig;
  rig.network.add_outage(rig.addr, sim::at(sim::seconds(10)),
                         sim::at(sim::seconds(20)));
  EXPECT_TRUE(rig.query(5).response.has_value());
  auto inside = rig.query(15);
  EXPECT_FALSE(inside.response.has_value());
  EXPECT_EQ(inside.elapsed, net::Network::kQueryTimeout);
  EXPECT_TRUE(rig.query(20).response.has_value());  // half-open end
  EXPECT_EQ(rig.network.outage_timeouts(), 1u);
  EXPECT_EQ(rig.server.queries_answered(), 2u);
}

// ------------------------------------------------- chaos scenario matrix

/// Runs one scenario at --jobs 1 and --jobs 4 and requires byte-identical
/// golden tables before handing the serial result back for semantic
/// assertions.
core::OutageResult run_deterministic(const core::OutageConfig& config) {
  core::OutageResult serial = core::run_outage_experiment(config, 1);
  core::OutageResult parallel = core::run_outage_experiment(config, 4);
  EXPECT_EQ(serial.render(), parallel.render())
      << "outage table must be byte-identical at --jobs 1 and --jobs 4";
  return serial;
}

core::OutageConfig chaos_base() {
  core::OutageConfig config;
  config.horizon = 30 * sim::kMinute;
  config.outage_start = 5 * sim::kMinute;
  config.outage_duration = 15 * sim::kMinute;
  return config;
}

TEST(ChaosMatrixTest, OutageMidTtlRidesOnTheCache) {
  core::OutageConfig config = chaos_base();
  config.ttls = {dns::Ttl{21600}};  // outlives the horizon
  config.serve_stale_variants = {false};
  core::OutageResult result = run_deterministic(config);
  ASSERT_EQ(result.points.size(), 1u);
  const auto& p = result.points[0];
  EXPECT_EQ(p.failed, 0u);
  EXPECT_EQ(p.window_failed, 0u);
  EXPECT_EQ(p.stale_answers, 0u);
}

TEST(ChaosMatrixTest, OutagePastTtlFailsUnlessServeStale) {
  core::OutageConfig config = chaos_base();
  config.ttls = {dns::Ttl{60}};
  config.serve_stale_variants = {false, true};
  core::OutageResult result = run_deterministic(config);
  ASSERT_EQ(result.points.size(), 2u);
  const auto& plain = result.points[0];
  const auto& stale = result.points[1];
  ASSERT_FALSE(plain.serve_stale);
  ASSERT_TRUE(stale.serve_stale);

  EXPECT_GT(plain.window_failed, 0u);
  EXPECT_GT(plain.backoffs, 0u);  // repeat timeouts bench the dead server
  EXPECT_GT(plain.outage_timeouts, 0u);

  EXPECT_EQ(stale.failed, 0u);  // RFC 8767 absorbs the outage
  EXPECT_GT(stale.window_stale, 0u);
  EXPECT_GE(stale.resurrections, 1u);  // the record comes back afterwards
  EXPECT_LT(stale.outage_timeouts, plain.outage_timeouts)
      << "stale-refresh suppression must cut retries against a dead server";
}

TEST(ChaosMatrixTest, AuthLoadAndFailuresFallAsTtlRises) {
  core::OutageConfig config = chaos_base();
  config.ttls = {dns::Ttl{60}, dns::Ttl{300}, dns::Ttl{3600}};
  config.serve_stale_variants = {false};
  core::OutageResult result = run_deterministic(config);
  ASSERT_EQ(result.points.size(), 3u);
  for (std::size_t i = 1; i < result.points.size(); ++i) {
    EXPECT_LE(result.points[i].auth_queries, result.points[i - 1].auth_queries)
        << "longer TTLs must not increase authoritative load";
  }
  // Failure counts are only meaningfully ordered across TTLs on different
  // sides of the outage scale (both 60 s and 300 s expire inside the
  // window; their totals differ by edge effects of when exactly the last
  // pre-outage fetch happened).  A TTL outlasting the window must beat any
  // TTL that expires inside it.
  EXPECT_LT(result.points.back().failed, result.points.front().failed)
      << "a TTL outlasting the outage must cut user-visible failures";
}

}  // namespace
}  // namespace dnsttl
