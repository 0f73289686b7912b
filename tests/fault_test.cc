// The fault-injection subsystem: schedule parsing and canonicalization,
// per-kind injection semantics at the network layer, and the chaos
// scenario matrix — four scripted failure stories whose golden tables must
// come out byte-identical at --jobs 1 and --jobs 4.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "auth/auth_server.h"
#include "check/audit.h"
#include "core/outage_experiment.h"
#include "dns/rr.h"
#include "fault/schedule.h"
#include "net/network.h"

namespace dnsttl {
namespace {

using dns::Name;
using dns::RRType;
using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultSchedule;

// ------------------------------------------------------- schedule parsing

TEST(FaultScheduleTest, ParseRoundTripsThroughCanonicalForm) {
  const char* text =
      "# a comment line\n"
      "latency  1m..2m   factor=3.5 extra=50ms\n"
      "outage   10s..20s addr=10.0.0.1  # trailing comment\n"
      "\n"
      "loss     0s..5m   rate=0.25\n"
      "servfail 30s..40s addr=10.0.0.5\n"
      "truncate 0s..1h\n"
      "lame     2m..3m   addr=10.0.0.9\n";
  FaultSchedule schedule = FaultSchedule::parse(text);
  EXPECT_EQ(schedule.events().size(), 6u);

  // Canonical rendering re-parses to an equal schedule, and is a fixpoint.
  std::string canonical = schedule.to_string();
  FaultSchedule reparsed = FaultSchedule::parse(canonical);
  EXPECT_EQ(schedule, reparsed);
  EXPECT_EQ(canonical, reparsed.to_string());
}

TEST(FaultScheduleTest, AddKeepsCanonicalOrderRegardlessOfInsertion) {
  auto window = [](std::int64_t start_s, std::int64_t end_s, FaultKind kind) {
    FaultEvent e;
    e.start = sim::at(sim::seconds(start_s));
    e.end = sim::at(sim::seconds(end_s));
    e.kind = kind;
    return e;
  };
  FaultSchedule forward;
  forward.add(window(1, 2, FaultKind::kOutage));
  forward.add(window(3, 4, FaultKind::kLame));
  forward.add(window(3, 4, FaultKind::kTruncate));
  FaultSchedule backward;
  backward.add(window(3, 4, FaultKind::kTruncate));
  backward.add(window(3, 4, FaultKind::kLame));
  backward.add(window(1, 2, FaultKind::kOutage));
  EXPECT_EQ(forward, backward);
  EXPECT_EQ(forward.to_string(), backward.to_string());
}

TEST(FaultScheduleTest, ParseRejectsMalformedInputWithLineNumbers) {
  EXPECT_THROW(FaultSchedule::parse("bogus 0s..1s"), fault::ScheduleParseError);
  EXPECT_THROW(FaultSchedule::parse("outage 5s"), fault::ScheduleParseError);
  EXPECT_THROW(FaultSchedule::parse("outage 1s..2lightyears"),
               fault::ScheduleParseError);
  EXPECT_THROW(FaultSchedule::parse("outage 2s..1s"),
               fault::ScheduleParseError);
  EXPECT_THROW(FaultSchedule::parse("loss 0s..1s rate=1.5"),
               fault::ScheduleParseError);
  EXPECT_THROW(FaultSchedule::parse("latency 0s..1s factor=0"),
               fault::ScheduleParseError);
  EXPECT_THROW(FaultSchedule::parse("outage 0s..1s color=red"),
               fault::ScheduleParseError);
  try {
    FaultSchedule::parse("outage 0s..1s\noutage 0s..1s\nnonsense 0s..1s\n");
    FAIL() << "expected ScheduleParseError";
  } catch (const fault::ScheduleParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(FaultScheduleTest, WindowsAreHalfOpenAndTargeted) {
  FaultEvent e;
  e.start = sim::at(sim::seconds(10));
  e.end = sim::at(sim::seconds(20));
  e.target = dns::Ipv4(10, 0, 0, 1);
  FaultSchedule schedule;
  schedule.add(e);

  const dns::Ipv4 hit(10, 0, 0, 1);
  const dns::Ipv4 other(10, 0, 0, 2);
  EXPECT_FALSE(schedule.outage(hit, sim::at(sim::seconds(9))));
  EXPECT_TRUE(schedule.outage(hit, sim::at(sim::seconds(10))));   // closed
  EXPECT_TRUE(schedule.outage(hit, sim::at(sim::seconds(19))));
  EXPECT_FALSE(schedule.outage(hit, sim::at(sim::seconds(20))));  // open
  EXPECT_FALSE(schedule.outage(other, sim::at(sim::seconds(15))));

  FaultEvent everywhere = e;
  everywhere.target.reset();
  FaultSchedule untargeted;
  untargeted.add(everywhere);
  EXPECT_TRUE(untargeted.outage(other, sim::at(sim::seconds(15))));
}

TEST(FaultScheduleTest, OverlappingWindowsCompose) {
  auto window = [](FaultKind kind, double rate, double factor,
                   sim::Duration extra) {
    FaultEvent e;
    e.start = sim::at(sim::seconds(0));
    e.end = sim::at(sim::seconds(100));
    e.kind = kind;
    e.rate = rate;
    e.factor = factor;
    e.extra = extra;
    return e;
  };
  FaultSchedule schedule;
  schedule.add(window(FaultKind::kLoss, 0.5, 1.0, {}));
  schedule.add(window(FaultKind::kLoss, 0.5, 1.0, {}));
  schedule.add(window(FaultKind::kLatency, 1.0, 2.0, sim::milliseconds(10)));
  schedule.add(window(FaultKind::kLatency, 1.0, 3.0, sim::milliseconds(20)));

  const dns::Ipv4 addr(10, 0, 0, 1);
  const sim::Time now = sim::at(sim::seconds(50));
  EXPECT_DOUBLE_EQ(schedule.extra_loss(addr, now), 0.75);  // 1-(1-.5)(1-.5)
  EXPECT_DOUBLE_EQ(schedule.latency_factor(addr, now), 6.0);
  EXPECT_EQ(schedule.extra_latency(addr, now), sim::milliseconds(30));
  EXPECT_EQ(schedule.extra_loss(addr, sim::at(sim::seconds(100))), 0.0);
}

TEST(FaultScheduleTest, ForcedRcodeMapsKinds) {
  FaultEvent servfail;
  servfail.end = sim::at(sim::seconds(10));
  servfail.kind = FaultKind::kServfail;
  FaultEvent refused = servfail;
  refused.kind = FaultKind::kRefused;
  refused.start = sim::at(sim::seconds(10));
  refused.end = sim::at(sim::seconds(20));
  FaultSchedule schedule;
  schedule.add(servfail);
  schedule.add(refused);

  const dns::Ipv4 addr(10, 0, 0, 1);
  EXPECT_EQ(schedule.forced_rcode(addr, sim::at(sim::seconds(5))),
            dns::Rcode::kServFail);
  EXPECT_EQ(schedule.forced_rcode(addr, sim::at(sim::seconds(15))),
            dns::Rcode::kRefused);
  EXPECT_EQ(schedule.forced_rcode(addr, sim::at(sim::seconds(25))),
            std::nullopt);
}

TEST(FaultScheduleTest, ValidateRejectsMalformedEvents) {
  // validate() bodies are compiled in every configuration; only the
  // automatic add()/parse() hooks gate on the audit build.
  FaultSchedule schedule;
  FaultEvent e;
  e.end = sim::at(sim::seconds(1));
  e.kind = FaultKind::kLoss;
  e.rate = 1.5;  // out of range
  if constexpr (check::kAuditEnabled) {
    EXPECT_THROW(schedule.add(e), check::AuditError);
  } else {
    schedule.add(e);
    EXPECT_THROW(schedule.validate(), check::AuditError);
  }
}

// --------------------------------------------- network-layer injection

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
  FaultSchedule schedule;

  Rig() {
    server.add_zone(tiny_zone());
    addr = network.attach(server, net::Location{});
  }

  void install(FaultEvent event) {
    schedule.add(event);
    network.set_fault_schedule(&schedule);
  }

  net::QueryOutcome query(std::int64_t at_seconds,
                          net::Network::Transport transport =
                              net::Network::Transport::kUdp) {
    auto message = dns::Message::make_query(
        1, Name::from_string("www.example.org"), RRType::kA);
    return network.query(client, addr, message, sim::at(sim::seconds(at_seconds)),
                         transport);
  }
};

FaultEvent window_10s_20s(FaultKind kind) {
  FaultEvent e;
  e.start = sim::at(sim::seconds(10));
  e.end = sim::at(sim::seconds(20));
  e.kind = kind;
  return e;
}

TEST(FaultInjectionTest, OutageWindowTimesOutInsideOnly) {
  Rig rig;
  rig.install(window_10s_20s(FaultKind::kOutage));
  EXPECT_TRUE(rig.query(5).response.has_value());
  auto inside = rig.query(15);
  EXPECT_FALSE(inside.response.has_value());
  EXPECT_EQ(inside.elapsed, net::Network::kQueryTimeout);
  EXPECT_TRUE(rig.query(20).response.has_value());  // half-open end
  EXPECT_EQ(rig.network.fault_stats().outage_timeouts, 1u);
  EXPECT_EQ(rig.server.queries_answered(), 2u);
}

TEST(FaultInjectionTest, ServfailInjectedWithoutReachingTheServer) {
  Rig rig;
  rig.install(window_10s_20s(FaultKind::kServfail));
  auto inside = rig.query(15);
  ASSERT_TRUE(inside.response.has_value());
  EXPECT_EQ(inside.response->flags.rcode, dns::Rcode::kServFail);
  EXPECT_TRUE(inside.response->flags.qr);
  EXPECT_TRUE(inside.response->answers.empty());
  EXPECT_EQ(rig.server.queries_answered(), 0u);
  EXPECT_EQ(rig.network.fault_stats().injected_rcodes, 1u);
}

TEST(FaultInjectionTest, RefusedInjection) {
  Rig rig;
  rig.install(window_10s_20s(FaultKind::kRefused));
  auto inside = rig.query(15);
  ASSERT_TRUE(inside.response.has_value());
  EXPECT_EQ(inside.response->flags.rcode, dns::Rcode::kRefused);
  EXPECT_EQ(rig.server.queries_answered(), 0u);
}

TEST(FaultInjectionTest, LameWindowAnswersEmptyNonAuthoritative) {
  Rig rig;
  rig.install(window_10s_20s(FaultKind::kLame));
  auto inside = rig.query(15);
  ASSERT_TRUE(inside.response.has_value());
  EXPECT_EQ(inside.response->flags.rcode, dns::Rcode::kNoError);
  EXPECT_FALSE(inside.response->flags.aa);
  EXPECT_TRUE(inside.response->answers.empty());
  EXPECT_EQ(rig.server.queries_answered(), 0u);
  EXPECT_EQ(rig.network.fault_stats().lame_responses, 1u);
}

TEST(FaultInjectionTest, TruncateStormForcesTcpRetry) {
  Rig rig;
  rig.install(window_10s_20s(FaultKind::kTruncate));
  auto udp = rig.query(15);
  ASSERT_TRUE(udp.response.has_value());
  EXPECT_TRUE(udp.response->flags.tc);
  EXPECT_TRUE(udp.response->answers.empty());  // sections stripped
  auto tcp = rig.query(15, net::Network::Transport::kTcp);
  ASSERT_TRUE(tcp.response.has_value());
  EXPECT_FALSE(tcp.response->flags.tc);
  EXPECT_EQ(tcp.response->answers.size(), 1u);
  EXPECT_EQ(rig.network.fault_stats().injected_truncations, 1u);
}

TEST(FaultInjectionTest, LatencyWindowScalesAndAddsDelay) {
  auto first_elapsed = [](const FaultSchedule* schedule) {
    net::Network network{sim::Rng{7}};
    network.set_fault_schedule(schedule);
    auth::AuthServer server{"auth"};
    server.add_zone(tiny_zone());
    net::Address addr = network.attach(server, net::Location{});
    net::NodeRef client{dns::Ipv4(10, 0, 0, 99), net::Location{}};
    auto message = dns::Message::make_query(
        1, Name::from_string("www.example.org"), RRType::kA);
    return network.query(client, addr, message, sim::at(sim::seconds(15)))
        .elapsed;
  };
  FaultEvent spike = window_10s_20s(FaultKind::kLatency);
  spike.factor = 3.0;
  spike.extra = sim::milliseconds(500);
  FaultSchedule schedule;
  schedule.add(spike);
  // Same seed, so the RTT jitter draw is identical; the fault layer scales
  // it after the draw (RNG-stream contract) and adds the extra delay.
  sim::Duration plain = first_elapsed(nullptr);
  sim::Duration spiked = first_elapsed(&schedule);
  EXPECT_GT(spiked, plain + sim::milliseconds(500));
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

TEST(ChaosMatrixTest, LossSpikeRecoversThroughRetries) {
  core::OutageConfig config = chaos_base();
  config.ttls = {dns::Ttl{60}};
  config.serve_stale_variants = {false};
  config.window_kind = FaultKind::kLoss;
  config.window_rate = 0.5;
  core::OutageResult result = run_deterministic(config);
  ASSERT_EQ(result.points.size(), 1u);
  const auto& p = result.points[0];
  EXPECT_GT(p.injected_faults, 0u);
  EXPECT_EQ(p.outage_timeouts, 0u);
  // Retries against a half-lossy server rescue most queries: strictly
  // fewer failures than the hard-outage run of the same shape.
  core::OutageConfig hard = config;
  hard.window_kind = FaultKind::kOutage;
  core::OutageResult hard_result = run_deterministic(hard);
  EXPECT_LT(p.window_failed, hard_result.points[0].window_failed);
}

TEST(ChaosMatrixTest, LameDelegationFlipBreaksResolutionInWindow) {
  core::OutageConfig config = chaos_base();
  config.ttls = {dns::Ttl{60}};
  config.serve_stale_variants = {false};
  config.window_kind = FaultKind::kLame;
  core::OutageResult result = run_deterministic(config);
  ASSERT_EQ(result.points.size(), 1u);
  const auto& p = result.points[0];
  EXPECT_GT(p.injected_faults, 0u);
  EXPECT_GT(p.window_failed, 0u);
  EXPECT_EQ(p.outage_timeouts, 0u);  // the server answers — lamely
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
