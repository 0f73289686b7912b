// Model-based and structured-fuzz property tests: the cache against a
// plain reference model over random operation sequences, random messages
// with every rdata type through the wire codec, and the wire-exercising
// network mode over a full experiment.

#include <gtest/gtest.h>

#include <map>

#include "cache/cache.h"
#include "core/centricity_experiment.h"
#include "core/world.h"
#include "dns/rr.h"
#include "dns/wire.h"
#include "sim/rng.h"

namespace dnsttl {
namespace {

using dns::Name;
using dns::RRType;

// -------------------------------------------------------- cache vs model

/// A deliberately-simple reference model of the cache's TTL/credibility
/// behavior (no NS linkage): last-accepted-write wins, expiry by wall
/// clock, higher credibility refuses downgrades while live.
struct ModelEntry {
  std::string value;
  int credibility;
  sim::Time expires;
};

class CacheModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheModelTest, RandomOperationSequencesMatchTheModel) {
  sim::Rng rng(GetParam());
  cache::Cache::Config config;
  config.link_glue_to_ns = false;  // linkage is tested separately
  config.max_ttl = dns::Ttl{3600};
  cache::Cache cache(config);
  std::map<std::string, ModelEntry> model;

  const std::vector<std::string> names = {"a.test", "b.test", "c.test",
                                          "d.test"};
  sim::Time now{};

  for (int step = 0; step < 4000; ++step) {
    now += sim::seconds(static_cast<std::int64_t>(rng.uniform_int(1, 120)));
    const auto& name = names[rng.uniform_int(0, names.size() - 1)];

    if (rng.chance(0.45)) {
      // Insert with random TTL and credibility.
      auto ttl = dns::Ttl::of_seconds(static_cast<std::int64_t>(rng.uniform_int(1, 7200)));
      int cred = static_cast<int>(rng.uniform_int(1, 4));
      std::string value = "10.0.0." + std::to_string(rng.uniform_int(1, 250));
      dns::RRset rrset(Name::from_string(name), dns::RClass::kIN, ttl);
      rrset.add(dns::ARdata{dns::Ipv4::from_string(value)});

      bool stored =
          cache.insert(rrset, static_cast<cache::Credibility>(cred), now);

      auto it = model.find(name);
      bool model_accepts = it == model.end() || it->second.expires <= now ||
                           it->second.credibility <= cred;
      ASSERT_EQ(stored, model_accepts) << "step " << step;
      if (model_accepts) {
        dns::Ttl effective = std::min<dns::Ttl>(ttl, config.max_ttl);
        model[name] = ModelEntry{
            value, cred,
            now + sim::seconds(effective.value())};
      }
    } else if (rng.chance(0.15)) {
      bool evicted = cache.evict(Name::from_string(name), RRType::kA);
      auto it = model.find(name);
      ASSERT_EQ(evicted, it != model.end()) << "step " << step;
      model.erase(name);
    } else {
      auto hit = cache.lookup(Name::from_string(name), RRType::kA, now);
      auto it = model.find(name);
      bool model_hit = it != model.end() && it->second.expires > now;
      ASSERT_EQ(hit.has_value(), model_hit) << "step " << step;
      if (model_hit) {
        ASSERT_EQ(dns::rdata_to_string(hit->rrset().rdatas()[0]),
                  it->second.value)
            << "step " << step;
        ASSERT_EQ(sim::seconds(hit->ttl.value()),
                  it->second.expires - now)
            << "step " << step;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheModelTest,
                         ::testing::Values(1, 7, 42, 1337, 90210));

// ------------------------------------------- serve-stale cache vs model

/// Reference model for RFC 8767 serve-stale: a plain map of
/// (value, expiry, original TTL).  A lookup past expiry but inside the
/// stale window is a stale hit with the fixed 30 s TTL; fresh data landing
/// on an expired-but-servable entry is a resurrection.
struct StaleModelEntry {
  std::string value;
  sim::Time expires;
  dns::Ttl original_ttl;
};

class ServeStaleOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ServeStaleOracleTest, RandomTracesMatchTheModel) {
  sim::Rng rng(GetParam());
  cache::Cache::Config config;
  config.link_glue_to_ns = false;
  config.serve_stale = true;
  config.stale_window = 1 * sim::kHour;
  cache::Cache cache(config);
  std::map<std::string, StaleModelEntry> model;
  std::uint64_t model_resurrections = 0;

  const std::vector<std::string> names = {"a.test", "b.test", "c.test",
                                          "d.test"};
  sim::Time now{};

  for (int step = 0; step < 4000; ++step) {
    now += sim::seconds(static_cast<std::int64_t>(rng.uniform_int(1, 900)));
    const auto& name = names[rng.uniform_int(0, names.size() - 1)];

    if (rng.chance(0.35)) {
      auto ttl = dns::Ttl::of_seconds(
          static_cast<std::int64_t>(rng.uniform_int(1, 3600)));
      std::string value = "10.0.0." + std::to_string(rng.uniform_int(1, 250));
      dns::RRset rrset(Name::from_string(name), dns::RClass::kIN, ttl);
      rrset.add(dns::ARdata{dns::Ipv4::from_string(value)});
      ASSERT_TRUE(cache.insert(rrset, cache::Credibility::kAuthAnswer, now));

      auto it = model.find(name);
      if (it != model.end() && it->second.expires <= now &&
          now < it->second.expires + config.stale_window) {
        ++model_resurrections;  // expired but still servable: came back
      }
      model[name] =
          StaleModelEntry{value, now + sim::seconds(ttl.value()), ttl};
    } else {
      bool allow_stale = rng.chance(0.75);
      auto hit = cache.lookup(Name::from_string(name), RRType::kA, now,
                              allow_stale);
      auto it = model.find(name);
      if (it == model.end()) {
        ASSERT_FALSE(hit.has_value()) << "step " << step;
        continue;
      }
      const StaleModelEntry& entry = it->second;
      if (entry.expires > now) {
        // Live: remaining TTL counts down, never stale.
        ASSERT_TRUE(hit.has_value()) << "step " << step;
        ASSERT_FALSE(hit->stale) << "step " << step;
        ASSERT_EQ(hit->stale_for, sim::Duration{}) << "step " << step;
        ASSERT_EQ(dns::rdata_to_string(hit->rrset().rdatas()[0]), entry.value)
            << "step " << step;
        ASSERT_EQ(sim::seconds(hit->ttl.value()), entry.expires - now)
            << "step " << step;
      } else if (allow_stale && now < entry.expires + config.stale_window) {
        // Stale but servable: fixed 30 s TTL, bounded staleness.
        ASSERT_TRUE(hit.has_value()) << "step " << step;
        ASSERT_TRUE(hit->stale) << "step " << step;
        ASSERT_EQ(hit->ttl, dns::Ttl{30}) << "step " << step;
        ASSERT_EQ(hit->original_ttl, entry.original_ttl) << "step " << step;
        ASSERT_EQ(hit->stale_for, now - entry.expires) << "step " << step;
        ASSERT_LT(hit->stale_for, config.stale_window) << "step " << step;
        ASSERT_EQ(dns::rdata_to_string(hit->rrset().rdatas()[0]), entry.value)
            << "step " << step;
      } else {
        // Expired past the window, or staleness not allowed here.
        ASSERT_FALSE(hit.has_value()) << "step " << step;
      }
    }
  }
  EXPECT_EQ(cache.stats().resurrections, model_resurrections);
  EXPECT_GT(cache.stats().stale_serves, 0u)
      << "trace never exercised a stale serve — widen the time steps";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServeStaleOracleTest,
                         ::testing::Values(2, 23, 443, 8080, 53535));

// ------------------------------------------------------- wire fuzz sweep

class WireFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzzTest, StructuredRandomMessagesRoundTrip) {
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    dns::Message m;
    m.id = static_cast<std::uint16_t>(rng.next());
    m.flags.qr = rng.chance(0.5);
    m.flags.aa = rng.chance(0.5);
    m.flags.rd = rng.chance(0.5);
    m.flags.ra = rng.chance(0.5);
    m.flags.rcode = static_cast<dns::Rcode>(rng.uniform_int(0, 5));
    m.questions.push_back(
        dns::Question{Name::from_string("q" + std::to_string(trial) +
                                        ".fuzz.example"),
                      RRType::kA, dns::RClass::kIN});

    auto random_name = [&rng]() {
      std::string label(rng.uniform_int(1, 20), 'x');
      for (auto& c : label) {
        c = static_cast<char>('a' + rng.uniform_int(0, 25));
      }
      return Name::from_string(label + ".fuzz.example");
    };

    std::size_t records = rng.uniform_int(0, 25);
    for (std::size_t i = 0; i < records; ++i) {
      auto owner = random_name();
      auto ttl = dns::Ttl::of_seconds(static_cast<std::int64_t>(rng.uniform_int(0, 172800)));
      dns::Rdata rdata;
      switch (rng.uniform_int(0, 8)) {
        case 0:
          rdata = dns::ARdata{dns::Ipv4(static_cast<std::uint32_t>(rng.next()))};
          break;
        case 1: {
          std::array<std::uint8_t, 16> octets;
          for (auto& o : octets) {
            o = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
          }
          rdata = dns::AaaaRdata{dns::Ipv6{octets}};
          break;
        }
        case 2:
          rdata = dns::NsRdata{random_name()};
          break;
        case 3:
          rdata = dns::CnameRdata{random_name()};
          break;
        case 4:
          rdata = dns::MxRdata{
              static_cast<std::uint16_t>(rng.uniform_int(0, 999)),
              random_name()};
          break;
        case 5: {
          std::string text(rng.uniform_int(0, 600), 't');
          rdata = dns::TxtRdata{std::move(text)};
          break;
        }
        case 6:
          rdata = dns::PtrRdata{random_name()};
          break;
        case 7:
          rdata = dns::SrvRdata{
              static_cast<std::uint16_t>(rng.uniform_int(0, 65535)),
              static_cast<std::uint16_t>(rng.uniform_int(0, 65535)),
              static_cast<std::uint16_t>(rng.uniform_int(0, 65535)),
              random_name()};
          break;
        default:
          rdata = dns::DnskeyRdata{
              static_cast<std::uint16_t>(rng.uniform_int(0, 65535)), 3, 8,
              "key" + std::to_string(rng.next())};
      }
      auto section = rng.uniform_int(0, 2);
      auto rr = dns::ResourceRecord{owner, dns::RClass::kIN, ttl,
                                    std::move(rdata)};
      if (section == 0) {
        m.answers.push_back(std::move(rr));
      } else if (section == 1) {
        m.authorities.push_back(std::move(rr));
      } else {
        m.additionals.push_back(std::move(rr));
      }
    }
    ASSERT_EQ(dns::decode(dns::encode(m)), m) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55));

// --------------------------------------- wire-exercised full experiment

TEST(WireExerciseTest, FullCentricityRunSurvivesTheCodecOnEveryHop) {
  net::Network::Params params;
  params.exercise_wire_codec = true;
  net::Network network{sim::Rng{3}, net::LatencyModel{}, params};

  // A small hand-built hierarchy on the wire-exercising network.
  auto root_zone = std::make_shared<dns::Zone>(Name{});
  root_zone->add(dns::make_soa(Name{}, dns::Ttl{86400},
                               Name::from_string("a.root-servers.net"), 1));
  auth::AuthServer root_server{"root"};
  root_server.add_zone(root_zone);
  auto root_addr = network.attach(root_server,
                                  net::Location{net::Region::kNA, 1.0});
  root_zone->add(dns::make_ns(Name{}, dns::Ttl{518400},
                              Name::from_string("a.root-servers.net")));
  root_zone->add(
      dns::make_a(Name::from_string("a.root-servers.net"), dns::Ttl{518400}, root_addr));

  auto uy_zone = std::make_shared<dns::Zone>(Name::from_string("uy"));
  uy_zone->add(dns::make_soa(Name::from_string("uy"), dns::Ttl{300},
                             Name::from_string("a.nic.uy"), 1));
  uy_zone->add(dns::make_ns(Name::from_string("uy"), dns::Ttl{300},
                            Name::from_string("a.nic.uy")));
  auth::AuthServer uy_server{"a.nic.uy"};
  uy_server.add_zone(uy_zone);
  auto uy_addr =
      network.attach(uy_server, net::Location{net::Region::kSA, 1.0});
  uy_zone->add(dns::make_a(Name::from_string("a.nic.uy"), dns::Ttl{120}, uy_addr));
  root_zone->add(dns::make_ns(Name::from_string("uy"), dns::Ttl{172800},
                              Name::from_string("a.nic.uy")));
  root_zone->add(dns::make_a(Name::from_string("a.nic.uy"), dns::Ttl{172800}, uy_addr));

  resolver::RootHints hints;
  hints.servers.push_back({Name::from_string("a.root-servers.net"),
                           root_addr});
  resolver::RecursiveResolver resolver("wired",
                                       resolver::child_centric_config(),
                                       network, hints);
  net::Location eu{net::Region::kEU, 1.0};
  resolver.set_node_ref(net::NodeRef{network.attach(resolver, eu), eu});

  // Every hop of this resolution round-trips through encode/decode; any
  // codec asymmetry throws.
  auto result = resolver.resolve(
      {Name::from_string("uy"), RRType::kNS, dns::RClass::kIN}, sim::Time{});
  EXPECT_EQ(result.response.flags.rcode, dns::Rcode::kNoError);
  EXPECT_EQ(result.response.answers.at(0).ttl, dns::Ttl{300});
}

}  // namespace
}  // namespace dnsttl
