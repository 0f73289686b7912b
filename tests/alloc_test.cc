// Heap-allocation counts of hot paths that promise to allocate nothing,
// and allocated bytes of structures that promise to grow with distinct
// values only.  This executable replaces the global operator new with a
// counting one, so it links nothing else that would want its own.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "auth/auth_server.h"
#include "cache/cache.h"
#include "check/audit.h"
#include "crawl/engine.h"
#include "crawl/population_generator.h"
#include "dns/message.h"
#include "dns/rr.h"
#include "dns/wire.h"
#include "dns/zone.h"
#include "net/network.h"
#include "resolver/recursive_resolver.h"

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_allocated_bytes{0};

}  // namespace

// The replacement delete frees what the replacement new took from malloc;
// GCC assumes operator delete's argument came from the library's new and
// flags the free().
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) {
    return block;
  }
  throw std::bad_alloc();
}

void operator delete(void* block) noexcept { std::free(block); }

void operator delete(void* block, std::size_t) noexcept { std::free(block); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace dnsttl {
namespace {

template <typename F>
std::size_t allocations_during(F&& work) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  work();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

template <typename F>
std::size_t bytes_allocated_during(F&& work) {
  const std::size_t before = g_allocated_bytes.load(std::memory_order_relaxed);
  work();
  return g_allocated_bytes.load(std::memory_order_relaxed) - before;
}

TEST(AllocationTest, CounterSeesAllocations) {
  EXPECT_GE(allocations_during([] {
              std::string grown(100, 'x');
              EXPECT_EQ(grown.size(), 100u);
            }),
            1u);
}

TEST(AllocationTest, GenerateDomainAllocatesNothingOnceWarm) {
  // Every value is formatted into a recycled buffer.  Buffers grow only
  // when a domain has more records, or a longer value, than any before it,
  // so the warm-up hands in more buffers than any domain of these lists
  // has records, each with room for any value; names of one digit count
  // have one length, so the name buffer is warm after the first domain.
  for (const auto& params :
       {crawl::alexa_params(), crawl::majestic_params(),
        crawl::umbrella_params(), crawl::nl_params(), crawl::root_params()}) {
    const std::string suffix = crawl::list_suffix(params);
    const sim::Rng list_rng(1);
    crawl::GeneratedDomain domain;
    domain.records.assign(
        32, crawl::HarvestedRecord{dns::RRType::kA, dns::Ttl{0},
                                   std::string(64, 'x')});
    auto generate = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        sim::Rng rng = list_rng.fork(i);
        crawl::generate_domain(params, suffix, i, rng, domain);
      }
    };
    generate(100000, 100001);
    EXPECT_EQ(allocations_during([&] { generate(100001, 130000); }), 0u)
        << params.name;
  }
}

TEST(AllocationTest, EncodedSizeOfReferralWithGlueAllocatesNothing) {
  using dns::Name;
  const auto zone = Name::from_string("example.com");
  auto referral = dns::Message::make_response(dns::Message::make_query(
      7, Name::from_string("www.example.com"), dns::RRType::kA));
  for (const char* ns : {"ns1.example.com", "ns2.example.com"}) {
    const auto target = Name::from_string(ns);
    referral.authorities.push_back(
        dns::make_ns(zone, dns::kTtl2Days, target));
    referral.additionals.push_back(
        dns::make_a(target, dns::kTtl2Days, dns::Ipv4(192, 0, 2, 1)));
    referral.additionals.push_back(
        dns::make_aaaa(target, dns::kTtl2Days,
                       dns::Ipv6::from_string("2001:db8::1")));
  }
  std::size_t size = 0;
  EXPECT_EQ(allocations_during([&] { size = dns::encoded_size(referral); }),
            0u);
  EXPECT_EQ(size, dns::encode(referral).size());
}

/// A name whose labels take @p octets octets (2 to 254).
dns::Name name_of_octets(std::size_t octets) {
  std::string text;
  for (; octets > 64; octets -= 64) {
    text += std::string(63, 'p') + ".";
  }
  return dns::Name::from_string(text + std::string(octets - 1, 'q'));
}

TEST(AllocationTest, NamesUpToTheInlineCapacityCopyWithoutAllocating) {
  for (std::size_t octets :
       {std::size_t{2}, std::size_t{24}, dns::Name::kInlineCapacity}) {
    const dns::Name original = name_of_octets(octets);
    ASSERT_EQ(original.wire_length(), octets + 1);
    dns::Name target = dns::Name::from_string("x.y");
    EXPECT_EQ(allocations_during([&] {
                dns::Name copy(original);
                dns::Name moved(std::move(copy));
                target = moved;
                target = std::move(moved);
                dns::Name from_view(original.view());
                EXPECT_EQ(from_view, target);
              }),
              0u)
        << octets << " octets";
  }
}

TEST(AllocationTest, LongerNamesTakeOneBlockPerCopyAndNonePerMove) {
  for (std::size_t octets : {dns::Name::kInlineCapacity + 1, std::size_t{254}}) {
    const dns::Name original = name_of_octets(octets);
    dns::Name copy;
    EXPECT_EQ(allocations_during([&] { copy = original; }), 1u)
        << octets << " octets";
    EXPECT_EQ(allocations_during([&] {
                dns::Name moved(std::move(copy));
                copy = std::move(moved);
              }),
              0u)
        << octets << " octets";
    EXPECT_EQ(copy, original);
  }
}

TEST(AllocationTest, WarmCacheRefreshesThroughCompactionsAllocateNothing) {
  // Each refresh pushes an expiry record and leaves the old one stale.
  // Once the heap holds more than 2 * kKeys + 8 records it is rebuilt from
  // the live entries, so with the heap at kKeys records after a rebuild,
  // every 17 refreshes compact it once: thirteen times in the measured run.
  // The rebuild keeps the heap's buffer, and the RRsets are built up front
  // and moved in, so the cache allocates nothing.  DNSTTL_AUDIT builds
  // validate the cache after every insert, and each audit allocates twice.
  constexpr std::size_t kKeys = 8;
  constexpr std::size_t kRefreshes = 3 * 73;
  constexpr std::size_t kPinned = check::kAuditEnabled ? 2 * kRefreshes : 0;
  std::vector<dns::Name> names;
  for (std::size_t i = 0; i < kKeys; ++i) {
    names.push_back(dns::Name::from_string("k" + std::to_string(i) + ".test"));
  }
  auto refreshes = [&names] {
    std::vector<dns::RRset> sets;
    for (std::size_t i = 0; i < kRefreshes; ++i) {
      dns::RRset rrset(names[i % kKeys], dns::RClass::kIN, dns::kTtl1Hour);
      rrset.add(dns::ARdata{dns::Ipv4(static_cast<std::uint32_t>(i))});
      sets.push_back(std::move(rrset));
    }
    return sets;
  };
  cache::Cache cache;
  auto insert_all = [&cache](std::vector<dns::RRset>& sets) {
    for (dns::RRset& rrset : sets) {
      EXPECT_TRUE(cache.insert(std::move(rrset),
                               cache::Credibility::kAuthAnswer, sim::Time{}));
    }
  };
  std::vector<dns::RRset> warm = refreshes();
  insert_all(warm);
  std::vector<dns::RRset> measured = refreshes();
  EXPECT_EQ(allocations_during([&] { insert_all(measured); }), kPinned);
  EXPECT_EQ(cache.size(), kKeys);
}

TEST(AllocationTest, RefillAfterClearAllocatesNothing) {
  // Platform::flush_all empties every resolver cache between phases, and
  // the next phase refills them to similar sizes.  clear() keeps the
  // tables' slot arrays and the expiry heaps' buffers, so the refill
  // reuses them.  DNSTTL_AUDIT builds validate the cache after every
  // insert, and each audit allocates twice.
  constexpr std::size_t kEntries = 1000;
  constexpr std::size_t kPinned = check::kAuditEnabled ? 2 * kEntries : 0;
  auto rrsets = [] {
    std::vector<dns::RRset> sets;
    for (std::size_t i = 0; i < kEntries; ++i) {
      dns::RRset rrset(
          dns::Name::from_string("r" + std::to_string(i) + ".test"),
          dns::RClass::kIN, dns::kTtl1Hour);
      rrset.add(dns::ARdata{dns::Ipv4(static_cast<std::uint32_t>(i))});
      sets.push_back(std::move(rrset));
    }
    return sets;
  };
  cache::Cache cache;
  auto insert_all = [&cache](std::vector<dns::RRset>& sets) {
    for (dns::RRset& rrset : sets) {
      EXPECT_TRUE(cache.insert(std::move(rrset),
                               cache::Credibility::kAuthAnswer, sim::Time{}));
    }
  };
  std::vector<dns::RRset> fill = rrsets();
  insert_all(fill);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  std::vector<dns::RRset> refill = rrsets();
  EXPECT_EQ(allocations_during([&] { insert_all(refill); }), kPinned);
  EXPECT_EQ(cache.size(), kEntries);
}

TEST(AllocationTest, PurgingDueEntriesAllocatesNothing) {
  // The §3.4 demand pool purges a resolver's cache before every client
  // query.  Dropping due entries only frees: the NS set, the glue linked
  // to it (releasing the link, whose owner is a long name with its own
  // block), plain answers and negatives.  DNSTTL_AUDIT builds validate the
  // cache after the purge, which allocates three times while both tables
  // keep live entries.
  constexpr std::size_t kDue = 40;
  constexpr std::size_t kLive = 10;
  constexpr std::size_t kPinned = check::kAuditEnabled ? 3 : 0;
  const dns::Name zone = name_of_octets(dns::Name::kInlineCapacity + 1);
  cache::Cache cache;
  dns::RRset ns(zone, dns::RClass::kIN, dns::Ttl{60});
  ns.add(dns::NsRdata{zone.prepend("ns1")});
  ASSERT_TRUE(cache.insert(std::move(ns), cache::Credibility::kGlue,
                           sim::Time{}));
  for (int i = 1; i <= 2; ++i) {
    dns::RRset glue(zone.prepend("ns" + std::to_string(i)), dns::RClass::kIN,
                    dns::Ttl{30});
    glue.add(dns::ARdata{dns::Ipv4(static_cast<std::uint32_t>(i))});
    ASSERT_TRUE(cache.insert(std::move(glue), cache::Credibility::kGlue,
                             sim::Time{}, zone));
  }
  ASSERT_EQ(cache.linked_ns_owners(), 1u);
  for (std::size_t i = 0; i < kDue + kLive; ++i) {
    const dns::Ttl ttl = i < kDue ? dns::Ttl{10} : dns::kTtl1Hour;
    dns::RRset rrset(dns::Name::from_string("a" + std::to_string(i) + ".test"),
                     dns::RClass::kIN, ttl);
    rrset.add(dns::ARdata{dns::Ipv4(static_cast<std::uint32_t>(i))});
    ASSERT_TRUE(cache.insert(std::move(rrset),
                             cache::Credibility::kAuthAnswer, sim::Time{}));
    cache.insert_negative(
        dns::Name::from_string("n" + std::to_string(i) + ".test"),
        dns::RRType::kA, dns::Rcode::kNXDomain, ttl, sim::Time{});
  }
  std::size_t removed = 0;
  EXPECT_EQ(allocations_during([&] {
              removed = cache.purge_expired(sim::at(120 * sim::kSecond));
            }),
            kPinned);
  EXPECT_EQ(removed, 3 + 2 * kDue);
  EXPECT_EQ(cache.linked_ns_owners(), 0u);
  EXPECT_EQ(cache.size(), kLive);
  EXPECT_EQ(cache.negative_size(), kLive);
}

TEST(AllocationTest, CrawlTtlCdfsHoldRunsNotSamples) {
  // A crawl adds one TTL per harvested record to its type's CDF, and the
  // TTLs fall on a few grid values, so each CDF holds one (value, count)
  // run per distinct TTL.  A copy allocates what the CDF holds: at most
  // one run per distinct TTL of its type in the list, where one double
  // per sample would take 8 bytes a record.  The slots checked have
  // records enough for that to exceed the bound.  crawl-memory-compare
  // guards the whole crawl's peak.
  sim::Rng rng(27);
  std::size_t checked = 0;
  for (const auto& params :
       {crawl::alexa_params(3000), crawl::majestic_params(3000),
        crawl::umbrella_params(3000), crawl::nl_params(5000),
        crawl::root_params()}) {
    const auto list_rng = rng.fork(std::hash<std::string>{}(params.name));
    std::array<std::set<std::uint32_t>, crawl::TypeTallyTable::kSlots.size()>
        ttls;
    for (const auto& domain : crawl::generate_population(params, list_rng)) {
      for (const auto& record : domain.records) {
        ttls[crawl::TypeTallyTable::slot_of(record.type)].insert(
            record.ttl.value());
      }
    }
    crawl::EngineOptions options;
    options.shard_count = 4;
    const auto report = crawl::crawl_engine(params, list_rng, options).report;
    for (std::size_t slot = 0; slot < ttls.size(); ++slot) {
      const auto* tally =
          report.by_type.find(crawl::TypeTallyTable::kSlots[slot]);
      const std::size_t bound = ttls[slot].size() * sizeof(stats::Cdf::Run);
      if (tally == nullptr || tally->records * sizeof(double) <= bound) {
        continue;
      }
      ++checked;
      const stats::Cdf& cdf = tally->ttl_cdf;
      EXPECT_LE(bytes_allocated_during([&cdf] {
                  const stats::Cdf copy = cdf;
                  EXPECT_EQ(copy.runs(), cdf.runs());
                }),
                bound)
          << params.name << " slot " << slot << ", " << tally->records
          << " records";
    }
  }
  EXPECT_GE(checked, 15u);
}

/// A root server delegating example.org (two nameservers, in-bailiwick
/// glue) to a child server holding www.example.org, and a default
/// resolver that knows the root: the smallest world with a full referral
/// walk and a server list to sort.
class ExchangeAllocationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const dns::Name origin = dns::Name::from_string("example.org");
    auto root_zone = std::make_shared<dns::Zone>(dns::Name{});
    auto child_zone = std::make_shared<dns::Zone>(origin);
    root_server.add_zone(root_zone);
    child_server.add_zone(child_zone);
    const net::Address root_address = network.attach(root_server, here);
    child_address = network.attach(child_server, here);
    child_zone->add(dns::make_soa(origin, dns::kTtl1Hour,
                                  dns::Name::from_string("ns1.example.org"),
                                  1));
    for (const char* text : {"ns1.example.org", "ns2.example.org"}) {
      const dns::Name ns = dns::Name::from_string(text);
      root_zone->add(dns::make_ns(origin, dns::kTtl2Days, ns));
      root_zone->add(dns::make_a(ns, dns::kTtl2Days, child_address));
      child_zone->add(dns::make_ns(origin, dns::kTtl1Hour, ns));
      child_zone->add(dns::make_a(ns, dns::kTtl1Hour, child_address));
    }
    child_zone->add(dns::make_a(question.qname, dns::kTtl1Hour,
                                dns::Ipv4(192, 0, 2, 80)));
    resolver::RootHints hints;
    hints.servers.push_back({dns::Name::from_string("a.root"), root_address});
    resolver = std::make_unique<resolver::RecursiveResolver>(
        "r", resolver::ResolverConfig{}, network, hints);
    resolver->set_node_ref(
        net::NodeRef{network.attach(*resolver, here), here});
  }

  net::Location here{net::Region::kEU, 1.0};
  net::Network network{sim::Rng{1}};
  auth::AuthServer root_server{"root"};
  auth::AuthServer child_server{"child"};
  net::Address child_address;
  std::unique_ptr<resolver::RecursiveResolver> resolver;
  dns::Question question{dns::Name::from_string("www.example.org"),
                         dns::RRType::kA, dns::RClass::kIN};
};

TEST_F(ExchangeAllocationTest, WarmExchangeWithAnAuthServerAllocatesNothing) {
  const net::NodeRef client{dns::Ipv4(10, 9, 9, 9), here};
  auto exchange = [&] {
    net::MessageLease query(network);
    net::MessageLease reply(network);
    query->set_query(7, question.qname, question.qtype, false);
    query->add_edns();
    const auto result =
        network.exchange(client, child_address, *query, sim::Time{}, *reply);
    EXPECT_TRUE(result.answered);
    EXPECT_EQ(reply->answers.size(), 1u);
  };
  exchange();
  EXPECT_EQ(allocations_during(exchange), 0u);
}

TEST_F(ExchangeAllocationTest, WarmNxDomainExchangeAllocatesNothing) {
  // The NXDOMAIN reply carries the zone's SOA in its authority section.
  // The record shares the zone's SOA payload, so copying it into the
  // recycled reply allocates nothing.
  const net::NodeRef client{dns::Ipv4(10, 9, 9, 9), here};
  const dns::Name missing = dns::Name::from_string("nx.example.org");
  auto exchange = [&] {
    net::MessageLease query(network);
    net::MessageLease reply(network);
    query->set_query(8, missing, dns::RRType::kA, false);
    query->add_edns();
    const auto result =
        network.exchange(client, child_address, *query, sim::Time{}, *reply);
    EXPECT_TRUE(result.answered);
    EXPECT_EQ(reply->flags.rcode, dns::Rcode::kNXDomain);
    ASSERT_EQ(reply->authorities.size(), 1u);
    EXPECT_EQ(reply->authorities[0].type(), dns::RRType::kSOA);
  };
  exchange();
  EXPECT_EQ(allocations_during(exchange), 0u);
}

TEST_F(ExchangeAllocationTest, WarmCacheResolutionAllocatesNothing) {
  bool from_cache = false;
  auto resolve = [&] {
    net::MessageLease reply(network);
    from_cache =
        resolver->resolve(question, sim::Time{}, *reply).answered_from_cache;
    EXPECT_EQ(reply->answers.size(), 1u);
  };
  resolve();
  EXPECT_FALSE(from_cache);
  resolve();
  ASSERT_TRUE(from_cache);
  EXPECT_EQ(allocations_during(resolve), 0u);
  EXPECT_TRUE(from_cache);
}

TEST_F(ExchangeAllocationTest, ColdResolutionAllocatesAtMostThePinnedCount) {
  // Three exchanges: the root's referral, the child's answer for the glue
  // it verifies, and the child's answer.  They run on recycled messages,
  // so what is left is what the emptied cache keeps: its expiry heaps
  // regrow, and each cached RRset holds its members.  DNSTTL_AUDIT builds
  // audit the cache after every insert, and the audits allocate.
  constexpr std::size_t kPinned = check::kAuditEnabled ? 21 : 11;
  auto cold = [&] {
    resolver->flush();
    net::MessageLease reply(network);
    const auto result = resolver->resolve(question, sim::Time{}, *reply);
    EXPECT_EQ(result.upstream_queries, 3);
    EXPECT_EQ(reply->answers.size(), 1u);
  };
  cold();
  EXPECT_LE(allocations_during(cold), kPinned);
}

}  // namespace
}  // namespace dnsttl
