// Heap-allocation counts of hot paths that promise to allocate nothing.
// This executable replaces the global operator new with a counting one, so
// it links nothing else that would want its own.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "crawl/population_generator.h"
#include "dns/message.h"
#include "dns/rr.h"
#include "dns/wire.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

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

}  // namespace
}  // namespace dnsttl
