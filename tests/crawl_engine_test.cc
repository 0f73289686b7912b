#include <gtest/gtest.h>

#include <thread>

#include "crawl/engine.h"
#include "crawl/tabulate.h"

namespace dnsttl::crawl {
namespace {

// Field-for-field report comparison, down to the raw TTL sample multisets
// behind every CDF — this is the differential oracle for the bulk
// resolution engine: any scheduling, sharding, or collapse divergence
// between two drivers surfaces as a field mismatch here.
void expect_identical(const CrawlReport& a, const CrawlReport& b) {
  EXPECT_EQ(a.list, b.list);
  EXPECT_EQ(a.domains, b.domains);
  EXPECT_EQ(a.responsive, b.responsive);

  EXPECT_EQ(a.bailiwick.responsive, b.bailiwick.responsive);
  EXPECT_EQ(a.bailiwick.cname, b.bailiwick.cname);
  EXPECT_EQ(a.bailiwick.soa, b.bailiwick.soa);
  EXPECT_EQ(a.bailiwick.respond_ns, b.bailiwick.respond_ns);
  EXPECT_EQ(a.bailiwick.out_only, b.bailiwick.out_only);
  EXPECT_EQ(a.bailiwick.in_only, b.bailiwick.in_only);
  EXPECT_EQ(a.bailiwick.mixed, b.bailiwick.mixed);

  for (std::size_t slot = 0; slot < TypeTallyTable::kSlots.size(); ++slot) {
    const auto type = TypeTallyTable::kSlots[slot];
    const auto* ta = a.by_type.find(type);
    const auto* tb = b.by_type.find(type);
    ASSERT_EQ(ta == nullptr, tb == nullptr)
        << "slot presence differs for type " << static_cast<int>(type);
    if (ta == nullptr) continue;
    EXPECT_EQ(ta->records, tb->records);
    EXPECT_EQ(ta->unique_values, tb->unique_values);
    EXPECT_EQ(ta->ttl_zero_domain_count, tb->ttl_zero_domain_count);
    // The sample multisets must agree exactly; runs() lists each in
    // ascending order, independent of tabulation order.
    EXPECT_EQ(ta->ttl_cdf.runs(), tb->ttl_cdf.runs());
  }
}

void expect_identical(const DmapReport& a, const DmapReport& b) {
  EXPECT_EQ(a.class_counts, b.class_counts);
  ASSERT_EQ(a.median_ttl_hours.size(), b.median_ttl_hours.size());
  for (const auto& [key, median] : a.median_ttl_hours) {
    auto it = b.median_ttl_hours.find(key);
    ASSERT_NE(it, b.median_ttl_hours.end());
    EXPECT_DOUBLE_EQ(median, it->second);
  }
}

TEST(CrawlEngineTest, MatchesNestedDriverAcrossFuzzedSeeds) {
  for (std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    sim::Rng rng(seed);
    for (const auto& params :
         {alexa_params(1500), umbrella_params(1100), root_params()}) {
      const auto list_rng = rng.fork(std::hash<std::string>{}(params.name));
      auto nested = crawl_nested(params, list_rng);
      EXPECT_EQ(nested.harvest_mismatches, 0u)
          << params.name << " seed " << seed;
      auto engine = crawl_engine(params, list_rng);
      expect_identical(engine.report, nested.report);
      EXPECT_EQ(engine.stats.resolutions, params.domains);
    }
  }
}

TEST(CrawlEngineTest, DmapHookMatchesNestedDriver) {
  sim::Rng rng(9);
  auto params = nl_params(4000);
  const auto list_rng = rng.fork(1);
  auto nested = crawl_nested(params, list_rng, /*collect_content=*/true);
  EngineOptions options;
  options.collect_content = true;
  auto engine = crawl_engine(params, list_rng, options);
  expect_identical(engine.report, nested.report);
  expect_identical(engine.dmap, nested.dmap);
  EXPECT_GT(engine.dmap.total_classified(), 0u);
}

TEST(CrawlEngineTest, IdenticalAcrossJobCounts) {
  // The 100x-population discipline: the engine streams domains it never
  // materializes, so this runs a large list at bounded memory and must
  // produce the same report at every parallelism level.
  sim::Rng rng(4242);
  auto params = alexa_params(60000);
  const auto list_rng = rng.fork(7);

  EngineOptions serial;
  serial.jobs = 1;
  auto base = crawl_engine(params, list_rng, serial);

  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  for (std::size_t jobs : {std::size_t{4}, hw}) {
    EngineOptions options;
    options.jobs = jobs;
    auto run = crawl_engine(params, list_rng, options);
    expect_identical(run.report, base.report);
    EXPECT_EQ(run.stats.in_flight_high_water,
              base.stats.in_flight_high_water);
    EXPECT_EQ(run.stats.queries, base.stats.queries);
  }
}

TEST(CrawlEngineTest, StreamsWithoutMaterializing) {
  // Each shard's one recycled domain buffer is the engine's only population
  // footprint: resolutions equal the list size while no shard ever holds
  // more than one domain.
  sim::Rng rng(5);
  auto params = umbrella_params(20000);
  EngineOptions options;
  options.shard_count = 4;
  auto run = crawl_engine(params, rng.fork(2), options);
  EXPECT_EQ(run.stats.resolutions, 20000u);
  EXPECT_EQ(run.stats.shards, 4u);
  EXPECT_EQ(run.stats.in_flight_high_water, 1u);
  EXPECT_GT(run.stats.queries, run.stats.resolutions);
  EXPECT_EQ(run.stats.steps, run.stats.queries + run.report.responsive);
}

}  // namespace
}  // namespace dnsttl::crawl
