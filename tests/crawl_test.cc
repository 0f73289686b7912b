#include <gtest/gtest.h>

#include "crawl/crawler.h"
#include "crawl/dmap.h"
#include "crawl/engine.h"
#include "crawl/passive_workload.h"
#include "crawl/population_generator.h"
#include "crawl/tabulate.h"

namespace dnsttl::crawl {
namespace {

// Folds hand-built domains through the per-domain tabulation step, each
// harvesting exactly its own record list, in one partial.
CrawlReport tabulate_all(const std::vector<GeneratedDomain>& population) {
  PartialCrawl partial;
  for (const auto& domain : population) {
    tabulate_domain(domain, domain.records, partial);
  }
  std::vector<PartialCrawl> partials;
  partials.push_back(std::move(partial));
  return finalize_crawl("test", population.size(), std::move(partials));
}

TEST(PopulationGeneratorTest, GeneratesRequestedCount) {
  sim::Rng rng(1);
  auto params = alexa_params(5000);
  auto population = generate_population(params, rng);
  EXPECT_EQ(population.size(), 5000u);
}

TEST(PopulationGeneratorTest, ResponsiveFractionMatchesParams) {
  sim::Rng rng(2);
  auto params = umbrella_params(20000);  // 0.78 responsive
  auto population = generate_population(params, rng);
  std::size_t responsive = 0;
  for (const auto& domain : population) {
    if (domain.responsive) ++responsive;
  }
  EXPECT_NEAR(static_cast<double>(responsive) / 20000.0, 0.78, 0.02);
}

TEST(PopulationGeneratorTest, DeterministicForSameSeed) {
  auto params = alexa_params(1000);
  sim::Rng a(7);
  sim::Rng b(7);
  auto pop_a = generate_population(params, a);
  auto pop_b = generate_population(params, b);
  ASSERT_EQ(pop_a.size(), pop_b.size());
  for (std::size_t i = 0; i < pop_a.size(); ++i) {
    EXPECT_EQ(pop_a[i].records.size(), pop_b[i].records.size());
  }
}

TEST(PopulationGeneratorTest, NlHasDnssecMajority) {
  sim::Rng rng(3);
  auto population = generate_population(nl_params(20000), rng);
  std::size_t signed_domains = 0;
  std::size_t responsive = 0;
  for (const auto& domain : population) {
    if (!domain.responsive) continue;
    ++responsive;
    for (const auto& record : domain.records) {
      if (record.type == dns::RRType::kDNSKEY) {
        ++signed_domains;
        break;
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(signed_domains) /
                  static_cast<double>(responsive),
              0.70, 0.03);
}

TEST(BailiwickClassificationTest, DetectsInOutMixed) {
  GeneratedDomain domain;
  domain.name = "d1.alexa";
  domain.records.push_back(
      {dns::RRType::kNS, dns::Ttl{3600}, "ns1.provider7.example"});
  EXPECT_EQ(classify_bailiwick(domain), 0);

  domain.records.push_back({dns::RRType::kNS, dns::Ttl{3600}, "ns1.d1.alexa"});
  EXPECT_EQ(classify_bailiwick(domain), 2);

  domain.records.erase(domain.records.begin());
  EXPECT_EQ(classify_bailiwick(domain), 1);
}

TEST(BailiwickClassificationTest, SuffixNeedsLabelBoundary) {
  GeneratedDomain domain;
  domain.name = "d1.alexa";
  // "xd1.alexa" ends with "d1.alexa" but is NOT in bailiwick.
  domain.records.push_back({dns::RRType::kNS, dns::Ttl{3600}, "ns1.xd1.alexa"});
  EXPECT_EQ(classify_bailiwick(domain), 0);
}

TEST(CrawlerTest, TabulatesCountsAndUniques) {
  std::vector<GeneratedDomain> population(2);
  population[0].name = "a.test";
  population[0].records = {{dns::RRType::kNS, dns::Ttl{3600}, "ns1.shared.example"},
                           {dns::RRType::kA, dns::Ttl{300}, "ip-1"}};
  population[1].name = "b.test";
  population[1].records = {{dns::RRType::kNS, dns::Ttl{7200}, "ns1.shared.example"},
                           {dns::RRType::kA, dns::Ttl{0}, "ip-2"}};
  auto report = tabulate_all(population);
  EXPECT_EQ(report.responsive, 2u);
  EXPECT_EQ(report.by_type.at(dns::RRType::kNS).records, 2u);
  EXPECT_EQ(report.by_type.at(dns::RRType::kNS).unique_values, 1u);
  EXPECT_DOUBLE_EQ(report.by_type.at(dns::RRType::kNS).unique_ratio(), 2.0);
  EXPECT_EQ(report.by_type.at(dns::RRType::kA).unique_values, 2u);
  EXPECT_EQ(report.by_type.at(dns::RRType::kA).ttl_zero_domain_count, 1u);
  EXPECT_EQ(report.bailiwick.respond_ns, 2u);
  EXPECT_EQ(report.bailiwick.out_only, 2u);
}

TEST(CrawlerTest, UnresponsiveAndCnameSoaDomainsClassified) {
  std::vector<GeneratedDomain> population(3);
  population[0].responsive = false;
  population[1].ns_answer = NsAnswerKind::kCname;
  population[2].ns_answer = NsAnswerKind::kSoa;
  auto report = tabulate_all(population);
  EXPECT_EQ(report.responsive, 2u);
  EXPECT_EQ(report.bailiwick.cname, 1u);
  EXPECT_EQ(report.bailiwick.soa, 1u);
  EXPECT_EQ(report.bailiwick.respond_ns, 0u);
}

TEST(CrawlerTest, TopListShapesMatchPaper) {
  auto report = crawl_engine(alexa_params(30000), sim::Rng(11)).report;
  // >90% out-of-bailiwick only (Table 9).
  double pct_out = static_cast<double>(report.bailiwick.out_only) /
                   static_cast<double>(report.bailiwick.respond_ns);
  EXPECT_GT(pct_out, 0.90);
  // NS records are shared across domains (Table 5 ratio >> 1).
  EXPECT_GT(report.by_type.at(dns::RRType::kNS).unique_ratio(), 3.0);
  // NS TTLs are longer-lived than A TTLs (Figure 9).
  EXPECT_GT(report.by_type.at(dns::RRType::kNS).ttl_cdf.median(),
            report.by_type.at(dns::RRType::kA).ttl_cdf.median());
}

TEST(DmapTest, ClassCountsAndMedians) {
  EngineOptions options;
  options.collect_content = true;
  auto report = crawl_engine(nl_params(40000), sim::Rng(5), options).dmap;
  EXPECT_GT(report.total_classified(), 8000u);
  // Placeholder dominates (Table 6: ~81%).
  auto placeholder = report.class_counts.at(ContentClass::kPlaceholder);
  EXPECT_NEAR(static_cast<double>(placeholder) /
                  static_cast<double>(report.total_classified()),
              0.81, 0.03);
  // Table 7 medians: parking NS = 24 h, others 4 h.
  EXPECT_NEAR(report.median_ttl_hours.at(
                  {ContentClass::kParking, dns::RRType::kNS}),
              24.0, 0.01);
  EXPECT_NEAR(report.median_ttl_hours.at(
                  {ContentClass::kEcommerce, dns::RRType::kNS}),
              4.0, 0.01);
  EXPECT_NEAR(report.median_ttl_hours.at(
                  {ContentClass::kEcommerce, dns::RRType::kA}),
              1.0, 0.01);
}

TEST(PassiveWorkloadTest, SmallRunProducesGroupsAndShapes) {
  core::World world;
  PassiveConfig config;
  config.resolver_count = 400;
  config.duration = 12 * sim::kHour;
  auto report = run_passive_nl(world, config);
  EXPECT_GT(report.client_queries, 0u);
  EXPECT_GT(report.logged_queries, 0u);
  EXPECT_GT(report.groups, 0u);
  EXPECT_NEAR(report.single_fraction + report.multi_fraction, 1.0, 1e-9);
  // Minimum interarrival of multi-query groups clusters at or above the
  // 1-hour child TTL (Figure 4's bumps).
  if (!report.min_interarrival_hours.empty()) {
    EXPECT_GE(report.min_interarrival_hours.quantile(0.25), 0.9);
  }
  // Group query counts are bounded by the logged total.
  EXPECT_LE(report.queries_per_group.count(), report.logged_queries);
}

}  // namespace
}  // namespace dnsttl::crawl
