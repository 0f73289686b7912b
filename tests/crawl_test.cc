#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <unordered_set>

#include "check/audit.h"
#include "crawl/crawler.h"
#include "crawl/dmap.h"
#include "crawl/engine.h"
#include "crawl/passive_workload.h"
#include "crawl/population_generator.h"
#include "crawl/tabulate.h"

namespace dnsttl::crawl {
namespace {

// Tabulates a hand-built domain that harvests exactly its own record list.
void tabulate_own_records(const GeneratedDomain& domain,
                          PartialCrawl& partial) {
  std::vector<const HarvestedRecord*> harvest;
  for (const auto& record : domain.records) harvest.push_back(&record);
  tabulate_domain(domain, harvest, partial);
}

// Folds hand-built domains through the per-domain tabulation step in one
// partial.
CrawlReport tabulate_all(const std::vector<GeneratedDomain>& population) {
  PartialCrawl partial;
  for (const auto& domain : population) {
    tabulate_own_records(domain, partial);
  }
  return finalize_crawl("test", population.size(), std::move(partial));
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

TEST(PopulationGeneratorTest, TtlDistNeedsOneWeightPerValue) {
  // sample() picks values[weighted_index(weights)]: a spare weight would
  // index past the values.
  EXPECT_THROW((TtlDist{{60, 300}, {0.5, 0.25, 0.25}}), std::invalid_argument);
  EXPECT_THROW((TtlDist{{60, 300, 3600}, {1.0}}), std::invalid_argument);
  const TtlDist dist{{60, 300}, {0.5, 0.5}};
  sim::Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const dns::Ttl ttl = dist.sample(rng);
    EXPECT_TRUE(ttl == dns::Ttl{60} || ttl == dns::Ttl{300});
  }
}

// Inserts each value into both sets and checks they agree on every answer.
void insert_both(DistinctStrings& set, std::unordered_set<std::string>& oracle,
                 const std::string& value) {
  EXPECT_EQ(set.insert(value), oracle.insert(value).second) << value;
}

TEST(DistinctStringsTest, MatchesUnorderedSetOnCrawlValues) {
  for (const auto& params :
       {alexa_params(4000), umbrella_params(4000), nl_params(4000)}) {
    DistinctStrings set;
    std::unordered_set<std::string> oracle;
    for (const auto& domain : generate_population(params, sim::Rng(3))) {
      insert_both(set, oracle, domain.name);
      for (const auto& record : domain.records) {
        insert_both(set, oracle, record.value);
      }
    }
    EXPECT_EQ(set.size(), oracle.size()) << params.name;
    EXPECT_GT(set.size(), 4000u);
    set.validate();
  }
}

TEST(DistinctStringsTest, EdgeCases) {
  DistinctStrings set;
  std::unordered_set<std::string> oracle;
  insert_both(set, oracle, "");
  insert_both(set, oracle, "");
  // Values that differ only in their last byte, NUL included.
  for (int last = 0; last < 256; ++last) {
    insert_both(set, oracle, "ns1.provider7.example" +
                                 std::string(1, static_cast<char>(last)));
  }
  insert_both(set, oracle, "ns1.provider7.example");
  EXPECT_EQ(set.size(), oracle.size());
  set.validate();
}

TEST(DistinctStringsTest, GrowsPastResizeThreshold) {
  DistinctStrings set;
  std::unordered_set<std::string> oracle;
  // Every size from empty through many doublings of the index, revisiting
  // earlier members after each growth.
  for (int i = 0; i < 5000; ++i) {
    insert_both(set, oracle, "d" + std::to_string(i) + ".alexa");
    if ((i & (i + 1)) == 0) {
      for (int j = 0; j <= i; j += 7) {
        insert_both(set, oracle, "d" + std::to_string(j) + ".alexa");
      }
      set.validate();
    }
  }
  EXPECT_EQ(set.size(), 5000u);
  set.validate();
}

TEST(DistinctStringsTest, MergesOverlappingSets) {
  DistinctStrings a;
  DistinctStrings b;
  std::unordered_set<std::string> oracle_a;
  std::unordered_set<std::string> oracle_b;
  for (int i = 0; i < 1000; ++i) {
    insert_both(a, oracle_a, "v" + std::to_string(i));
    insert_both(b, oracle_b, "v" + std::to_string(i + 500));
  }
  a.merge(b);
  oracle_a.merge(std::unordered_set<std::string>(oracle_b));
  EXPECT_EQ(a.size(), oracle_a.size());
  EXPECT_EQ(a.size(), 1500u);
  EXPECT_EQ(b.size(), 1000u);
  for (const auto& value : oracle_a) {
    EXPECT_FALSE(a.insert(value)) << value;
  }
  DistinctStrings empty;
  a.merge(empty);
  empty.merge(a);
  EXPECT_EQ(a.size(), 1500u);
  EXPECT_EQ(empty.size(), 1500u);
  a.validate();
  b.validate();
  empty.validate();
}

TEST(DistinctStringsTest, FinalizeAuditsTheFoldedSetsInAuditBuilds) {
  std::vector<GeneratedDomain> population(1);
  population[0].records = {{dns::RRType::kNS, dns::Ttl{3600}, "ns1.x.example"},
                           {dns::RRType::kA, dns::Ttl{300}, "ip-1"}};
  const std::uint64_t before = check::audit_stats().audits;
  tabulate_all(population);
  const std::uint64_t audits = check::audit_stats().audits - before;
  if (check::kAuditEnabled) {
    EXPECT_EQ(audits, 4u);  // a set and a TTL CDF per record type tallied
  } else {
    EXPECT_EQ(audits, 0u);
  }
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

TEST(CrawlerTest, FoldPartialUnionsTheSetsAndFreesTheFoldedOnes) {
  GeneratedDomain a;
  a.records = {{dns::RRType::kNS, dns::Ttl{3600}, "ns1.shared.example"},
               {dns::RRType::kA, dns::Ttl{300}, "ip-1"}};
  GeneratedDomain b;
  b.records = {{dns::RRType::kNS, dns::Ttl{7200}, "ns1.shared.example"}};
  PartialCrawl into;
  PartialCrawl from;
  tabulate_own_records(a, into);
  tabulate_own_records(b, from);
  fold_partial(into, from);
  for (const auto& set : from.uniques) {
    EXPECT_EQ(set.size(), 0u);
  }
  auto report = finalize_crawl("test", 2, std::move(into));
  EXPECT_EQ(report.responsive, 2u);
  const auto& ns = report.by_type.at(dns::RRType::kNS);
  EXPECT_EQ(ns.records, 2u);
  EXPECT_EQ(ns.unique_values, 1u);
  EXPECT_EQ(ns.ttl_cdf.count(), 2u);
  EXPECT_EQ(report.by_type.at(dns::RRType::kA).unique_values, 1u);
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
