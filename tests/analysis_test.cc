// Fixture corpus driver for the self-hosted contract analyzer.
//
// Each file in tests/analysis/ declares the repo path it should be analyzed
// as (`// analyze-as: ...`, line 1) and marks every line the analyzer must
// flag with `// expect: <rule>`.  The driver runs the real rule engine over
// the fixture text and demands the (line, rule) sets match exactly — so a
// fixture catches false negatives AND false positives in one pass.  A
// corpus-completeness test fails if some registered rule has no firing
// fixture, so new rules cannot land untested.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/index.h"
#include "analysis/report.h"
#include "analysis/rules.h"

namespace {

namespace fs = std::filesystem;
using dnsttl::analysis::Finding;
using dnsttl::analysis::Findings;

struct Fixture {
  std::string file;          // fixture file name (for messages)
  std::string analyze_as;    // pretend repo path
  std::string source;
  std::multiset<std::pair<std::size_t, std::string>> expected;  // (line, rule)
};

std::vector<Fixture> load_fixtures() {
  std::vector<Fixture> fixtures;
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(DNSTTL_ANALYSIS_FIXTURES)) {
    const std::string ext = entry.path().extension().string();
    if (entry.is_regular_file() && (ext == ".cc" || ext == ".h")) {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& p : paths) {
    std::ifstream in(p);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    Fixture f;
    f.file = p.filename().string();
    f.source = buffer.str();

    std::istringstream lines(f.source);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(lines, line)) {
      ++lineno;
      if (lineno == 1) {
        const std::string tag = "// analyze-as: ";
        auto at = line.find(tag);
        if (at != std::string::npos) {
          f.analyze_as = line.substr(at + tag.size());
          while (!f.analyze_as.empty() &&
                 (f.analyze_as.back() == '\r' || f.analyze_as.back() == ' ')) {
            f.analyze_as.pop_back();
          }
        }
      }
      const std::string marker = "// expect: ";
      auto at = line.find(marker);
      if (at != std::string::npos) {
        std::string rule = line.substr(at + marker.size());
        auto end = rule.find_first_of(" \t\r");
        if (end != std::string::npos) rule.resize(end);
        f.expected.emplace(lineno, rule);
      }
    }
    fixtures.push_back(std::move(f));
  }
  return fixtures;
}

std::string render(const std::multiset<std::pair<std::size_t, std::string>>& s) {
  std::string out;
  for (const auto& [line, rule] : s) {
    if (!out.empty()) out += ", ";
    out += rule + "@" + std::to_string(line);
  }
  return out.empty() ? "<none>" : out;
}

TEST(AnalysisFixtures, EveryFixtureMatchesItsMarkers) {
  const std::vector<Fixture> fixtures = load_fixtures();
  ASSERT_FALSE(fixtures.empty()) << "no fixtures under "
                                 << DNSTTL_ANALYSIS_FIXTURES;
  for (const Fixture& f : fixtures) {
    ASSERT_FALSE(f.analyze_as.empty())
        << f.file << ": first line must be `// analyze-as: <repo path>`";
    const Findings findings =
        dnsttl::analysis::analyze_source(f.analyze_as, f.source);
    std::multiset<std::pair<std::size_t, std::string>> got;
    for (const Finding& finding : findings) {
      got.emplace(finding.line, finding.rule);
    }
    EXPECT_EQ(got, f.expected)
        << f.file << " (as " << f.analyze_as << "): expected "
        << render(f.expected) << " but the analyzer reported " << render(got);
  }
}

TEST(AnalysisFixtures, CorpusExercisesEveryRule) {
  std::set<std::string> fired;
  for (const Fixture& f : load_fixtures()) {
    for (const auto& [line, rule] : f.expected) {
      fired.insert(rule);
    }
  }
  for (const auto& info : dnsttl::analysis::rule_infos()) {
    EXPECT_TRUE(fired.count(info.name) != 0)
        << "rule `" << info.name
        << "` has no true-positive fixture in tests/analysis/";
  }
}

// ----------------------------------------------------------------------
// Interprocedural engine: the properties the fixture corpus cannot state.

/// Phase 1 only — lexical indexing plus the intraprocedural rules, no call
/// graph.  This is exactly what the analyzer was before the dataflow engine.
Findings intraprocedural_only(const std::string& rel,
                              const std::string& source) {
  const dnsttl::analysis::FileIndex index(rel, source);
  return dnsttl::analysis::run_rules(index, rel);
}

TEST(AnalysisInterprocedural, IpFixturesAreInvisibleToTheIntraEngine) {
  // Each interprocedural rule must have a true-positive fixture that the
  // intraprocedural engine provably misses: phase 1 alone reports nothing,
  // the full pipeline reports the rule.  That is the whole point of the
  // call graph — these are not restatements of existing rules.
  const std::map<std::string, std::string> ip_fixture_rule = {
      {"rng_escape.cc", "rng-escape"},
      {"shard_escape.cc", "shard-escape"},
      {"unordered_output_flow_ip.cc", "unordered-output-flow-ip"},
      {"raw_time_flow.cc", "raw-time-flow"},
  };
  std::size_t seen = 0;
  for (const Fixture& f : load_fixtures()) {
    const auto it = ip_fixture_rule.find(f.file);
    if (it == ip_fixture_rule.end()) continue;
    ++seen;
    const Findings intra = intraprocedural_only(f.analyze_as, f.source);
    EXPECT_TRUE(intra.empty())
        << f.file << ": the intraprocedural engine unexpectedly reported "
        << intra.front().to_string();
    const Findings full =
        dnsttl::analysis::analyze_source(f.analyze_as, f.source);
    bool fired = false;
    for (const Finding& finding : full) fired |= finding.rule == it->second;
    EXPECT_TRUE(fired) << f.file << ": full pipeline never reported "
                       << it->second;
  }
  EXPECT_EQ(seen, ip_fixture_rule.size())
      << "an interprocedural fixture file went missing from tests/analysis/";
}

TEST(AnalysisInterprocedural, CallGraphLinksAcrossTranslationUnits) {
  const std::string helper_tu =
      "namespace dnsttl::core {\n"
      "void jitter(sim::Rng& rng, std::vector<double>& out) {\n"
      "  out.push_back(rng.uniform());\n"
      "}\n"
      "}  // namespace dnsttl::core\n";
  const std::string shard_tu =
      "namespace dnsttl::core {\n"
      "void run(sim::Rng& rng, std::size_t shards, std::size_t jobs) {\n"
      "  std::vector<double> samples;\n"
      "  par::parallel_for_shards(shards, jobs, [&](std::size_t shard) {\n"
      "    jitter(rng, samples);\n"
      "  });\n"
      "}\n"
      "}  // namespace dnsttl::core\n";

  // The shard TU alone cannot resolve jitter(): no finding.
  const Findings alone =
      dnsttl::analysis::analyze_source("src/core/shard_tu.cc", shard_tu);
  EXPECT_TRUE(alone.empty())
      << "unresolved call flagged: " << alone.front().to_string();

  // Linked with the defining TU, the draw inside jitter() surfaces at the
  // shard body's call site — in the *other* file.
  const Findings linked = dnsttl::analysis::analyze_sources(
      {{"src/core/helper_tu.cc", helper_tu},
       {"src/core/shard_tu.cc", shard_tu}});
  ASSERT_EQ(linked.size(), 1u);
  EXPECT_EQ(linked[0].rule, "rng-escape");
  EXPECT_EQ(linked[0].file, "src/core/shard_tu.cc");
  EXPECT_EQ(linked[0].line, 5u);
}

TEST(AnalysisInterprocedural, DataflowTerminatesAndSeesThroughCycles) {
  // ping/pong forward the stream to each other forever and pong draws; the
  // visited-set guard must terminate AND still find the draw.  ying/yang
  // form the same cycle without a draw: completing at all proves
  // termination, staying silent proves the cycle is not a false positive.
  const std::string source =
      "namespace dnsttl::core {\n"
      "void ping(sim::Rng& r) { pong(r); }\n"
      "void pong(sim::Rng& r) { ping(r); r.uniform(); }\n"
      "void ying(sim::Rng& r) { yang(r); }\n"
      "void yang(sim::Rng& r) { ying(r); }\n"
      "void run(sim::Rng& rng, std::size_t shards, std::size_t jobs) {\n"
      "  par::parallel_for_shards(shards, jobs, [&](std::size_t shard) {\n"
      "    ying(rng);\n"
      "    ping(rng);\n"
      "  });\n"
      "}\n"
      "}  // namespace dnsttl::core\n";
  const Findings findings =
      dnsttl::analysis::analyze_source("src/core/cycles.cc", source);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "rng-escape");
  EXPECT_EQ(findings[0].line, 9u);  // ping(rng), not ying(rng)
}

TEST(AnalysisInterprocedural, TaintPropagationStopsAtTheDepthCap) {
  // w6 wraps its raw integer into a Duration; w5..w1 forward.  Unit-flow
  // taint runs kMaxCallDepth (4) propagation rounds, and the functions are
  // declared against propagation order (w1 first) so each round moves the
  // taint exactly one level: it reaches w2 and must stop there.  A literal
  // into w2 fires; the same literal into w1 is beyond the horizon.
  const std::string source =
      "namespace dnsttl::core {\n"
      "void w1(std::uint64_t raw_us) { w2(raw_us); }\n"
      "void w2(std::uint64_t raw_us) { w3(raw_us); }\n"
      "void w3(std::uint64_t raw_us) { w4(raw_us); }\n"
      "void w4(std::uint64_t raw_us) { w5(raw_us); }\n"
      "void w5(std::uint64_t raw_us) { w6(raw_us); }\n"
      "void w6(std::uint64_t raw_us) {\n"
      "  sim::Duration span = sim::Duration::micros(raw_us);\n"
      "}\n"
      "void caller() {\n"
      "  w2(1'000'000);\n"
      "  w1(2'000'000);\n"
      "}\n"
      "}  // namespace dnsttl::core\n";
  const Findings findings =
      dnsttl::analysis::analyze_source("src/core/depth.cc", source);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "raw-time-flow");
  EXPECT_EQ(findings[0].line, 11u);  // w2(1'000'000), not w1(2'000'000)
}

// ----------------------------------------------------------------------
// The --json report: the analyzer's one output format, which CI tallies.

TEST(AnalysisReport, JsonIsOrderedByFileLineRuleAndEscaped) {
  const Findings findings = {
      {"wall-clock", "src/core/b.cc", 9, "reads \"now\"", "time(nullptr)"},
      {"raw-new", "src/core/a.cc", 12, "tab\there", "new\x01int"},
      {"rng-raw-source", "src/core/b.cc", 9, "a\\b\nc", "rand()"},
  };
  EXPECT_EQ(
      dnsttl::analysis::findings_to_json(findings),
      "{\n  \"version\": 1,\n  \"count\": 3,\n  \"findings\": [\n"
      "    {\"rule\": \"raw-new\", \"file\": \"src/core/a.cc\", \"line\": 12, "
      "\"excerpt\": \"new\\u0001int\", \"message\": \"tab\\there\"},\n"
      "    {\"rule\": \"rng-raw-source\", \"file\": \"src/core/b.cc\", "
      "\"line\": 9, \"excerpt\": \"rand()\", \"message\": \"a\\\\b\\nc\"},\n"
      "    {\"rule\": \"wall-clock\", \"file\": \"src/core/b.cc\", \"line\": 9, "
      "\"excerpt\": \"time(nullptr)\", \"message\": \"reads \\\"now\\\"\"}\n"
      "  ]\n}\n");
  EXPECT_EQ(dnsttl::analysis::findings_to_json({}),
            "{\n  \"version\": 1,\n  \"count\": 0,\n  \"findings\": []\n}\n");
}

}  // namespace
