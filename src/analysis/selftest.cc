#include "analysis/selftest.h"

#include <algorithm>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/report.h"

namespace dnsttl::analysis {
namespace {

struct Case {
  const char* label;
  const char* path;
  const char* source;
  std::vector<const char*> expected_rules;
};

const std::vector<Case>& cases() {
  static const std::vector<Case> kCases = {
      {"rng-raw-source fires on std::random_device", "src/core/x.cc",
       "namespace dnsttl::core {\n"
       "int draw() { std::random_device rd; return int(rd()); }\n"
       "}\n",
       {"rng-raw-source"}},
      {"rng-raw-source fires on libc rand()", "src/core/x.cc",
       "int f() { return rand() % 6; }\n",
       {"rng-raw-source"}},
      {"rng-raw-source silent on sim::Rng accessors", "src/core/x.cc",
       "double f(sim::Rng& rng) { return rng.uniform(); }\n",
       {}},
      {"wall-clock fires on std::chrono::steady_clock", "src/core/x.cc",
       "auto f() { return std::chrono::steady_clock::now(); }\n",
       {"wall-clock"}},
      {"wall-clock fires on time()", "src/core/x.cc",
       "long f() { return time(nullptr); }\n",
       {"wall-clock"}},
      {"wall-clock silent on sim::Time and member .time()", "src/core/x.cc",
       "sim::Time f(const Event& e) { return e.time(); }\n",
       {}},
      {"unordered-output-flow fires when the body streams", "src/core/x.cc",
       "void f(std::ostream& os) {\n"
       "  std::unordered_map<int, int> hits;\n"
       "  for (const auto& [k, v] : hits) {\n"
       "    os << k << v;\n"
       "  }\n"
       "}\n",
       {"unordered-output-flow"}},
      {"unordered-output-flow silent for pure aggregation", "src/core/x.cc",
       "int f() {\n"
       "  std::unordered_map<int, int> hits;\n"
       "  int total = 0;\n"
       "  for (const auto& [k, v] : hits) {\n"
       "    total += v;\n"
       "  }\n"
       "  return total;\n"
       "}\n",
       {}},
      {"shared-mutable-in-shard fires on a namespace-scope mutable",
       "src/core/x.cc",
       "namespace dnsttl::core {\n"
       "unsigned long g_call_count = 0;\n"
       "}\n",
       {"shared-mutable-in-shard"}},
      {"shared-mutable-in-shard fires on a function-local static",
       "src/core/x.cc",
       "int f() {\n"
       "  static std::vector<int> cache;\n"
       "  return int(cache.size());\n"
       "}\n",
       {"shared-mutable-in-shard"}},
      {"shared-mutable-in-shard silent on const/constexpr/thread_local",
       "src/core/x.cc",
       "namespace dnsttl::core {\n"
       "constexpr int kTableSize = 4;\n"
       "const std::array<int, 4> kTable = {1, 2, 3, 4};\n"
       "int f() {\n"
       "  static thread_local int scratch = 0;\n"
       "  return ++scratch;\n"
       "}\n"
       "}\n",
       {}},
      {"shared-mutable-in-shard fires on a const static SoA-pool alias",
       "src/core/x.cc",
       "int f(const atlas::VpPool& pool) {\n"
       "  static const atlas::VpPool* cached_pool = nullptr;\n"
       "  return cached_pool ? 1 : 0;\n"
       "}\n",
       {"shared-mutable-in-shard"}},
      {"shared-mutable-in-shard fires on a namespace-scope wheel reference",
       "src/core/x.cc",
       "namespace dnsttl::core {\n"
       "const sim::TimerWheel& g_wheel = instance();\n"
       "}\n",
       {"shared-mutable-in-shard"}},
      {"raw-time-param fires on std::uint32_t ttl in a header",
       "src/cache/cache.h",
       "namespace dnsttl::cache {\n"
       "class Cache {\n"
       " public:\n"
       "  void insert(const dns::Name& name, std::uint32_t ttl);\n"
       "};\n"
       "}\n",
       {"raw-time-param"}},
      {"raw-time-param fires across a parameter-list line break",
       "src/cache/cache.h",
       "namespace dnsttl::cache {\n"
       "void configure(std::size_t capacity,\n"
       "               std::uint64_t refresh_interval_ms);\n"
       "}\n",
       {"raw-time-param"}},
      {"raw-time-param silent on the strong types and in .cc files",
       "src/cache/cache.h",
       "namespace dnsttl::cache {\n"
       "void insert(const dns::Name& name, dns::Ttl ttl);\n"
       "void shift(sim::Duration delay);\n"
       "}\n",
       {}},
      {"raw-time-param silent on counters", "src/cache/cache.h",
       "namespace dnsttl::cache {\n"
       "void bump(std::uint64_t timeout_count);\n"
       "}\n",
       {}},
      {"unit-float-cast fires on static_cast<double>(duration)",
       "src/core/x.cc",
       "double f(sim::Duration elapsed) {\n"
       "  return static_cast<double>(elapsed);\n"
       "}\n",
       {"unit-float-cast"}},
      {"unit-float-cast silent via the sanctioned escape hatches",
       "src/core/x.cc",
       "double f(sim::Duration elapsed) {\n"
       "  return static_cast<double>(elapsed.count());\n"
       "}\n",
       {}},
      {"unit-float-cast silent inside the stats layer",
       "src/stats/summary.cc",
       "double f(sim::Duration elapsed) {\n"
       "  return static_cast<double>(elapsed);\n"
       "}\n",
       {}},
      {"rng-gated-draw fires when the draw precedes the gate",
       "src/net/x.cc",
       "bool f(sim::Rng& rng, double loss) {\n"
       "  if (rng.chance(loss) && loss > 0.0) {\n"
       "    return true;\n"
       "  }\n"
       "  return false;\n"
       "}\n",
       {"rng-gated-draw"}},
      {"rng-gated-draw silent when the gate short-circuits first",
       "src/net/x.cc",
       "bool f(sim::Rng& rng, double loss) {\n"
       "  if (loss > 0.0 && rng.chance(loss)) {\n"
       "    return true;\n"
       "  }\n"
       "  return false;\n"
       "}\n",
       {}},
      {"rng-fork-in-shard fires on a captured-stream draw",
       "src/core/x.cc",
       "void f(sim::Rng& rng, std::size_t shards, std::size_t jobs) {\n"
       "  par::map_shards(shards, jobs, [&](std::size_t shard) {\n"
       "    return rng.uniform();\n"
       "  });\n"
       "}\n",
       {"rng-fork-in-shard"}},
      {"rng-fork-in-shard fires on an unforked local copy",
       "src/core/x.cc",
       "void f(const sim::Rng& nl_src, std::size_t shards,"
       " std::size_t jobs) {\n"
       "  par::map_shards(shards, jobs, [&](std::size_t shard) {\n"
       "    sim::Rng bad = nl_src;\n"
       "    return bad.uniform();\n"
       "  });\n"
       "}\n",
       {"rng-fork-in-shard"}},
      {"rng-fork-in-shard silent when the shard forks its own stream",
       "src/core/x.cc",
       "void f(const sim::Rng& rng, std::size_t shards, std::size_t jobs) {\n"
       "  par::map_shards(shards, jobs, [&](std::size_t shard) {\n"
       "    sim::Rng actor = rng.fork(shard);\n"
       "    return actor.uniform();\n"
       "  });\n"
       "}\n",
       {}},
      {"rng-fork-in-shard silent when the stream is threaded through",
       "src/core/x.cc",
       "void f(std::size_t shards, std::size_t jobs) {\n"
       "  par::map_shards(shards, jobs, [](sim::Rng& shard_rng) {\n"
       "    return shard_rng.uniform();\n"
       "  });\n"
       "}\n",
       {}},
      {"suppression: lint:allow on the line covers the finding",
       "src/core/x.cc",
       "namespace dnsttl::core {\n"
       "unsigned long g_count = 0;  "
       "// lint:allow(shared-mutable-in-shard) test-only tally\n"
       "}\n",
       {}},
      {"suppression: analyze:allow on the comment line above",
       "src/core/x.cc",
       "namespace dnsttl::core {\n"
       "// analyze:allow(shared-mutable-in-shard) documented debt\n"
       "unsigned long g_count = 0;\n"
       "}\n",
       {}},
      {"suppression for one rule does not silence another",
       "src/core/x.cc",
       "namespace dnsttl::core {\n"
       "// analyze:allow(wall-clock) wrong rule name\n"
       "unsigned long g_count = 0;\n"
       "}\n",
       // The mutable still fires, and the wall-clock allow is dead weight:
       // the stale-suppression audit flags it.
       {"shared-mutable-in-shard", "stale-suppression"}},
      {"rng-escape fires when a shard body passes an unforked stream down",
       "src/core/x.cc",
       "void spin(sim::Rng& rng) { rng.uniform(); }\n"
       "void f(sim::Rng& rng, std::size_t shards, std::size_t jobs) {\n"
       "  par::map_shards(shards, jobs, [&](std::size_t shard) {\n"
       "    spin(rng);\n"
       "    return shard;\n"
       "  });\n"
       "}\n",
       {"rng-escape"}},
      {"rng-escape silent when the shard forks before the call",
       "src/core/x.cc",
       "void spin(sim::Rng& rng) { rng.uniform(); }\n"
       "void f(const sim::Rng& rng, std::size_t shards, std::size_t jobs) {\n"
       "  par::map_shards(shards, jobs, [&](std::size_t shard) {\n"
       "    sim::Rng mine = rng.fork(shard);\n"
       "    spin(mine);\n"
       "    return shard;\n"
       "  });\n"
       "}\n",
       {}},
      {"shard-escape fires when a callee stores a pointer to shard state",
       "src/core/x.cc",
       "class Registry {\n"
       " public:\n"
       "  void stash(const int* slot) { slots_.push_back(slot); }\n"
       " private:\n"
       "  std::vector<const int*> slots_;\n"
       "};\n"
       "void f(Registry& reg, std::size_t shards, std::size_t jobs) {\n"
       "  par::map_shards(shards, jobs, [&](std::size_t shard) {\n"
       "    int tally = int(shard);\n"
       "    reg.stash(&tally);\n"
       "    return shard;\n"
       "  });\n"
       "}\n",
       {"shard-escape"}},
      {"shard-escape silent for value parameters",
       "src/core/x.cc",
       "int twice(int v) { return v + v; }\n"
       "void f(std::size_t shards, std::size_t jobs) {\n"
       "  par::map_shards(shards, jobs, [&](std::size_t shard) {\n"
       "    int tally = int(shard);\n"
       "    return twice(tally);\n"
       "  });\n"
       "}\n",
       {}},
      {"unordered-output-flow-ip fires through a call chain",
       "src/core/x.cc",
       "void emit(std::ostream& os, int k) { os << k; }\n"
       "void f(std::ostream& os) {\n"
       "  std::unordered_map<int, int> hits;\n"
       "  for (const auto& [k, v] : hits) {\n"
       "    emit(os, k);\n"
       "  }\n"
       "}\n",
       {"unordered-output-flow-ip"}},
      {"unordered-output-flow-ip silent when the callee only aggregates",
       "src/core/x.cc",
       "int bump(int total, int v) { return total + v; }\n"
       "int f() {\n"
       "  std::unordered_map<int, int> hits;\n"
       "  int total = 0;\n"
       "  for (const auto& [k, v] : hits) {\n"
       "    total = bump(total, v);\n"
       "  }\n"
       "  return total;\n"
       "}\n",
       {}},
      {"raw-time-flow fires when a raw count crosses into a Duration ctor",
       "src/core/x.cc",
       "void arm(Timer& t, std::uint64_t delay_us) {\n"
       "  t.set(sim::Duration::micros(delay_us));\n"
       "}\n"
       "void f(Timer& t) {\n"
       "  std::uint64_t lease = 5'000'000;\n"
       "  arm(t, lease);\n"
       "}\n",
       {"raw-time-flow"}},
      {"raw-time-flow silent when the boundary takes the strong type",
       "src/core/x.cc",
       "void arm(Timer& t, sim::Duration delay) { t.set(delay); }\n"
       "void f(Timer& t) {\n"
       "  arm(t, sim::Duration::micros(5'000'000));\n"
       "}\n",
       {}},
      {"task-state-escape fires on a pool alias in a phase-tagged struct",
       "src/crawl/x.h",
       "namespace dnsttl::crawl {\n"
       "struct ResolutionTask {\n"
       "  enum class Phase { kSetup, kDone };\n"
       "  Phase phase = Phase::kSetup;\n"
       "  const TaskPool* pool = nullptr;\n"
       "};\n"
       "}\n",
       {"task-state-escape"}},
      {"task-state-escape silent for index members and phaseless structs",
       "src/crawl/x.h",
       "namespace dnsttl::crawl {\n"
       "struct ResolutionTask {\n"
       "  enum class Phase { kSetup, kDone };\n"
       "  Phase phase = Phase::kSetup;\n"
       "  std::size_t slot = 0;\n"
       "};\n"
       "struct ShardContext {\n"
       "  const TaskPool* pool = nullptr;\n"
       "};\n"
       "}\n",
       {}},
      {"stale-suppression fires on an allow whose rule never fires",
       "src/core/x.cc",
       "// analyze:allow(wall-clock) leftover from an old refactor\n"
       "int f() { return 1; }\n",
       {"stale-suppression"}},
      {"stale-suppression fires on an allow naming an unknown rule",
       "src/core/x.cc",
       "// lint:allow(raw-news) misspelled rule name\n"
       "int* f() { return new int(1); }\n",
       {"stale-suppression", "raw-new"}},
  };
  return kCases;
}

bool baseline_roundtrip(std::ostream& out) {
  Findings findings;
  findings.push_back({"wall-clock", "src/core/x.cc", 7,
                      "`time()` reads the wall clock", "time ( nullptr )"});
  findings.push_back({"raw-time-param", "src/cache/cache.h", 12,
                      "raw `std::uint32_t` ttl", "insert(... ttl ...)"});
  const std::string json = findings_to_json(findings);
  Findings parsed;
  std::string error;
  if (!baseline_from_json(json, &parsed, &error)) {
    out << "selftest: FAIL: baseline round-trip parse: " << error << "\n";
    return false;
  }
  BaselineDiff same = diff_against_baseline(findings, parsed);
  BaselineDiff fresh = diff_against_baseline(findings, {});
  bool ok = same.fresh.empty() && same.matched == 2 &&
            same.stale_count == 0 &&
            fresh.fresh.size() == 2;
  out << "selftest: " << (ok ? "ok" : "FAIL")
      << ": baseline round-trip + diff semantics\n";
  return ok;
}

}  // namespace

int selftest(std::ostream& out) {
  int failures = 0;
  for (const Case& c : cases()) {
    Findings findings = analyze_source(c.path, c.source);
    std::set<std::string> got;
    for (const Finding& f : findings) {
      got.insert(f.rule);
    }
    std::set<std::string> want(c.expected_rules.begin(),
                               c.expected_rules.end());
    const bool ok = got == want;
    if (!ok) ++failures;
    out << "selftest: " << (ok ? "ok" : "FAIL") << ": " << c.label
        << " (got";
    if (got.empty()) {
      out << " -";
    } else {
      for (const std::string& r : got) out << " " << r;
    }
    out << ")\n";
  }
  if (!baseline_roundtrip(out)) ++failures;
  if (failures == 0) {
    out << "selftest: OK (" << cases().size() + 1 << " cases)\n";
  } else {
    out << "selftest: " << failures << " case(s) FAILED\n";
  }
  return failures;
}

}  // namespace dnsttl::analysis
