// dnsttl_analyze — self-hosted contract analyzer for the dnsttl tree.
//
// Lexes + indexes C++ sources (no compiler, no libclang) and enforces the
// repo's determinism, RNG-stream, shard-purity, unit-safety, audit, style
// and suppression-hygiene contracts.  It is the repo's only static
// analyzer, and it runs on every container the build runs on: it needs
// nothing beyond the C++ toolchain that builds the simulator.
//
// Usage:
//   dnsttl_analyze [--root DIR] [paths...]      analyze (default: src)
//                  [--baseline FILE]            fail only on NEW findings
//                  [--write-baseline FILE]      snapshot current findings
//                  [--json FILE|-]              machine-readable findings
//                  [--sarif FILE|-]             SARIF 2.1.0 (CI annotations)
//                  [--jobs N]                   phase-1 worker threads
//                  [--selftest]                 embedded rule-engine selftest
//                  [--list-rules]               rule/contract table
//
// Exit codes: 0 clean (or all findings matched the baseline), 1 new
// findings (or selftest failures), 2 usage / IO error.

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/report.h"
#include "analysis/rules.h"
#include "analysis/selftest.h"
#include "par/pool.h"

namespace {

using dnsttl::analysis::BaselineDiff;
using dnsttl::analysis::Finding;
using dnsttl::analysis::Findings;

int usage(std::ostream& out, int code) {
  out << "usage: dnsttl_analyze [--root DIR] [paths...] [--baseline FILE]\n"
         "                      [--write-baseline FILE]\n"
         "                      [--json FILE|-] [--sarif FILE|-] [--jobs N]\n"
         "                      [--selftest] [--list-rules]\n";
  return code;
}

bool read_file(const std::string& path, std::string* out, std::string* error) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool write_file(const std::string& path, const std::string& text,
                std::string* error) {
  std::ofstream out(path, std::ios::out | std::ios::binary | std::ios::trunc);
  if (!out) {
    *error = "cannot write " + path;
    return false;
  }
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string baseline_path;
  std::string write_baseline_path;
  std::string json_path;
  std::string sarif_path;
  std::size_t jobs = dnsttl::par::default_jobs();
  bool run_selftest = false;
  bool list_rules = false;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "dnsttl_analyze: " << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--root") {
      const char* v = next("--root");
      if (v == nullptr) return usage(std::cerr, 2);
      root = v;
    } else if (arg == "--baseline") {
      const char* v = next("--baseline");
      if (v == nullptr) return usage(std::cerr, 2);
      baseline_path = v;
    } else if (arg == "--write-baseline") {
      const char* v = next("--write-baseline");
      if (v == nullptr) return usage(std::cerr, 2);
      write_baseline_path = v;
    } else if (arg == "--json") {
      const char* v = next("--json");
      if (v == nullptr) return usage(std::cerr, 2);
      json_path = v;
    } else if (arg == "--sarif") {
      const char* v = next("--sarif");
      if (v == nullptr) return usage(std::cerr, 2);
      sarif_path = v;
    } else if (arg == "--jobs") {
      const char* v = next("--jobs");
      if (v == nullptr) return usage(std::cerr, 2);
      char* end = nullptr;
      const long parsed = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || parsed < 1) {
        std::cerr << "dnsttl_analyze: --jobs needs a positive integer\n";
        return usage(std::cerr, 2);
      }
      jobs = static_cast<std::size_t>(parsed);
    } else if (arg == "--selftest") {
      run_selftest = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "dnsttl_analyze: unknown flag " << arg << "\n";
      return usage(std::cerr, 2);
    } else {
      paths.push_back(arg);
    }
  }

  if (list_rules) {
    for (const auto& info : dnsttl::analysis::rule_infos()) {
      std::cout << info.name << "  [" << info.contract << "]  " << info.summary
                << "\n";
    }
    return 0;
  }
  if (run_selftest) {
    const int failures = dnsttl::analysis::selftest(std::cout);
    return failures == 0 ? 0 : 1;
  }

  if (paths.empty()) paths.push_back("src");
  std::string error;
  const std::vector<std::string> sources =
      dnsttl::analysis::collect_sources(root, paths, &error);
  if (!error.empty()) {
    std::cerr << "dnsttl_analyze: " << error << "\n";
    return 2;
  }
  if (sources.empty()) {
    std::cerr << "dnsttl_analyze: no .cc/.h sources under the given paths\n";
    return 2;
  }

  const Findings findings =
      dnsttl::analysis::analyze_paths(root, sources, jobs);

  if (!json_path.empty()) {
    const std::string json = dnsttl::analysis::findings_to_json(findings);
    if (json_path == "-") {
      std::cout << json;
    } else if (!write_file(json_path, json, &error)) {
      std::cerr << "dnsttl_analyze: " << error << "\n";
      return 2;
    }
  }
  if (!sarif_path.empty()) {
    const std::string sarif = dnsttl::analysis::findings_to_sarif(findings);
    if (sarif_path == "-") {
      std::cout << sarif;
    } else if (!write_file(sarif_path, sarif, &error)) {
      std::cerr << "dnsttl_analyze: " << error << "\n";
      return 2;
    }
  }
  if (!write_baseline_path.empty()) {
    if (!dnsttl::analysis::update_baseline_file(write_baseline_path, findings,
                                                &error)) {
      std::cerr << "dnsttl_analyze: " << error << "\n";
      return 2;
    }
    std::cout << "dnsttl_analyze: wrote baseline (" << findings.size()
              << " findings) to " << write_baseline_path << "\n";
    return 0;
  }

  Findings baseline;
  if (!baseline_path.empty()) {
    std::string text;
    if (!read_file(baseline_path, &text, &error) ||
        !dnsttl::analysis::baseline_from_json(text, &baseline, &error)) {
      std::cerr << "dnsttl_analyze: bad baseline: " << error << "\n";
      return 2;
    }
  }

  const BaselineDiff diff =
      dnsttl::analysis::diff_against_baseline(findings, baseline);
  for (const Finding& f : diff.fresh) {
    std::cerr << f.to_string() << "\n";
  }
  std::cout << "dnsttl_analyze: " << sources.size() << " files, "
            << findings.size() << " finding(s), " << diff.fresh.size()
            << " new vs baseline (" << diff.matched << " matched";
  if (diff.stale_count > 0) {
    std::cout << ", " << diff.stale_count
              << " stale baseline entr(ies) — consider --write-baseline";
  }
  std::cout << ")\n";
  return diff.fresh.empty() ? 0 : 1;
}
