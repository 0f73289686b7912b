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
//                  [--json FILE|-]              machine-readable findings
//                  [--list-rules]               rule/contract table
//
// Exit codes: 0 no findings, 1 any finding, 2 usage / IO error.  A finding
// accepted on purpose carries a justified allow comment (docs/architecture.md
// §Static analysis), which the stale- and bare-suppression audits keep
// honest.

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/report.h"
#include "analysis/rules.h"

namespace {

using dnsttl::analysis::Finding;
using dnsttl::analysis::Findings;

int usage(std::ostream& out, int code) {
  out << "usage: dnsttl_analyze [--root DIR] [paths...] [--json FILE|-]\n"
         "                      [--list-rules]\n";
  return code;
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
  std::string json_path;
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
    } else if (arg == "--json") {
      const char* v = next("--json");
      if (v == nullptr) return usage(std::cerr, 2);
      json_path = v;
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

  const Findings findings = dnsttl::analysis::analyze_paths(root, sources);

  if (!json_path.empty()) {
    const std::string json = dnsttl::analysis::findings_to_json(findings);
    if (json_path == "-") {
      std::cout << json;
    } else if (!write_file(json_path, json, &error)) {
      std::cerr << "dnsttl_analyze: " << error << "\n";
      return 2;
    }
  }

  for (const Finding& f : findings) {
    std::cerr << f.to_string() << "\n";
  }
  std::cout << "dnsttl_analyze: " << sources.size() << " files, "
            << findings.size() << " finding(s)\n";
  return findings.empty() ? 0 : 1;
}
