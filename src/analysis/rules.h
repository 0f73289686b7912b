#ifndef DNSTTL_ANALYSIS_RULES_H
#define DNSTTL_ANALYSIS_RULES_H

#include <string>
#include <vector>

#include "analysis/finding.h"
#include "analysis/index.h"

namespace dnsttl::analysis {

/// Rule metadata for --list-rules, the SARIF report and the fixture
/// corpus completeness test.
struct RuleInfo {
  const char* name;
  const char* contract;  // which repo contract the rule enforces
  const char* summary;
};

const std::vector<RuleInfo>& rule_infos();

/// Runs every intraprocedural rule over one indexed file.  `rel_path` is
/// the repo-relative path with forward slashes; path-scoped rules
/// (raw-time-param headers only, unit-float-cast stats exemption,
/// pointer-print and raw-new src/ only, std-map-hot src/auth, src/cache,
/// src/dns and src/sim) key on it.  Suppressions
/// (`lint:allow`/`analyze:allow`) are already applied: suppressed findings
/// never come back — but when `suppressed` is non-null the silenced
/// findings are appended there, so the stale-suppression audit can tell a
/// used allow from a dead one.
Findings run_rules(const FileIndex& index, const std::string& rel_path,
                   Findings* suppressed = nullptr);

}  // namespace dnsttl::analysis

#endif  // DNSTTL_ANALYSIS_RULES_H
