#ifndef DNSTTL_ANALYSIS_REPORT_H
#define DNSTTL_ANALYSIS_REPORT_H

#include <cstddef>
#include <string>

#include "analysis/finding.h"

namespace dnsttl::analysis {

/// Machine-readable findings report.  Deterministic: findings are emitted
/// in (file, line, rule) order, keys in a fixed order, no timestamps.
std::string findings_to_json(const Findings& findings);

/// Loads a baseline previously written by findings_to_json (or
/// `dnsttl_analyze --write-baseline`).  Returns false and sets `error`
/// on malformed input.  Only rule/file/excerpt are required per entry —
/// line numbers in baselines are informational and may drift.
bool baseline_from_json(const std::string& text, Findings* out,
                        std::string* error);

/// Result of gating current findings against a committed baseline.
struct BaselineDiff {
  Findings fresh;        // findings with no matching baseline entry: FAIL
  std::size_t matched = 0;      // findings covered by the baseline
  std::size_t stale_count = 0;  // baseline entries nothing matched (fixed debt)
};

/// Multiset match on Finding::key() — (rule, file, excerpt) — so edits
/// that only shift line numbers neither hide nor resurrect findings.
BaselineDiff diff_against_baseline(const Findings& current,
                                   const Findings& baseline);

/// SARIF 2.1.0 report for CI PR annotations: one run, one result per
/// finding, rule metadata from rule_infos().  Deterministic: findings are
/// emitted in (file, line, rule) order, rules in registration order, no
/// timestamps or absolute paths.
std::string findings_to_sarif(const Findings& findings);

/// Rewrites the baseline file at `path` from `findings` (sorted, stable
/// key order — exactly the findings_to_json format, so --write-baseline
/// and the gate read and write one representation).
/// Returns false and sets `error` on IO failure.
bool update_baseline_file(const std::string& path, const Findings& findings,
                          std::string* error);

}  // namespace dnsttl::analysis

#endif  // DNSTTL_ANALYSIS_REPORT_H
