#ifndef DNSTTL_ANALYSIS_REPORT_H
#define DNSTTL_ANALYSIS_REPORT_H

#include <string>

#include "analysis/finding.h"

namespace dnsttl::analysis {

/// Machine-readable findings report.  Deterministic: findings are emitted
/// in (file, line, rule) order, keys in a fixed order, no timestamps.
std::string findings_to_json(const Findings& findings);

}  // namespace dnsttl::analysis

#endif  // DNSTTL_ANALYSIS_REPORT_H
