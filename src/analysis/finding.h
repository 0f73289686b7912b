#ifndef DNSTTL_ANALYSIS_FINDING_H
#define DNSTTL_ANALYSIS_FINDING_H

#include <cstddef>
#include <string>
#include <vector>

namespace dnsttl::analysis {

/// One rule violation.  `excerpt` is a short normalized snippet of the
/// offending tokens, carried into the JSON report beside the line.
struct Finding {
  std::string rule;
  std::string file;  // repo-relative, forward slashes
  std::size_t line = 0;
  std::string message;
  std::string excerpt;

  std::string to_string() const {
    return file + ":" + std::to_string(line) + ": [" + rule + "] " + message;
  }
};

using Findings = std::vector<Finding>;

}  // namespace dnsttl::analysis

#endif  // DNSTTL_ANALYSIS_FINDING_H
