#ifndef DNSTTL_ANALYSIS_ANALYZER_H
#define DNSTTL_ANALYSIS_ANALYZER_H

#include <string>
#include <utility>
#include <vector>

#include "analysis/finding.h"

namespace dnsttl::analysis {

/// One in-memory source file: (repo-relative path, contents).
using SourceFile = std::pair<std::string, std::string>;

/// The full two-phase pipeline over in-memory sources.
///
/// Phase 1 (per file, in file order): lex + index + intraprocedural rules
/// + call-summary extraction.  Phase 2 (whole-repo): link the summaries
/// into a call graph, run the interprocedural dataflow rules, then audit
/// every `lint:allow`/`analyze:allow` comment against the complete finding
/// set (stale- and bare-suppression).  Findings come back in deterministic
/// order.
Findings analyze_sources(const std::vector<SourceFile>& sources);

/// Analyzes one source string as if it lived at `rel_path` (repo-relative,
/// forward slashes).  This is the entry the fixture tests use;
/// path-scoped rules see exactly the given path.  Interprocedural rules
/// run too — the call graph is just single-TU.
Findings analyze_source(const std::string& rel_path,
                        const std::string& source);

/// Recursively collects .cc/.h files under each of `paths` (files are
/// taken as-is), resolved against `root`, sorted for determinism.
/// Returned paths are root-relative with forward slashes.
std::vector<std::string> collect_sources(const std::string& root,
                                         const std::vector<std::string>& paths,
                                         std::string* error);

/// Reads every collected file, then runs analyze_sources over them.  IO
/// errors append a synthetic `analyzer-io` finding so a vanished file can
/// never silently pass.
Findings analyze_paths(const std::string& root,
                       const std::vector<std::string>& rel_paths);

}  // namespace dnsttl::analysis

#endif  // DNSTTL_ANALYSIS_ANALYZER_H
