#include "analysis/analyzer.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "analysis/callgraph.h"
#include "analysis/dataflow.h"
#include "analysis/index.h"
#include "analysis/rules.h"

namespace dnsttl::analysis {
namespace {

namespace fs = std::filesystem;

std::string slashes(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  return path;
}

bool source_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h";
}

/// Suppression hygiene, after phase 2 so an allow justified by an
/// interprocedural finding counts as used.  Every allow comment must say
/// why (bare-suppression) and must name a rule that fires on one of its
/// covered lines, visible or silenced — silenced is the normal case
/// (stale-suppression).  A misspelled rule never fires, so it is stale.
void audit_suppressions(const std::vector<FileSummary>& summaries,
                        const Findings& all_would_fire, Findings& out) {
  // (file, rule, line) lookup over every finding either emitted or
  // suppressed anywhere in the run.
  std::set<std::string> fired;
  for (const Finding& f : all_would_fire) {
    fired.insert(f.file + "\x1f" + f.rule + "\x1f" + std::to_string(f.line));
  }

  for (const FileSummary& file : summaries) {
    for (const AllowSite& site : file.allow_sites) {
      const std::string excerpt = "allow(" + site.rule + ")";
      if (!site.justified) {
        out.push_back({"bare-suppression", file.path, site.comment_line,
                       "suppression names '" + site.rule + "' without a "
                       "justification; say after the closing parenthesis "
                       "why the finding is acceptable",
                       excerpt});
      }
      const bool used = std::any_of(
          site.covered_lines.begin(), site.covered_lines.end(),
          [&](std::size_t line) {
            return fired.count(file.path + "\x1f" + site.rule + "\x1f" +
                               std::to_string(line)) != 0;
          });
      if (!used) {
        out.push_back(
            {"stale-suppression", file.path, site.comment_line,
             "suppression names '" + site.rule + "' but that rule does not "
             "fire on the covered line; delete the dead allow comment (or "
             "fix the rule name)",
             excerpt});
      }
    }
  }
}

}  // namespace

Findings analyze_sources(const std::vector<SourceFile>& sources) {
  // Phase 1: per file, in file order.  `suppressed` collects the findings
  // allow comments silenced, for the stale-suppression audit.
  Findings visible;
  Findings suppressed;
  std::vector<FileSummary> summaries;
  summaries.reserve(sources.size());
  for (const auto& [rel, source] : sources) {
    const FileIndex index(rel, source);
    const std::string rel_slashes = slashes(rel);
    const Findings found = run_rules(index, rel_slashes, &suppressed);
    visible.insert(visible.end(), found.begin(), found.end());
    summaries.push_back(summarize_file(index, rel_slashes));
  }
  Findings would_fire = visible;  // visible + suppressed, for the audit
  would_fire.insert(would_fire.end(), suppressed.begin(), suppressed.end());

  // Phase 2: whole-repo call graph + interprocedural dataflow (serial; the
  // graph needs every summary).
  DataflowResult ip = run_dataflow(summaries);
  visible.insert(visible.end(), ip.findings.begin(), ip.findings.end());
  would_fire.insert(would_fire.end(), ip.findings.begin(),
                    ip.findings.end());
  would_fire.insert(would_fire.end(), ip.suppressed.begin(),
                    ip.suppressed.end());

  audit_suppressions(summaries, would_fire, visible);
  return visible;
}

Findings analyze_source(const std::string& rel_path,
                        const std::string& source) {
  return analyze_sources({{rel_path, source}});
}

std::vector<std::string> collect_sources(const std::string& root,
                                         const std::vector<std::string>& paths,
                                         std::string* error) {
  std::vector<std::string> out;
  const fs::path root_path(root);
  for (const std::string& p : paths) {
    fs::path abs = fs::path(p).is_absolute() ? fs::path(p) : root_path / p;
    std::error_code ec;
    if (fs::is_directory(abs, ec)) {
      for (fs::recursive_directory_iterator it(abs, ec), end;
           it != end && !ec; it.increment(ec)) {
        if (it->is_regular_file(ec) && source_extension(it->path())) {
          out.push_back(
              slashes(fs::relative(it->path(), root_path, ec).string()));
        }
      }
    } else if (fs::is_regular_file(abs, ec)) {
      out.push_back(slashes(fs::relative(abs, root_path, ec).string()));
    } else if (error != nullptr && error->empty()) {
      *error = "no such file or directory: " + abs.string();
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Findings analyze_paths(const std::string& root,
                       const std::vector<std::string>& rel_paths) {
  Findings io_errors;
  std::vector<SourceFile> sources;
  sources.reserve(rel_paths.size());
  for (const std::string& rel : rel_paths) {
    std::ifstream in(std::filesystem::path(root) / rel,
                     std::ios::in | std::ios::binary);
    if (!in) {
      io_errors.push_back({"analyzer-io", rel, 0,
                           "could not read file for analysis", rel});
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    sources.emplace_back(rel, buffer.str());
  }
  Findings all = analyze_sources(sources);
  all.insert(all.end(), io_errors.begin(), io_errors.end());
  return all;
}

}  // namespace dnsttl::analysis
