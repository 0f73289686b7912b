#ifndef DNSTTL_ANALYSIS_CALLGRAPH_H
#define DNSTTL_ANALYSIS_CALLGRAPH_H

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/index.h"
#include "analysis/summary.h"

namespace dnsttl::analysis {

// ------------------------------------------------------- lexical helpers
// Shared between the intraprocedural rules (rules.cc) and the summary
// extraction pass, so both layers agree on what "an RNG", "a draw", or
// "a shard entry" looks like.

std::string lower_ascii(std::string s);

/// Name smells like an RNG stream ("rng" anywhere, case-insensitive).
bool rng_ish_name(const std::string& name);

/// The sim::Rng draw accessors (next/uniform/chance/...).
const std::set<std::string>& rng_draw_names();

/// Callee names treated as output/format/scheduling sinks.
const std::set<std::string>& output_callee_names();

/// The par:: entry points whose lambda arguments run as shard bodies.
const std::set<std::string>& shard_entry_names();

bool is_member_access(const Token& t);

/// Top-level token positions of [begin, end): nested ()[]{} extents
/// hopped, the open/close markers themselves kept.
std::vector<std::size_t> top_level_positions(const FileIndex& ix,
                                             std::size_t begin,
                                             std::size_t end);

/// Type-text classifiers (word-wise over the joined declarator tokens).
bool pool_type_text(const std::string& type_text);
bool raw_int_type_text(const std::string& type_text);
bool unit_type_text(const std::string& type_text);

/// A draw site: `<chain> .|-> <draw-name> (` where the postfix chain
/// mentions an RNG (by name, or by declared type via `rng_typed`).
/// Returns the chain-head identifier via `head`.
bool draw_site_at(const FileIndex& ix, std::size_t i, std::string* head,
                  const std::set<std::string>* rng_typed = nullptr);

/// Names declared anywhere in the file with an Rng-flavoured type.
std::set<std::string> rng_typed_names(const FileIndex& ix);

/// Collects `[captures](params) { body }` extents between code-token
/// positions [begin, end); each pair is (body_begin, body_end) just inside
/// the braces.
void collect_lambda_bodies(const FileIndex& ix, std::size_t begin,
                           std::size_t end,
                           std::vector<std::pair<std::size_t, std::size_t>>&
                               bodies);

/// Code-token positions of every shard-body '{' in the file: lambdas
/// handed to the par:: shard entries, or bound to ShardScript/EnvFactory.
std::set<std::size_t> shard_body_opens(const FileIndex& ix);

// ---------------------------------------------------- summary extraction

/// Extracts the per-TU call summaries for one indexed file.  Pure function
/// of the file text; phase 2 reads them in sorted-file order.
FileSummary summarize_file(const FileIndex& ix, const std::string& rel_path);

// ------------------------------------------------------------ call graph

/// Whole-repo call graph: a flat node list (every FunctionSummary of every
/// file, in file order) plus a name index that links call sites across
/// translation units.  Resolution is by unqualified name with an arity
/// filter; a qualified call (`Class::f`) prefers candidates declared with
/// that qualifier.  Unresolvable calls (std::, libc, members of external
/// types) resolve to nothing and simply end the chain.
class CallGraph {
 public:
  explicit CallGraph(const std::vector<FileSummary>& files);

  const std::vector<const FunctionSummary*>& nodes() const { return nodes_; }

  /// Node ids whose summary the call site plausibly targets.
  std::vector<std::size_t> resolve(const CallSite& call) const;

 private:
  std::vector<const FunctionSummary*> nodes_;
  std::map<std::string, std::vector<std::size_t>> by_name_;
};

}  // namespace dnsttl::analysis

#endif  // DNSTTL_ANALYSIS_CALLGRAPH_H
