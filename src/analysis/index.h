#ifndef DNSTTL_ANALYSIS_INDEX_H
#define DNSTTL_ANALYSIS_INDEX_H

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/summary.h"
#include "analysis/token.h"

namespace dnsttl::analysis {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// What kind of construct a brace pair opens.  The classifier is heuristic
/// (no preprocessor, no symbol table) but tuned to this repo's idiom; every
/// misclassification mode it accepts is documented in index.cc.
enum class ScopeKind {
  kNamespace,
  kClass,     // class/struct/union/enum bodies
  kFunction,  // free/member function bodies (incl. ctor bodies)
  kLambda,
  kBlock,     // control-flow blocks: if/for/while/switch/try/else/do
  kInit,      // braced initializers
};

struct Scope {
  ScopeKind kind;
  std::size_t open;        // code-token index of '{'
  std::size_t close;       // code-token index of matching '}' (or kNpos)
  std::size_t params_open = kNpos;  // functions/lambdas: index of '(' if any
  std::string name;        // namespace name when known
};

/// One declared variable (or data member) found by the statement scanner.
struct VarDecl {
  std::string name;
  std::string type_text;   // joined type tokens left of the name
  std::size_t name_idx;    // code-token index of the declared name
  std::size_t line;
  ScopeKind scope;         // kind of the enclosing scope
  bool static_kw = false;
  bool is_const = false;       // const / constexpr / constinit
  bool is_thread_local = false;
  bool ptr_or_ref = false;     // '*' or '&' among the type tokens
};

/// A parsed function parameter (used by raw-time-param and the unit map).
struct Param {
  std::string name;
  std::string type_text;
  std::size_t line;
  bool ptr_or_ref = false;
};

/// Token stream + bracket matching + scope tree + declaration index +
/// suppression table for one source file.  All rule logic runs against this.
class FileIndex {
 public:
  FileIndex(std::string path, std::string_view source);

  const std::string& path() const { return path_; }
  /// Code tokens only (trivia stripped); rule positions index this vector.
  const TokenList& code() const { return code_; }
  /// Matching bracket for code()[i] when it is one of ()[]{}; kNpos if
  /// unmatched.
  std::size_t match(std::size_t i) const {
    return i < match_.size() ? match_[i] : kNpos;
  }
  const std::vector<Scope>& scopes() const { return scopes_; }
  /// Innermost scope whose extent contains code-token i (kNpos = file
  /// scope, treated as namespace scope for declaration purposes).
  std::size_t innermost_scope(std::size_t i) const;
  ScopeKind scope_kind_at(std::size_t i) const;

  const std::vector<VarDecl>& var_decls() const { return var_decls_; }
  /// Names declared anywhere in this file as std::unordered_{map,set,...}.
  const std::set<std::string>& unordered_names() const {
    return unordered_names_;
  }
  /// name -> unit ("us"/"s") for identifiers declared with a strong
  /// time/TTL type (Duration, SimTime/Time, Ttl) in this file.
  const std::map<std::string, std::string>& unit_typed() const {
    return unit_typed_;
  }

  /// Parse the parameter list whose '(' sits at code-token index open.
  std::vector<Param> parse_params(std::size_t open) const;

  /// True when an allow comment (`lint:allow` or `analyze:allow` naming
  /// `rule`) sits on `line` or on a comment line directly above.
  bool suppressed(std::size_t line, std::string_view rule) const;

  /// The whole suppression table (line -> allowed rules) and the allow
  /// comments as sites — the interprocedural pass suppresses against the
  /// former, the stale-suppression rule audits the latter.
  const std::map<std::size_t, std::set<std::string>>& allow_lines() const {
    return allow_;
  }
  const std::vector<AllowSite>& allow_sites() const { return allow_sites_; }

 private:
  void build_matches();
  void build_scopes();
  void scan_declarations();
  void scan_statement(std::size_t begin, std::size_t end, ScopeKind scope);
  void build_suppressions(const TokenList& all);

  std::string path_;
  TokenList code_;
  std::vector<std::size_t> match_;
  std::vector<Scope> scopes_;
  std::vector<VarDecl> var_decls_;
  std::set<std::string> unordered_names_;
  std::map<std::string, std::string> unit_typed_;
  std::map<std::size_t, std::set<std::string>> allow_;  // line -> rules
  std::vector<AllowSite> allow_sites_;
};

}  // namespace dnsttl::analysis

#endif  // DNSTTL_ANALYSIS_INDEX_H
