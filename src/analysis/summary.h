#ifndef DNSTTL_ANALYSIS_SUMMARY_H
#define DNSTTL_ANALYSIS_SUMMARY_H

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace dnsttl::analysis {

/// Per-function call summaries: the unit of the interprocedural engine.
/// Phase 1 extracts one FileSummary per translation unit (shardable with
/// par::map_shards — extraction is a pure function of the file text); phase
/// 2 links them into a whole-repo call graph (callgraph.h) and propagates
/// taints through it (dataflow.h).  Everything here is plain data so the
/// deterministic shard merge is a straight concatenation in file order.

/// One declared parameter, with the type facts the dataflow pass keys on.
struct ParamFacts {
  std::string name;
  std::string type_text;
  bool by_ref = false;    // '&' among the type tokens
  bool by_ptr = false;    // '*' among the type tokens
  bool is_const = false;  // 'const' among the type tokens
  bool rng = false;       // Rng-flavoured type
  bool pool = false;      // SoA pool / TimerWheel / VpSchedule type
  bool unordered = false; // std::unordered_* type
  bool raw_int = false;   // raw integer type (int64_t, size_t, ...)
  bool unit = false;      // Duration / SimTime / Ttl strong type
  bool mutated = false;   // assigned / incremented in the body
};

/// One argument at a call site.  `head` is the head identifier of the
/// argument expression (`rng` for `rng`, `&x` and `x.field` both head to
/// `x`); literals carry an empty head with `is_literal` set.
struct CallArg {
  std::string head;
  bool address_of = false;  // argument spelled `&head...`
  bool forked = false;      // argument contains `.fork(` — already split
  bool is_literal = false;  // numeric literal argument
};

/// One call site in a function body.
struct CallSite {
  std::string callee;     // unqualified name (last identifier before '(')
  std::string qualifier;  // `std`, `Duration`, receiver head, ... or empty
  bool member_call = false;  // receiver.method(...) / receiver->method(...)
  std::size_t line = 0;
  std::vector<CallArg> args;
  bool in_unordered_loop = false;  // lexically inside a range-for over an
                                   // unordered container
};

/// One local whose address/reference escaped its scope (shard-escape raw
/// material): `return &x`, or `<non-local> = &x`.
struct EscapedLocal {
  std::string name;
  std::size_t line = 0;
  bool via_return = false;
};

struct FunctionSummary {
  std::string name;  // unqualified; lambdas use "<lambda>"
  std::string qual;  // qualified spelling when written (Class::name)
  std::string file;  // repo-relative path, forward slashes
  std::size_t line = 0;  // line of the body '{'
  bool is_lambda = false;
  bool is_shard_body = false;  // lambda handed to a par:: shard entry
  std::vector<ParamFacts> params;
  std::vector<CallSite> calls;
  std::set<std::string> locals;         // declared names (params included)
  std::set<std::string> rng_locals;     // Rng-typed locals
  std::set<std::string> raw_int_locals; // raw-integer-typed locals
  std::set<std::string> forked;         // names initialized via .fork(
  std::set<std::string> draws_from;     // chain heads of draw sites
  /// Param names whose value reaches a Duration/SimTime/Ttl construction
  /// in this body (lexically; the dataflow pass extends this transitively).
  std::set<std::string> unit_ctor_flow;
  /// By-ref/pointer params stored past the call (assigned to a member,
  /// static, or captured name, or pushed into a non-local container).
  std::set<std::string> stored_params;
  std::vector<EscapedLocal> escaped_locals;
  bool writes_output = false;       // `<<` or a known output callee, direct
  bool has_unordered_loop = false;
};

/// One `lint:allow`/`analyze:allow` comment, with the lines it covers —
/// the stale- and bare-suppression audits check these after all findings
/// are known.
struct AllowSite {
  std::size_t comment_line = 0;
  std::string rule;
  std::vector<std::size_t> covered_lines;
  bool justified = true;  // words follow the closing parenthesis
};

/// Everything phase 2 needs from one file: the function summaries plus the
/// suppression table (interprocedural findings honour allows the same way
/// intraprocedural ones do).
struct FileSummary {
  std::string path;
  std::vector<FunctionSummary> functions;
  std::map<std::size_t, std::set<std::string>> allow_lines;  // line -> rules
  std::vector<AllowSite> allow_sites;
};

}  // namespace dnsttl::analysis

#endif  // DNSTTL_ANALYSIS_SUMMARY_H
