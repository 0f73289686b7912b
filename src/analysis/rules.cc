#include "analysis/rules.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "analysis/callgraph.h"

namespace dnsttl::analysis {
namespace {

using std::size_t;

// ------------------------------------------------------------------ helpers
// The lexical vocabulary (what an RNG/draw/shard entry/output sink looks
// like) lives in callgraph.h, shared with the summary extraction pass.

std::string make_excerpt(const FileIndex& ix, size_t from, size_t to) {
  std::string out;
  for (size_t i = from; i < to && i < ix.code().size(); ++i) {
    if (!out.empty()) out += ' ';
    out += ix.code()[i].text;
    if (out.size() > 96) {
      out.resize(96);
      out += "...";
      break;
    }
  }
  return out;
}

/// Finding sink: applies the suppression table, and keeps the silenced
/// findings around so the stale-suppression audit can tell a used allow
/// from a dead one.
struct Sink {
  const FileIndex& ix;
  const std::string& rel;
  Findings& out;
  Findings* suppressed;

  void add(const char* rule, size_t line, std::string message,
           std::string excerpt) const {
    Finding f{rule, rel, line, std::move(message), std::move(excerpt)};
    if (ix.suppressed(line, rule)) {
      if (suppressed != nullptr) suppressed->push_back(std::move(f));
      return;
    }
    out.push_back(std::move(f));
  }
};

bool path_has_component(const std::string& rel, const char* component) {
  std::string needle = std::string("/") + component + "/";
  std::string padded = "/" + rel;
  return padded.find(needle) != std::string::npos;
}

// ------------------------------------------------------- rng-raw-source

void rule_rng_raw_source(const FileIndex& ix, const Sink& sink) {
  static const std::set<std::string> kLibc = {"rand", "srand", "random",
                                              "drand48", "lrand48"};
  static const std::set<std::string> kStd = {
      "random_device",      "mt19937",
      "mt19937_64",         "minstd_rand",
      "minstd_rand0",       "default_random_engine",
      "knuth_b",            "uniform_int_distribution",
      "uniform_real_distribution", "bernoulli_distribution",
      "normal_distribution",       "discrete_distribution"};
  const TokenList& code = ix.code();
  for (size_t i = 0; i < code.size(); ++i) {
    const Token& t = code[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (kLibc.count(t.text) != 0 && i + 1 < code.size() &&
        code[i + 1].punct("(") &&
        (i == 0 || (!is_member_access(code[i - 1]) &&
                    !code[i - 1].punct("::")))) {
      sink.add("rng-raw-source", t.line,
               "`" + t.text + "()` bypasses the seeded sim::Rng; every draw "
               "must flow through an approved Rng accessor so runs replay "
               "byte-identically",
               make_excerpt(ix, i, i + 4));
      continue;
    }
    if (kStd.count(t.text) != 0 && i >= 2 && code[i - 1].punct("::") &&
        code[i - 2].ident("std")) {
      sink.add("rng-raw-source", t.line,
               "`std::" + t.text + "` bypasses the seeded sim::Rng; every "
               "draw must flow through an approved Rng accessor",
               make_excerpt(ix, i - 2, i + 3));
    }
  }
}

// ----------------------------------------------------------- wall-clock

void rule_wall_clock(const FileIndex& ix, const Sink& sink) {
  static const std::set<std::string> kLibc = {
      "time", "clock", "gettimeofday", "clock_gettime", "localtime",
      "gmtime"};
  static const std::set<std::string> kChrono = {
      "system_clock", "steady_clock", "high_resolution_clock"};
  const TokenList& code = ix.code();
  for (size_t i = 0; i < code.size(); ++i) {
    const Token& t = code[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (kLibc.count(t.text) != 0 && i + 1 < code.size() &&
        code[i + 1].punct("(") &&
        (i == 0 || (!is_member_access(code[i - 1]) &&
                    !code[i - 1].punct("::")))) {
      sink.add("wall-clock", t.line,
               "`" + t.text + "()` reads the wall clock; simulated time "
               "comes from sim::Simulation::now() so replays are "
               "deterministic",
               make_excerpt(ix, i, i + 4));
      continue;
    }
    if (kChrono.count(t.text) != 0 && i >= 4 && code[i - 1].punct("::") &&
        code[i - 2].ident("chrono") && code[i - 3].punct("::") &&
        code[i - 4].ident("std")) {
      sink.add("wall-clock", t.line,
               "`std::chrono::" + t.text + "` reads the wall clock; "
               "simulated time comes from sim::Simulation::now()",
               make_excerpt(ix, i - 4, i + 1));
    }
  }
}

// ------------------------------------------------- unordered-output-flow

void rule_unordered_output_flow(const FileIndex& ix, const Sink& sink) {
  const TokenList& code = ix.code();
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    if (!code[i].ident("for") || !code[i + 1].punct("(")) continue;
    size_t open = i + 1;
    size_t close = ix.match(open);
    if (close == kNpos) continue;

    // Range-for: a top-level ':' inside the parens.
    std::vector<size_t> top = top_level_positions(ix, open + 1, close);
    size_t colon = kNpos;
    for (size_t k : top) {
      if (code[k].punct(":")) {
        colon = k;
        break;
      }
    }
    if (colon == kNpos) continue;

    bool unordered = false;
    for (size_t k = colon + 1; k < close; ++k) {
      const Token& t = code[k];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (ix.unordered_names().count(t.text) != 0 ||
          t.text.rfind("unordered_", 0) == 0) {
        unordered = true;
        break;
      }
    }
    if (!unordered) continue;

    // Body extent: the following '{...}' or the single statement to ';'.
    size_t body_begin = close + 1;
    size_t body_end;
    if (body_begin < code.size() && code[body_begin].punct("{")) {
      body_end = ix.match(body_begin);
      if (body_end == kNpos) continue;
      ++body_begin;
    } else {
      body_end = body_begin;
      while (body_end < code.size() && !code[body_end].punct(";")) {
        ++body_end;
      }
    }
    for (size_t k = body_begin; k < body_end; ++k) {
      const Token& t = code[k];
      bool hit = false;
      std::string what;
      if (t.punct("<<")) {
        hit = true;
        what = "operator<<";
      } else if (t.kind == TokenKind::kIdentifier &&
                 output_callee_names().count(t.text) != 0 &&
                 k + 1 < code.size() && code[k + 1].punct("(")) {
        hit = true;
        what = t.text + "()";
      }
      if (hit) {
        sink.add("unordered-output-flow", code[i].line,
                 "range-for over an unordered container reaches `" + what +
                     "` (line " + std::to_string(t.line) +
                     "); iteration order is hash/libstdc++-dependent and "
                     "breaks the byte-identical-output contract — sort into "
                     "a vector first",
                 make_excerpt(ix, i, close + 1));
        break;
      }
    }
  }
}

// ---------------------------------------------- shared-mutable-in-shard

void rule_shared_mutable(const FileIndex& ix, const Sink& sink) {
  for (const VarDecl& d : ix.var_decls()) {
    const bool static_storage =
        d.scope == ScopeKind::kNamespace || d.static_kw;
    if (!static_storage || d.is_thread_local) continue;
    if (d.ptr_or_ref && pool_type_text(d.type_text)) {
      sink.add("shared-mutable-in-shard", d.line,
               "`" + d.name + "` (" + d.type_text + ") is a static-storage "
               "alias into an SoA pool: the pointee is rebuilt/compacted "
               "per shard, so the alias dangles across shard boundaries "
               "even though it is const — thread the pool through the "
               "shard callback",
               d.type_text + " " + d.name);
      continue;
    }
    if (d.is_const) continue;
    sink.add("shared-mutable-in-shard", d.line,
             "`" + d.name + "` (" + d.type_text + ") has static storage and "
             "is mutable: shards run this code concurrently on the par:: "
             "pool, so it is shared state — a data race and a determinism "
             "leak; make it const, thread_local, or shard-local",
             d.type_text + " " + d.name);
  }
}

// -------------------------------------------------------- raw-time-param

bool time_ish_name(const std::string& name) {
  static const std::set<std::string> kWords = {
      "ttl",    "time",    "timeout", "deadline", "duration",
      "interval", "delay", "expiry",  "latency",  "rtt",
      "outage", "backoff", "stale",   "horizon"};
  static const std::set<std::string> kSuffixes = {
      "us", "ms", "sec", "secs", "seconds", "micros", "millis"};
  std::string low = lower_ascii(name);
  std::vector<std::string> segments;
  size_t begin = 0;
  while (begin <= low.size()) {
    size_t end = low.find('_', begin);
    if (end == std::string::npos) end = low.size();
    if (end > begin) segments.push_back(low.substr(begin, end - begin));
    if (end == low.size()) break;
    begin = end + 1;
  }
  // `timeout_count`, `retry_total`, ... are tallies, not time values.
  static const std::set<std::string> kCounters = {"count",  "counts", "total",
                                                  "totals", "num",    "idx",
                                                  "index",  "id"};
  if (!segments.empty() && kCounters.count(segments.back()) != 0) return false;
  for (const std::string& s : segments) {
    if (kWords.count(s) != 0) return true;
  }
  return segments.size() >= 2 && kSuffixes.count(segments.back()) != 0;
}

void rule_raw_time_param(const FileIndex& ix, const std::string& rel,
                         const Sink& sink) {
  if (rel.size() < 2 || rel.compare(rel.size() - 2, 2, ".h") != 0) return;
  const TokenList& code = ix.code();
  for (size_t i = 1; i < code.size(); ++i) {
    if (!code[i].punct("(")) continue;
    const Token& prev = code[i - 1];
    if (prev.kind != TokenKind::kIdentifier) continue;
    static const std::set<std::string> kNotAFunction = {
        "if",       "for",      "while",    "switch",     "return",
        "catch",    "sizeof",   "alignof",  "decltype",   "noexcept",
        "static_assert", "defined", "assert"};
    if (kNotAFunction.count(prev.text) != 0) continue;
    ScopeKind scope = ix.scope_kind_at(i);
    if (scope != ScopeKind::kNamespace && scope != ScopeKind::kClass) {
      continue;
    }
    for (const Param& p : ix.parse_params(i)) {
      if (p.name.empty() || p.ptr_or_ref) continue;
      if (!time_ish_name(p.name)) continue;
      if (!raw_int_type_text(p.type_text)) continue;
      sink.add("raw-time-param", p.line,
               "public-header parameter `" + p.name + "` carries time as a "
               "raw `" + p.type_text + "`; take sim::Duration, sim::Time, "
               "or dns::Ttl so the unit lives in the type",
               prev.text + "(... " + p.type_text + " " + p.name + " ...)");
    }
  }
  // Data members too: a raw-int field named like a time quantity leaks the
  // unit out of the type system exactly like a parameter does.
  for (const VarDecl& d : ix.var_decls()) {
    if (d.scope != ScopeKind::kClass || d.ptr_or_ref) continue;
    if (!time_ish_name(d.name)) continue;
    if (!raw_int_type_text(d.type_text)) continue;
    sink.add("raw-time-param", d.line,
             "public-header member `" + d.name + "` carries time as a raw `" +
                 d.type_text + "`; use sim::Duration, sim::Time, or "
                 "dns::Ttl so the unit lives in the type",
             d.type_text + " " + d.name);
  }
}

// ------------------------------------------------------- unit-float-cast

/// Unit-typed names in the file -> the unit their raw escape hatch leaks
/// ("us" for Duration/SimTime, "s" for Ttl): local/namespace declarations
/// plus every unit-typed function/lambda parameter.  Built once per file
/// for unit-float-cast and unit-arith.
std::map<std::string, std::string> unit_typed_names(const FileIndex& ix) {
  std::map<std::string, std::string> names = ix.unit_typed();
  for (const Scope& s : ix.scopes()) {
    if (s.params_open == kNpos) continue;
    for (const Param& p : ix.parse_params(s.params_open)) {
      if (!p.name.empty() && unit_type_text(p.type_text)) {
        names.emplace(p.name, p.type_text.find("Ttl") != std::string::npos
                                  ? "s"
                                  : "us");
      }
    }
  }
  return names;
}

void rule_unit_float_cast(const FileIndex& ix, const std::string& rel,
                          const std::map<std::string, std::string>& units,
                          const Sink& sink) {
  if (path_has_component(rel, "stats")) return;  // sanctioned float layer
  static const std::set<std::string> kEscapes = {
      "count",      "value",           "ticks",
      "to_seconds", "to_milliseconds", "approx_seconds",
      "approx_milliseconds", "approx_scale"};
  const TokenList& code = ix.code();
  for (size_t i = 0; i + 3 < code.size(); ++i) {
    if (!code[i].ident("static_cast") || !code[i + 1].punct("<")) continue;
    // Destination type between < >.
    size_t k = i + 2;
    std::string dest;
    int depth = 1;
    while (k < code.size() && depth > 0) {
      if (code[k].punct("<")) ++depth;
      if (code[k].punct(">")) --depth;
      if (depth > 0) {
        if (!dest.empty()) dest += ' ';
        dest += code[k].text;
      }
      ++k;
    }
    if (dest != "float" && dest != "double" && dest != "long double") {
      continue;
    }
    if (k >= code.size() || !code[k].punct("(")) continue;
    size_t close = ix.match(k);
    if (close == kNpos) continue;

    bool has_escape = false;
    bool has_unit = false;
    std::string unit_name;
    for (size_t j = k + 1; j < close; ++j) {
      const Token& t = code[j];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (kEscapes.count(t.text) != 0) has_escape = true;
      if (units.count(t.text) != 0) {
        has_unit = true;
        unit_name = t.text;
      }
      if ((t.text == "Duration" || t.text == "SimTime" ||
           t.text == "Ttl") &&
          j >= 2 && code[j - 1].punct("::")) {
        has_unit = true;
        unit_name = t.text;
      }
    }
    if (has_unit && !has_escape) {
      sink.add("unit-float-cast", code[i].line,
               "cast of unit-typed `" + unit_name + "` to " + dest +
                   " outside src/stats/; use sim::to_seconds()/"
                   "to_milliseconds() or keep float conversions in the "
                   "stats layer",
               make_excerpt(ix, i, close + 1));
    }
  }
}

// ------------------------------------------------------------ unit-arith

/// The unit a raw escape hatch `<name> . value|count|ticks ( )` starting
/// at code-token i leaks: a Ttl's value() is seconds, a Duration's or
/// SimTime's count()/ticks() is microseconds; "" for anything else.
std::string escape_unit(const TokenList& code, size_t i,
                        const std::map<std::string, std::string>& units) {
  if (i + 4 >= code.size() || !is_member_access(code[i + 1]) ||
      !code[i + 3].punct("(") || !code[i + 4].punct(")")) {
    return "";
  }
  const auto it = units.find(code[i].text);
  if (it == units.end()) return "";
  const std::string& member = code[i + 2].text;
  if (it->second == "s" && member == "value") return "s";
  if (it->second == "us" && (member == "count" || member == "ticks")) {
    return "us";
  }
  return "";
}

void rule_unit_arith(const FileIndex& ix,
                     const std::map<std::string, std::string>& units,
                     const Sink& sink) {
  const TokenList& code = ix.code();
  for (size_t i = 5; i + 1 < code.size(); ++i) {
    const Token& op = code[i];
    if (!(op.punct("+") || op.punct("-") || op.punct("*") || op.punct("/") ||
          op.punct("%"))) {
      continue;
    }
    const std::string left = escape_unit(code, i - 5, units);
    const std::string right = escape_unit(code, i + 1, units);
    if (left.empty() || right.empty() || left == right) continue;
    sink.add("unit-arith", op.line,
             "arithmetic mixes raw " + left + " and raw " + right +
                 " escape-hatch values; convert explicitly (e.g. "
                 "sim::seconds(ttl.value())) before mixing",
             make_excerpt(ix, i - 5, i + 6));
  }
}

// -------------------------------------------------------- rng-gated-draw

void rule_rng_gated_draw(const FileIndex& ix, const Sink& sink) {
  const std::set<std::string> rng_typed = rng_typed_names(ix);
  const TokenList& code = ix.code();
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    if (!(code[i].ident("if") || code[i].ident("while"))) continue;
    if (!code[i + 1].punct("(")) continue;
    size_t open = i + 1;
    size_t close = ix.match(open);
    if (close == kNpos) continue;

    // Split the condition on top-level '&&'.
    std::vector<std::pair<size_t, size_t>> operands;
    size_t begin = open + 1;
    for (size_t k : top_level_positions(ix, open + 1, close)) {
      if (code[k].punct("&&")) {
        operands.emplace_back(begin, k);
        begin = k + 1;
      }
    }
    operands.emplace_back(begin, close);
    if (operands.size() < 2) continue;

    std::vector<bool> has_draw(operands.size(), false);
    std::vector<size_t> draw_at(operands.size(), kNpos);
    for (size_t n = 0; n < operands.size(); ++n) {
      for (size_t j = operands[n].first; j < operands[n].second; ++j) {
        if (draw_site_at(ix, j, nullptr, &rng_typed)) {
          has_draw[n] = true;
          draw_at[n] = j;
          break;
        }
      }
    }
    for (size_t n = 0; n + 1 < operands.size(); ++n) {
      if (!has_draw[n]) continue;
      bool later_gate = false;
      for (size_t m = n + 1; m < operands.size(); ++m) {
        if (!has_draw[m]) later_gate = true;
      }
      if (!later_gate) continue;
      sink.add("rng-gated-draw", code[draw_at[n]].line,
               "RNG draw runs before a cheaper gate in the same `&&` chain: "
               "an inactive window / zero rate must burn no draw "
               "(RNG-stream contract) — reorder so the predicate "
               "short-circuits first",
               make_excerpt(ix, open + 1, close));
      break;
    }
  }
}

// ------------------------------------------------------ rng-fork-in-shard

void rule_rng_fork_in_shard(const FileIndex& ix, const Sink& sink) {
  const TokenList& code = ix.code();
  const std::set<std::string> rng_typed = rng_typed_names(ix);
  for (size_t open : shard_body_opens(ix)) {
    const size_t body_begin = open + 1;
    const size_t body_end = ix.match(open);
    if (body_end == kNpos) continue;
    // Locally-bound names: lambda parameters + declarations in the body.
    // An Rng declared IN the body only counts as bound when its initializer
    // went through fork(): `sim::Rng a = src.fork(shard)` is the contract,
    // `sim::Rng a = src` is just a renamed capture of a shared stream.
    std::set<std::string> bound;
    for (const Scope& s : ix.scopes()) {
      if (s.open == open && s.params_open != kNpos) {
        for (const Param& p : ix.parse_params(s.params_open)) {
          if (!p.name.empty()) bound.insert(p.name);
        }
      }
    }
    for (const VarDecl& d : ix.var_decls()) {
      if (d.name_idx < body_begin || d.name_idx >= body_end) continue;
      bool forked = false;
      if (rng_typed.count(d.name) != 0) {
        for (size_t k = d.name_idx;
             k < code.size() && !code[k].punct(";"); ++k) {
          if (code[k].ident("fork")) {
            forked = true;
            break;
          }
        }
      } else {
        forked = true;  // not an Rng: irrelevant to fork discipline
      }
      if (forked) bound.insert(d.name);
    }
    for (size_t j = body_begin; j < body_end; ++j) {
      std::string head;
      if (!draw_site_at(ix, j, &head, &rng_typed)) continue;
      if (!head.empty() && bound.count(head) != 0) continue;
      sink.add("rng-fork-in-shard", code[j].line,
               "shard body draws from a captured RNG stream (`" +
                   (head.empty() ? std::string("<expr>") : head) +
                   "`): every shard must draw from its own forked stream "
                   "(rng.fork(shard)) or one threaded through the callback, "
                   "or results depend on shard interleaving",
               make_excerpt(ix, j > 3 ? j - 3 : 0, j + 3));
    }
  }
}

// ------------------------------------------------------ task-state-escape

/// Resumable-task purity: a struct with a `phase` member (or Phase-typed
/// member) is a suspended computation — the bulk resolution engine parks it
/// between scheduler waves, and other tasks retire/admit (compacting the
/// shard's SoA pools) while it sleeps.  A raw pointer or reference member
/// into a pool type therefore dangles across the suspension point even
/// though it was valid when the step stored it.  Task state must hold
/// indices or values; the pool is re-derived from the shard context each
/// step.  Same type vocabulary as shared-mutable-in-shard (the PR 8 escape
/// machinery's pool_type_text).
void rule_task_state_escape(const FileIndex& ix, const Sink& sink) {
  const std::vector<Scope>& scopes = ix.scopes();
  for (size_t si = 0; si < scopes.size(); ++si) {
    const Scope& s = scopes[si];
    if (s.kind != ScopeKind::kClass || s.close == kNpos) continue;
    // Direct members only (innermost scope is this class): nested enums
    // and structs keep their own membership.
    bool resumable = false;
    for (const VarDecl& d : ix.var_decls()) {
      if (d.scope != ScopeKind::kClass) continue;
      if (ix.innermost_scope(d.name_idx) != si) continue;
      if (d.name == "phase" ||
          d.type_text.find("Phase") != std::string::npos) {
        resumable = true;
        break;
      }
    }
    if (!resumable) continue;
    for (const VarDecl& d : ix.var_decls()) {
      if (d.scope != ScopeKind::kClass) continue;
      if (ix.innermost_scope(d.name_idx) != si) continue;
      if (!d.ptr_or_ref || !pool_type_text(d.type_text)) continue;
      sink.add("task-state-escape", d.line,
               "`" + d.name + "` (" + d.type_text + ") aliases an SoA pool "
               "from inside a resumable task (the struct has a phase "
               "member, so it suspends between steps): the pool compacts "
               "as sibling tasks retire, dangling this member across the "
               "suspension point — store an index and re-derive the alias "
               "each step",
               d.type_text + " " + d.name);
    }
  }
}

// --------------------------------------------------------- pointer-print

/// True when a string literal holds a printf pointer conversion: an odd
/// run of '%' (an even run is literal percents), then flags, width and
/// precision, then 'p'.
bool has_pointer_conversion(const std::string& literal) {
  size_t i = 0;
  while ((i = literal.find('%', i)) != std::string::npos) {
    const size_t run = literal.find_first_not_of('%', i);
    if (run == std::string::npos) return false;
    if ((run - i) % 2 == 1) {
      const size_t k = literal.find_first_not_of("-+#0123456789.*", run);
      if (k != std::string::npos && literal[k] == 'p') return true;
    }
    i = run;
  }
  return false;
}

void rule_pointer_print(const FileIndex& ix, const Sink& sink) {
  for (const Token& t : ix.code()) {
    if (t.kind != TokenKind::kString || !has_pointer_conversion(t.text)) {
      continue;
    }
    sink.add("pointer-print", t.line,
             "printf's pointer conversion prints an address, which differs "
             "run to run under ASLR and breaks the byte-identical-output "
             "contract",
             t.text);
  }
}

// --------------------------------------------------------------- raw-new

void rule_raw_new(const FileIndex& ix, const Sink& sink) {
  const TokenList& code = ix.code();
  for (size_t i = 1; i + 1 < code.size(); ++i) {
    const bool is_new = code[i].ident("new");
    if (!is_new && !code[i].ident("delete")) continue;
    if (code[i - 1].ident("operator")) continue;
    // `= delete` deletes a function; placement `new (` constructs into
    // storage something else owns.
    if (is_new ? code[i + 1].punct("(") : code[i - 1].punct("=")) continue;
    sink.add("raw-new", code[i].line,
             "raw `" + code[i].text + "`: ownership goes through containers "
             "or smart pointers (placement new is allowed)",
             make_excerpt(ix, i, i + 3));
  }
}

// ----------------------------------------------------------- std-map-hot

void rule_std_map_hot(const FileIndex& ix, const Sink& sink) {
  const TokenList& code = ix.code();
  for (size_t i = 0; i + 3 < code.size(); ++i) {
    if (!code[i].ident("std") || !code[i + 1].punct("::") ||
        !(code[i + 2].ident("map") || code[i + 2].ident("multimap")) ||
        !code[i + 3].punct("<")) {
      continue;
    }
    sink.add("std-map-hot", code[i].line,
             "`std::" + code[i + 2].text + "` on a hot path: src/cache and "
             "src/sim use the open-addressing table and the slab heap by "
             "design",
             make_excerpt(ix, i, i + 4));
  }
}

// --------------------------------------------------- nodiscard-validator

bool in_check_namespace(const FileIndex& ix, size_t i) {
  for (const Scope& s : ix.scopes()) {
    if (s.kind == ScopeKind::kNamespace && s.open < i &&
        (s.close == kNpos || i < s.close) &&
        ("::" + s.name + "::").find("::check::") != std::string::npos) {
      return true;
    }
  }
  return false;
}

/// A free function `validate*`/`check_*` declared in namespace check:
/// dropping its result silently disables an audit, so unless it returns
/// void it must be [[nodiscard]].  Member functions are out of scope.
void rule_nodiscard_validator(const FileIndex& ix, const Sink& sink) {
  const TokenList& code = ix.code();
  for (size_t i = 1; i + 1 < code.size(); ++i) {
    const Token& name = code[i];
    if (name.kind != TokenKind::kIdentifier || !code[i + 1].punct("(") ||
        !(name.text.rfind("validate", 0) == 0 ||
          name.text.rfind("check_", 0) == 0) ||
        code[i - 1].ident("void") || code[i - 1].punct("::") ||
        ix.scope_kind_at(i) != ScopeKind::kNamespace ||
        !in_check_namespace(ix, i)) {
      continue;
    }
    // Walk the declaration back to the statement start: it needs a return
    // type (else the name is called, not declared) and may carry
    // [[nodiscard]] among its attributes.
    bool has_type = false;
    bool nodiscard = false;
    size_t k = i;
    while (k > 0) {
      const Token& t = code[k - 1];
      if (t.punct(";") || t.punct("{") || t.punct("}")) break;
      const size_t attr = t.punct("]") ? ix.match(k - 1) : kNpos;
      if (attr != kNpos) {
        for (size_t a = attr; a < k; ++a) {
          if (code[a].ident("nodiscard")) nodiscard = true;
        }
        k = attr;
        continue;
      }
      if (t.kind != TokenKind::kIdentifier && !t.punct("::") &&
          !t.punct("<") && !t.punct(">") && !t.punct("*") && !t.punct("&") &&
          !t.punct(",")) {
        has_type = false;  // an expression, not a declaration
        break;
      }
      if (t.kind == TokenKind::kIdentifier) has_type = true;
      --k;
    }
    if (!has_type || nodiscard) continue;
    sink.add("nodiscard-validator", name.line,
             "check:: validator `" + name.text + "` is missing "
             "[[nodiscard]]; a dropped result silently disables the audit",
             make_excerpt(ix, k, i + 1));
  }
}

}  // namespace

const std::vector<RuleInfo>& rule_infos() {
  static const std::vector<RuleInfo> kInfos = {
      {"rng-raw-source", "rng-stream",
       "draws must flow through the seeded sim::Rng accessors, never libc "
       "rand()/std::random_device/std engines"},
      {"rng-gated-draw", "rng-stream",
       "in a `&&` chain, cheap gates run before RNG draws so inactive "
       "windows burn no draw"},
      {"rng-fork-in-shard", "rng-stream",
       "par:: shard bodies draw only from forked or threaded-through RNG "
       "streams, never captured ones"},
      {"rng-escape", "rng-stream",
       "shard bodies must not pass an unforked RNG by mutable reference "
       "into callees that draw from it (interprocedural)"},
      {"shared-mutable-in-shard", "shard-purity",
       "no mutable static-storage state (or SoA-pool aliases, even const) "
       "reachable from par:: shard bodies"},
      {"shard-escape", "shard-purity",
       "no reference/pointer to shard-local state stored or returned past "
       "the shard body (interprocedural)"},
      {"task-state-escape", "shard-purity",
       "resumable-task structs (phase-tagged, suspended between scheduler "
       "steps) hold no raw pointers/references into SoA pools — indices "
       "only"},
      {"unordered-output-flow", "determinism",
       "no range-for over unordered containers feeding render()/output/"
       "scheduling paths"},
      {"unordered-output-flow-ip", "determinism",
       "no range-for over unordered containers reaching an output sink "
       "through a call chain (interprocedural, depth <= 4)"},
      {"wall-clock", "determinism",
       "no wall-clock reads; simulated time comes from "
       "sim::Simulation::now()"},
      {"pointer-print", "determinism",
       "no printf pointer conversions in src/: addresses differ run to "
       "run under ASLR"},
      {"raw-time-param", "unit-safety",
       "public-header parameters carry time as sim::Duration/sim::Time/"
       "dns::Ttl, not raw integers"},
      {"raw-time-flow", "unit-safety",
       "no raw integer literal/local crossing a call boundary into a "
       "Duration/Ttl construction site (interprocedural)"},
      {"unit-float-cast", "unit-safety",
       "no float casts of unit-typed values outside src/stats/"},
      {"unit-arith", "unit-safety",
       "no arithmetic between a Ttl's raw seconds (.value()) and a "
       "Duration/SimTime's raw microseconds (.count()/.ticks())"},
      {"nodiscard-validator", "audit",
       "non-void check:: validators (validate*/check_*) are [[nodiscard]]"},
      {"raw-new", "style",
       "no raw new/delete in src/; placement new is allowed"},
      {"std-map-hot", "style",
       "no std::map/std::multimap in the src/cache and src/sim hot paths"},
      {"stale-suppression", "hygiene",
       "every allow comment names a rule that still fires on the covered "
       "line; dead or misspelled allows must be deleted"},
      {"bare-suppression", "hygiene",
       "every allow comment says after the rule name why the finding is "
       "acceptable"},
  };
  return kInfos;
}

Findings run_rules(const FileIndex& ix, const std::string& rel_path,
                   Findings* suppressed) {
  Findings out;
  const Sink sink{ix, rel_path, out, suppressed};
  rule_rng_raw_source(ix, sink);
  rule_wall_clock(ix, sink);
  rule_unordered_output_flow(ix, sink);
  rule_shared_mutable(ix, sink);
  rule_raw_time_param(ix, rel_path, sink);
  const std::map<std::string, std::string> units = unit_typed_names(ix);
  rule_unit_float_cast(ix, rel_path, units, sink);
  rule_unit_arith(ix, units, sink);
  rule_rng_gated_draw(ix, sink);
  rule_rng_fork_in_shard(ix, sink);
  rule_task_state_escape(ix, sink);
  rule_nodiscard_validator(ix, sink);
  if (rel_path.rfind("src/", 0) == 0) {
    rule_pointer_print(ix, sink);
    rule_raw_new(ix, sink);
  }
  if (rel_path.rfind("src/cache/", 0) == 0 ||
      rel_path.rfind("src/sim/", 0) == 0) {
    rule_std_map_hot(ix, sink);
  }
  return out;
}

}  // namespace dnsttl::analysis
