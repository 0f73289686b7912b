#include "analysis/index.h"

#include <algorithm>

#include "analysis/lexer.h"

namespace dnsttl::analysis {
namespace {

bool is_open(const Token& t) {
  return t.kind == TokenKind::kPunct &&
         (t.text == "(" || t.text == "[" || t.text == "{");
}
bool is_close(const Token& t) {
  return t.kind == TokenKind::kPunct &&
         (t.text == ")" || t.text == "]" || t.text == "}");
}

bool is_qualifier(const std::string& s) {
  return s == "const" || s == "constexpr" || s == "constinit" ||
         s == "static" || s == "thread_local" || s == "inline" ||
         s == "mutable" || s == "volatile" || s == "extern";
}

// Statement-leading keywords that can never start a variable declaration we
// care about (control flow, type definitions, access specifiers, ...).
bool starts_non_decl(const std::string& s) {
  return s == "using" || s == "typedef" || s == "friend" ||
         s == "template" || s == "static_assert" || s == "namespace" ||
         s == "public" || s == "private" || s == "protected" ||
         s == "case" || s == "default" || s == "return" || s == "if" ||
         s == "for" || s == "while" || s == "do" || s == "switch" ||
         s == "goto" || s == "break" || s == "continue" || s == "else" ||
         s == "try" || s == "catch" || s == "throw" || s == "operator" ||
         s == "struct" || s == "class" || s == "union" || s == "enum" ||
         s == "extern" || s == "requires" || s == "concept" || s == "asm";
}

bool control_keyword(const std::string& s) {
  return s == "if" || s == "for" || s == "while" || s == "switch" ||
         s == "catch";
}

// Tokens allowed between the closing ')' of a parameter list and the '{'
// of the body: cv/ref qualifiers, noexcept, override/final, and the pieces
// of a trailing return type.
bool function_suffix_token(const Token& t) {
  if (t.kind == TokenKind::kIdentifier) return true;  // noexcept, type names
  if (t.kind == TokenKind::kNumber) return true;      // noexcept(...) args
  return t.punct("->") || t.punct("::") || t.punct("<") || t.punct(">") ||
         t.punct("*") || t.punct("&") || t.punct("&&") || t.punct(",");
}

}  // namespace

FileIndex::FileIndex(std::string path, std::string_view source)
    : path_(std::move(path)) {
  TokenList all = lex(source);
  code_.reserve(all.size());
  for (const Token& t : all) {
    if (!t.is_trivia()) code_.push_back(t);
  }
  build_matches();
  build_scopes();
  scan_declarations();
  build_suppressions(all);
}

void FileIndex::build_matches() {
  match_.assign(code_.size(), kNpos);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < code_.size(); ++i) {
    if (is_open(code_[i])) {
      stack.push_back(i);
    } else if (is_close(code_[i])) {
      // Tolerate mismatched nesting (macro tricks): pop until the opener
      // that pairs with this closer kind, dropping unmatched openers.
      static const auto pairs = [](const std::string& open,
                                   const std::string& close) {
        return (open == "(" && close == ")") ||
               (open == "[" && close == "]") ||
               (open == "{" && close == "}");
      };
      while (!stack.empty() && !pairs(code_[stack.back()].text,
                                      code_[i].text)) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        match_[stack.back()] = i;
        match_[i] = stack.back();
        stack.pop_back();
      }
    }
  }
}

void FileIndex::build_scopes() {
  for (std::size_t i = 0; i < code_.size(); ++i) {
    if (!code_[i].punct("{")) continue;

    // Collect the top-level tokens of the statement prefix: walk backwards,
    // hopping over bracketed extents, until a statement boundary.
    std::vector<std::size_t> top;  // reversed during collection
    std::size_t j = i;
    while (j > 0) {
      --j;
      const Token& t = code_[j];
      if (t.punct(")") || t.punct("]")) {
        std::size_t m = match(j);
        top.push_back(j);
        if (m == kNpos) break;
        top.push_back(m);
        j = m;
        continue;
      }
      if (t.punct(";") || t.punct("{") || t.punct("}") || t.punct(",") ||
          t.punct("(") || t.punct("[")) {
        break;
      }
      top.push_back(j);
    }
    std::reverse(top.begin(), top.end());

    Scope scope{ScopeKind::kBlock, i, match(i), kNpos, {}};
    scope.kind = [&]() -> ScopeKind {
      auto text = [&](std::size_t k) -> const std::string& {
        return code_[top[k]].text;
      };
      // namespace [name] {
      for (std::size_t k = 0; k < top.size(); ++k) {
        if (code_[top[k]].ident("namespace")) {
          for (std::size_t n = k + 1; n < top.size(); ++n) {
            if (code_[top[n]].kind == TokenKind::kIdentifier) {
              scope.name += (scope.name.empty() ? "" : "::") + text(n);
            }
          }
          return ScopeKind::kNamespace;
        }
      }
      // class/struct/union/enum ... {
      for (std::size_t k = 0; k < top.size(); ++k) {
        const std::string& s = text(k);
        if (s == "class" || s == "struct" || s == "union" || s == "enum") {
          return ScopeKind::kClass;
        }
      }
      if (top.empty()) return ScopeKind::kBlock;
      const std::string& first = text(0);
      if (first == "else" || first == "do" || first == "try" ||
          first == "case" || first == "default") {
        return ScopeKind::kBlock;
      }
      // Find the last top-level ')' ; if everything after it is a valid
      // function suffix, this brace opens a function, lambda, or control
      // block body depending on what precedes the matching '('.
      for (std::size_t k = top.size(); k-- > 0;) {
        if (!code_[top[k]].punct(")")) continue;
        bool suffix_ok = true;
        for (std::size_t n = k + 1; n < top.size(); ++n) {
          if (!function_suffix_token(code_[top[n]])) {
            suffix_ok = false;
            break;
          }
        }
        if (!suffix_ok) break;
        // top[k] is ')'; its '(' was pushed right after it in the backward
        // walk, so it sits at top[k-1] when matched.
        std::size_t open_paren = kNpos;
        if (k > 0 && code_[top[k - 1]].punct("(")) open_paren = top[k - 1];
        if (open_paren == kNpos) break;
        scope.params_open = open_paren;
        if (k >= 2) {
          const Token& before = code_[top[k - 2]];
          if (control_keyword(before.text)) return ScopeKind::kBlock;
          if (before.punct("]")) return ScopeKind::kLambda;
        } else if (open_paren > 0 && code_[open_paren - 1].punct("]")) {
          // The '[' capture list sat beyond the statement-boundary ',' the
          // backward walk stopped at.
          return ScopeKind::kLambda;
        }
        return ScopeKind::kFunction;
      }
      // Capture-only lambda: [...] {
      if (code_[top.back()].punct("]")) return ScopeKind::kLambda;
      const Token& last = code_[top.back()];
      if (last.punct("=") || last.punct(",") || last.punct("(") ||
          last.ident("return") || last.kind == TokenKind::kIdentifier ||
          last.punct(">") || last.punct("::")) {
        return ScopeKind::kInit;
      }
      return ScopeKind::kBlock;
    }();
    scopes_.push_back(std::move(scope));
  }
}

std::size_t FileIndex::innermost_scope(std::size_t i) const {
  std::size_t best = kNpos;
  for (std::size_t s = 0; s < scopes_.size(); ++s) {
    const Scope& scope = scopes_[s];
    if (scope.open < i && (scope.close == kNpos || i < scope.close)) {
      if (best == kNpos || scope.open > scopes_[best].open) best = s;
    }
  }
  return best;
}

ScopeKind FileIndex::scope_kind_at(std::size_t i) const {
  std::size_t s = innermost_scope(i);
  return s == kNpos ? ScopeKind::kNamespace : scopes_[s].kind;
}

void FileIndex::scan_declarations() {
  // Iterate the immediate statements of the file scope and of every
  // namespace/class/function/lambda/block scope.  Init scopes hold
  // expressions, not declarations.
  struct Range {
    std::size_t begin, end;
    ScopeKind kind;
  };
  std::vector<Range> ranges;
  ranges.push_back({0, code_.size(), ScopeKind::kNamespace});
  for (const Scope& s : scopes_) {
    if (s.kind == ScopeKind::kInit) continue;
    ranges.push_back(
        {s.open + 1, s.close == kNpos ? code_.size() : s.close, s.kind});
  }
  for (const Range& r : ranges) {
    std::size_t stmt = r.begin;
    std::size_t j = r.begin;
    while (j < r.end) {
      const Token& t = code_[j];
      if (is_open(t)) {
        std::size_t m = match(j);
        if (t.text == "{") {
          // Statement ends at the brace (function/class body, braced init).
          scan_statement(stmt, j, r.kind);
          stmt = (m == kNpos ? r.end : m + 1);
        }
        j = (m == kNpos || m >= r.end) ? r.end : m + 1;
        continue;
      }
      if (t.punct(";")) {
        scan_statement(stmt, j, r.kind);
        stmt = j + 1;
      }
      ++j;
    }
    scan_statement(stmt, r.end, r.kind);
  }
}

void FileIndex::scan_statement(std::size_t begin, std::size_t end,
                               ScopeKind scope) {
  if (begin >= end) return;

  // Top-level tokens of the statement (extents hopped, markers kept).
  std::vector<std::size_t> top;
  for (std::size_t j = begin; j < end; ++j) {
    top.push_back(j);
    if (is_open(code_[j])) {
      std::size_t m = match(j);
      if (m == kNpos || m >= end) return;  // malformed; stay conservative
      top.push_back(m);
      j = m;
    }
  }
  if (top.empty()) return;
  if (starts_non_decl(code_[top[0]].text)) return;

  VarDecl decl;
  decl.scope = scope;
  bool seen_eq = false;
  std::size_t name_pos = kNpos;  // position within `top`
  int angle = 0;
  for (std::size_t k = 0; k < top.size() && !seen_eq; ++k) {
    const Token& t = code_[top[k]];
    if (t.punct("<") && k > 0 &&
        (code_[top[k - 1]].kind == TokenKind::kIdentifier ||
         code_[top[k - 1]].punct(">"))) {
      ++angle;
      continue;
    }
    if (t.punct(">") && angle > 0) {
      --angle;
      continue;
    }
    if (t.punct(">>") && angle > 0) {
      angle = angle >= 2 ? angle - 2 : 0;
      continue;
    }
    if (angle > 0) continue;
    if (t.punct("=")) {
      seen_eq = true;
      continue;
    }
    if (t.punct("(")) {
      // `ident(` anywhere at the top level means a function declaration,
      // a call, or a function-style initializer — none of which the
      // statement scanner tracks (documented miss: `static int x(3);`).
      if (k > 0 && code_[top[k - 1]].kind == TokenKind::kIdentifier) {
        return;
      }
      continue;
    }
    if (t.kind == TokenKind::kIdentifier) {
      const std::string& s = t.text;
      // `std::ostream& operator<<(...)`: the '(' test below cannot catch
      // it (the token before '(' is '<<'), so bail on the keyword itself.
      if (s == "operator") return;
      if (s == "static") decl.static_kw = true;
      if (s == "const" || s == "constexpr" || s == "constinit") {
        decl.is_const = true;
      }
      if (s == "thread_local") decl.is_thread_local = true;
      if (!is_qualifier(s)) name_pos = k;
      continue;
    }
  }
  if (name_pos == kNpos) return;

  // Everything left of the name is the type/declarator text.
  std::string type_text;
  bool has_type_ident = false;
  for (std::size_t k = 0; k < name_pos; ++k) {
    const Token& t = code_[top[k]];
    if (t.punct("*") || t.punct("&") || t.punct("&&")) decl.ptr_or_ref = true;
    if (t.kind == TokenKind::kIdentifier && !is_qualifier(t.text)) {
      has_type_ident = true;
    }
    if (t.punct(".") || t.punct("->") || t.punct("++") || t.punct("--") ||
        t.punct("!") || t.punct(")")) {
      return;  // expression statement, not a declaration
    }
    if (!type_text.empty()) type_text += ' ';
    type_text += t.text;
  }
  if (!has_type_ident) return;

  decl.name = code_[top[name_pos]].text;
  decl.type_text = type_text;
  decl.name_idx = top[name_pos];
  decl.line = code_[top[name_pos]].line;
  var_decls_.push_back(decl);

  if (type_text.find("unordered_map") != std::string::npos ||
      type_text.find("unordered_set") != std::string::npos ||
      type_text.find("unordered_multimap") != std::string::npos ||
      type_text.find("unordered_multiset") != std::string::npos) {
    unordered_names_.insert(decl.name);
  }
  for (std::size_t k = 0; k < name_pos; ++k) {
    const std::string& s = code_[top[k]].text;
    if (s == "Duration" || s == "SimTime") {
      unit_typed_[decl.name] = "us";
    } else if (s == "Ttl") {
      unit_typed_[decl.name] = "s";
    } else if (s == "Time" && k >= 2 && code_[top[k - 2]].ident("sim")) {
      unit_typed_[decl.name] = "us";
    }
  }
}

std::vector<Param> FileIndex::parse_params(std::size_t open) const {
  std::vector<Param> params;
  std::size_t close = match(open);
  if (close == kNpos) return params;

  std::size_t item_begin = open + 1;
  auto flush = [&](std::size_t item_end) {
    if (item_begin >= item_end) return;
    Param p;
    std::size_t name_pos = kNpos;
    std::vector<std::size_t> top;
    for (std::size_t j = item_begin; j < item_end; ++j) {
      top.push_back(j);
      if (is_open(code_[j])) {
        std::size_t m = match(j);
        if (m == kNpos || m >= item_end) break;
        top.push_back(m);
        j = m;
      }
    }
    int angle = 0;
    for (std::size_t k = 0; k < top.size(); ++k) {
      const Token& t = code_[top[k]];
      if (t.punct("<") && k > 0 &&
          (code_[top[k - 1]].kind == TokenKind::kIdentifier ||
           code_[top[k - 1]].punct(">"))) {
        ++angle;
        continue;
      }
      if (t.punct(">") && angle > 0) {
        --angle;
        continue;
      }
      if (t.punct(">>") && angle > 0) {
        angle = angle >= 2 ? angle - 2 : 0;
        continue;
      }
      if (angle > 0) continue;
      if (t.punct("=")) break;  // default argument
      if (t.punct("*") || t.punct("&") || t.punct("&&")) p.ptr_or_ref = true;
      if (t.kind == TokenKind::kIdentifier && !is_qualifier(t.text)) {
        name_pos = k;
      }
    }
    if (name_pos == kNpos) return;
    p.name = code_[top[name_pos]].text;
    p.line = code_[top[name_pos]].line;
    for (std::size_t k = 0; k < name_pos; ++k) {
      if (code_[top[k]].punct("<") || code_[top[k]].punct(">")) continue;
      if (!p.type_text.empty()) p.type_text += ' ';
      p.type_text += code_[top[k]].text;
    }
    if (p.type_text.empty()) {
      // Unnamed parameter: the lone identifier is the type, not a name.
      p.type_text = p.name;
      p.name.clear();
    }
    params.push_back(std::move(p));
  };

  std::size_t j = open + 1;
  std::size_t item = j;
  while (j < close) {
    if (is_open(code_[j])) {
      std::size_t m = match(j);
      j = (m == kNpos || m >= close) ? close : m + 1;
      continue;
    }
    if (code_[j].punct(",")) {
      item_begin = item;
      flush(j);
      item = j + 1;
    }
    ++j;
  }
  item_begin = item;
  flush(close);
  return params;
}

void FileIndex::build_suppressions(const TokenList& all) {
  // rule -> whether a justification follows the closing parenthesis (up
  // to a further `//` or the `*/` of a block comment).
  auto harvest = [](const std::string& text,
                    std::map<std::string, bool>& rules) {
    for (const char* prefix : {"lint:allow(", "analyze:allow("}) {
      std::size_t at = 0;
      while ((at = text.find(prefix, at)) != std::string::npos) {
        std::size_t open = at + std::string(prefix).size();
        std::size_t close = text.find(')', open);
        if (close == std::string::npos) break;
        const std::string why =
            text.substr(close + 1, text.find("//", close) - close - 1);
        rules.emplace(text.substr(open, close - open),
                      why.find_first_not_of(" \t*/") != std::string::npos);
        at = close;
      }
    }
  };

  std::size_t last_code_line = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Token& t = all[i];
    if (t.kind != TokenKind::kComment) {
      if (t.kind != TokenKind::kPreproc) last_code_line = t.line;
      continue;
    }
    std::map<std::string, bool> rules;
    harvest(t.text, rules);
    if (rules.empty()) continue;
    std::vector<std::size_t> covered = {t.line};
    if (last_code_line != t.line) {
      // Comment-only line: the allow also covers the next code line.
      for (std::size_t n = i + 1; n < all.size(); ++n) {
        if (all[n].kind == TokenKind::kComment) continue;
        covered.push_back(all[n].line);
        break;
      }
    }
    for (const auto& [rule, justified] : rules) {
      for (std::size_t line : covered) allow_[line].insert(rule);
      allow_sites_.push_back({t.line, rule, covered, justified});
    }
  }
}

bool FileIndex::suppressed(std::size_t line, std::string_view rule) const {
  auto it = allow_.find(line);
  return it != allow_.end() &&
         it->second.count(std::string(rule)) > 0;
}

}  // namespace dnsttl::analysis
