#include "analysis/dataflow.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

namespace dnsttl::analysis {

namespace {

bool unit_type_name(const std::string& s) {
  return s == "Duration" || s == "SimTime" || s == "Ttl" || s == "WireTtl";
}

bool allow_covers(const FileSummary& file, std::size_t line,
                  const std::string& rule) {
  auto it = file.allow_lines.find(line);
  return it != file.allow_lines.end() && it->second.count(rule) != 0;
}

class Dataflow {
 public:
  explicit Dataflow(const std::vector<FileSummary>& files)
      : files_(files), graph_(files) {
    for (const FileSummary& f : files_) by_path_[f.path] = &f;
    const auto& nodes = graph_.nodes();
    for (std::size_t id = 0; id < nodes.size(); ++id) {
      node_id_[nodes[id]] = id;
    }
    compute_output_depth();
    compute_unit_flow();
  }

  DataflowResult run() {
    for (const FileSummary& file : files_) {
      for (const FunctionSummary& fn : file.functions) {
        if (fn.is_shard_body) {
          rng_escape(file, fn);
          shard_escape(file, fn);
        }
        unordered_output_flow_ip(file, fn);
        raw_time_flow(file, fn);
      }
    }
    return std::move(result_);
  }

 private:
  using NodeParam = std::pair<std::size_t, std::string>;

  const FunctionSummary& node(std::size_t id) const {
    return *graph_.nodes()[id];
  }

  void add(const FileSummary& file, const std::string& rule,
           std::size_t line, std::string message, std::string excerpt) {
    Finding f{rule, file.path, line, std::move(message), std::move(excerpt)};
    if (allow_covers(file, line, rule)) {
      result_.suppressed.push_back(std::move(f));
    } else {
      result_.findings.push_back(std::move(f));
    }
  }

  /// Does `node(id)` draw from its parameter `param`, directly or through
  /// callees it forwards the parameter to (depth-bounded, cycle-safe)?
  bool draws_from_param(std::size_t id, const std::string& param,
                        std::size_t depth, std::set<NodeParam>& visited) {
    if (depth > kMaxCallDepth) return false;
    if (!visited.insert({id, param}).second) return false;
    const FunctionSummary& fn = node(id);
    if (fn.draws_from.count(param) != 0) return true;
    for (const CallSite& call : fn.calls) {
      for (std::size_t k = 0; k < call.args.size(); ++k) {
        if (call.args[k].head != param || call.args[k].forked) continue;
        for (std::size_t target : graph_.resolve(call)) {
          const FunctionSummary& callee = node(target);
          if (k >= callee.params.size()) continue;
          const ParamFacts& p = callee.params[k];
          if (p.name.empty() || p.is_const) continue;
          if (draws_from_param(target, p.name, depth + 1, visited)) {
            return true;
          }
        }
      }
      // Member draws on the forwarded stream: `rng.next()` in the callee
      // is covered above; `helper(rng)` where helper receives by value
      // cannot mutate the caller's stream, so const/value params stop the
      // walk (handled by the by-ref check at the rng-escape call site).
    }
    return false;
  }

  /// Does `node(id)` store its parameter `param` past the call (member /
  /// static / container), directly or through callees?
  bool stores_param(std::size_t id, const std::string& param,
                    std::size_t depth, std::set<NodeParam>& visited) {
    if (depth > kMaxCallDepth) return false;
    if (!visited.insert({id, param}).second) return false;
    const FunctionSummary& fn = node(id);
    if (fn.stored_params.count(param) != 0) return true;
    for (const CallSite& call : fn.calls) {
      for (std::size_t k = 0; k < call.args.size(); ++k) {
        if (call.args[k].head != param) continue;
        for (std::size_t target : graph_.resolve(call)) {
          const FunctionSummary& callee = node(target);
          if (k >= callee.params.size()) continue;
          const ParamFacts& p = callee.params[k];
          if (p.name.empty() || (!p.by_ref && !p.by_ptr)) continue;
          if (stores_param(target, p.name, depth + 1, visited)) return true;
        }
      }
    }
    return false;
  }

  /// output_depth_[id] = shortest call-chain distance to a function that
  /// writes output directly (0 = writes itself); absent = unreachable
  /// within kMaxCallDepth.
  void compute_output_depth() {
    const auto& nodes = graph_.nodes();
    // Forward edges caller -> callees, resolved once.
    std::vector<std::vector<std::size_t>> edges(nodes.size());
    for (std::size_t id = 0; id < nodes.size(); ++id) {
      std::set<std::size_t> targets;
      for (const CallSite& call : nodes[id]->calls) {
        for (std::size_t t : graph_.resolve(call)) targets.insert(t);
      }
      edges[id].assign(targets.begin(), targets.end());
    }
    for (std::size_t id = 0; id < nodes.size(); ++id) {
      if (nodes[id]->writes_output) output_depth_[id] = 0;
    }
    for (std::size_t round = 1; round <= kMaxCallDepth; ++round) {
      bool changed = false;
      for (std::size_t id = 0; id < nodes.size(); ++id) {
        if (output_depth_.count(id) != 0) continue;
        for (std::size_t t : edges[id]) {
          auto it = output_depth_.find(t);
          if (it != output_depth_.end() && it->second < round) {
            output_depth_[id] = round;
            changed = true;
            break;
          }
        }
      }
      if (!changed) break;
    }
  }

  /// unit_flow_: (node, param index) pairs whose raw-integer parameter
  /// reaches a Duration/SimTime/Ttl construction, directly (lexical seed
  /// from the summary) or via forwarding through callees.
  void compute_unit_flow() {
    const auto& nodes = graph_.nodes();
    for (std::size_t id = 0; id < nodes.size(); ++id) {
      const FunctionSummary& fn = *nodes[id];
      for (std::size_t i = 0; i < fn.params.size(); ++i) {
        if (fn.params[i].raw_int &&
            fn.unit_ctor_flow.count(fn.params[i].name) != 0) {
          unit_flow_.insert({id, i});
        }
      }
    }
    for (std::size_t round = 1; round <= kMaxCallDepth; ++round) {
      bool changed = false;
      for (std::size_t id = 0; id < nodes.size(); ++id) {
        const FunctionSummary& fn = *nodes[id];
        for (const CallSite& call : fn.calls) {
          if (unit_type_name(call.callee) || unit_type_name(call.qualifier)) {
            continue;  // explicit construction, seeded lexically already
          }
          for (std::size_t k = 0; k < call.args.size(); ++k) {
            const std::string& head = call.args[k].head;
            if (head.empty()) continue;
            for (std::size_t i = 0; i < fn.params.size(); ++i) {
              if (fn.params[i].name != head || !fn.params[i].raw_int) {
                continue;
              }
              if (unit_flow_.count({id, i}) != 0) continue;
              for (std::size_t target : graph_.resolve(call)) {
                if (unit_flow_.count({target, k}) != 0) {
                  unit_flow_.insert({id, i});
                  changed = true;
                  break;
                }
              }
            }
          }
        }
      }
      if (!changed) break;
    }
  }

  // ------------------------------------------------------------- rules

  void rng_escape(const FileSummary& file, const FunctionSummary& fn) {
    for (const CallSite& call : fn.calls) {
      for (std::size_t k = 0; k < call.args.size(); ++k) {
        const CallArg& arg = call.args[k];
        if (arg.head.empty() || arg.forked) continue;
        const bool rng_head =
            rng_ish_name(arg.head) || fn.rng_locals.count(arg.head) != 0;
        if (!rng_head || fn.forked.count(arg.head) != 0) continue;
        for (std::size_t target : graph_.resolve(call)) {
          const FunctionSummary& callee = node(target);
          if (k >= callee.params.size()) continue;
          const ParamFacts& p = callee.params[k];
          if (!p.rng || p.is_const || (!p.by_ref && !p.by_ptr)) continue;
          std::set<NodeParam> visited;
          if (!draws_from_param(target, p.name, 1, visited)) continue;
          add(file, "rng-escape", call.line,
              "unforked RNG '" + arg.head + "' passed by mutable reference "
              "into '" + call.callee + "', which draws from it inside a "
              "shard body; fork a per-shard stream before the call "
              "(rng.fork(shard))",
              call.callee + "(" + arg.head + ")");
          break;  // one finding per argument is enough
        }
      }
    }
  }

  void shard_escape(const FileSummary& file, const FunctionSummary& fn) {
    for (const EscapedLocal& esc : fn.escaped_locals) {
      add(file, "shard-escape", esc.line,
          std::string("address of shard-local '") + esc.name +
              (esc.via_return ? "' returned from" : "' stored past") +
              " the shard body; shard state must not outlive its shard",
          std::string(esc.via_return ? "return &" : "= &") + esc.name);
    }
    for (const CallSite& call : fn.calls) {
      for (std::size_t k = 0; k < call.args.size(); ++k) {
        const CallArg& arg = call.args[k];
        if (arg.head.empty() || fn.locals.count(arg.head) == 0) continue;
        for (std::size_t target : graph_.resolve(call)) {
          const FunctionSummary& callee = node(target);
          if (k >= callee.params.size()) continue;
          const ParamFacts& p = callee.params[k];
          if (p.name.empty()) continue;
          // The callee can only retain the local if it sees a reference
          // or pointer to it.
          if (!arg.address_of && !p.by_ref && !p.by_ptr) continue;
          std::set<NodeParam> visited;
          if (!stores_param(target, p.name, 1, visited)) continue;
          add(file, "shard-escape", call.line,
              "shard-local '" + arg.head + "' escapes through '" +
                  call.callee + "', which stores the reference past the "
                  "shard body",
              call.callee + "(&" + arg.head + ")");
          break;
        }
      }
    }
  }

  void unordered_output_flow_ip(const FileSummary& file,
                                const FunctionSummary& fn) {
    for (const CallSite& call : fn.calls) {
      if (!call.in_unordered_loop) continue;
      // Direct output callees are the intraprocedural rule's territory.
      if (output_callee_names().count(call.callee) != 0) continue;
      for (std::size_t target : graph_.resolve(call)) {
        auto it = output_depth_.find(target);
        if (it == output_depth_.end()) continue;
        add(file, "unordered-output-flow-ip", call.line,
            "iteration over an unordered container reaches output through "
            "'" + call.callee + "' (" +
                std::to_string(it->second + 1) +
                " call(s) deep); order the keys before emitting",
            call.callee + "() in unordered loop");
        break;
      }
    }
  }

  void raw_time_flow(const FileSummary& file, const FunctionSummary& fn) {
    // Findings only at the origin of the raw value (a literal or a raw-int
    // local): forwarded parameters propagate taint via unit_flow_ instead,
    // so a wrapper chain reports once at the point the number enters it.
    for (const CallSite& call : fn.calls) {
      if (unit_type_name(call.callee) || unit_type_name(call.qualifier)) {
        continue;  // Duration::micros(123) is the sanctioned spelling
      }
      for (std::size_t k = 0; k < call.args.size(); ++k) {
        const CallArg& arg = call.args[k];
        const bool literal_origin = arg.is_literal;
        const bool local_origin =
            !arg.head.empty() && fn.raw_int_locals.count(arg.head) != 0;
        if (!literal_origin && !local_origin) continue;
        for (std::size_t target : graph_.resolve(call)) {
          if (unit_flow_.count({target, k}) == 0) continue;
          const std::string what =
              literal_origin ? "literal" : "'" + arg.head + "'";
          add(file, "raw-time-flow", call.line,
              "raw integer " + what + " crosses into '" + call.callee +
                  "', where it is wrapped into a Duration/Ttl; construct "
                  "the strong type at the origin instead",
              call.callee + "(" + (literal_origin ? "<literal>" : arg.head) +
                  " @" + std::to_string(k) + ")");
          break;
        }
      }
    }
  }

  const std::vector<FileSummary>& files_;
  CallGraph graph_;
  std::map<std::string, const FileSummary*> by_path_;
  std::map<const FunctionSummary*, std::size_t> node_id_;
  std::map<std::size_t, std::size_t> output_depth_;
  std::set<std::pair<std::size_t, std::size_t>> unit_flow_;
  DataflowResult result_;
};

}  // namespace

DataflowResult run_dataflow(const std::vector<FileSummary>& files) {
  return Dataflow(files).run();
}

}  // namespace dnsttl::analysis
