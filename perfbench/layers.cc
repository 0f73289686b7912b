#include "layers.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "cache/cache.h"
#include "dns/wire.h"
#include "resolver/recursive_resolver.h"

namespace perfbench {
namespace {

constexpr std::size_t kRounds = 15;
/// A round repeats the inputs until it makes this many calls, so one
/// clock read is spread over enough work to be negligible.
constexpr std::size_t kMinCallsPerRound = 256;
constexpr std::size_t kColdCalls = 256;

/// Every timed result is folded in here, so no call can be optimised away.
volatile std::uint64_t g_sink = 0;

void sink(std::uint64_t value) { g_sink = g_sink + value; }

std::size_t passes_for(std::size_t inputs) {
  return std::max<std::size_t>(1, (kMinCallsPerRound + inputs - 1) / inputs);
}

/// Median over kRounds of (round time / calls in the round).  @p prepare
/// builds the round's untimed state; @p body makes the timed calls on it
/// and returns how many it made.
template <typename Prepare, typename Body>
double ns_per_call(Prepare&& prepare, Body&& body) {
  std::vector<double> per_call;
  for (std::size_t round = 0; round < kRounds; ++round) {
    auto state = prepare();
    const auto start = Clock::now();
    const std::size_t calls = body(state);
    per_call.push_back(seconds_since(start) * 1e9 /
                       static_cast<double>(calls));
  }
  return median(std::move(per_call));
}

int no_state() { return 0; }

/// One cache write the workload's replies imply: a positive answer RRset,
/// or a negative entry for a reply without one.
struct CacheOp {
  dns::Question question;
  std::optional<dns::RRset> rrset;
  dns::Rcode rcode = dns::Rcode::kNoError;
  dns::Ttl ttl{300};
};

CacheOp cache_op_for(const dns::Question& question, const dns::Message& reply) {
  CacheOp op{question, reply.answer_rrset(question.qname, question.qtype),
             reply.flags.rcode, dns::Ttl{300}};
  for (const auto& rr : reply.authorities) {
    if (rr.type() == dns::RRType::kSOA) op.ttl = rr.ttl;
  }
  return op;
}

void apply(cache::Cache& cache, const CacheOp& op, sim::Time now) {
  if (op.rrset) {
    cache.insert(*op.rrset, cache::Credibility::kAuthAnswer, now);
  } else {
    cache.insert_negative(op.question.qname, op.question.qtype, op.rcode,
                          op.ttl, now);
  }
}

bool lookup(cache::Cache& cache, const CacheOp& op, sim::Time now) {
  return op.rrset
             ? cache.lookup(op.question.qname, op.question.qtype, now)
                   .has_value()
             : cache.lookup_negative(op.question.qname, op.question.qtype, now)
                   .has_value();
}

}  // namespace

void time_layers(const LayerInputs& inputs, Tally& out) {
  const auto& questions = inputs.questions;
  if (questions.empty() || inputs.world == nullptr || inputs.zone == nullptr ||
      inputs.server == nullptr) {
    throw std::invalid_argument("time_layers: incomplete inputs");
  }
  core::World& world = *inputs.world;
  net::Network& network = world.network();
  const sim::Time now = world.simulation().now();
  const net::Location location{net::Region::kEU, 1.0};
  const net::NodeRef client{dns::Ipv4(10, 250, 0, 1), location};
  const std::size_t passes = passes_for(questions.size());
  const std::size_t calls = passes * questions.size();

  // --- dns: names -------------------------------------------------------
  std::vector<std::string> texts;
  for (const auto& q : questions) texts.push_back(q.qname.to_string());
  out["dns.name_parse_ns"] = ns_per_call(no_state, [&](int) {
    std::uint64_t h = 0;
    for (std::size_t p = 0; p < passes; ++p) {
      for (const auto& text : texts) h ^= dns::Name::from_string(text).hash();
    }
    sink(h);
    return calls;
  });

  // --- dns: zone --------------------------------------------------------
  const dns::Zone& zone = *inputs.zone;
  out["dns.zone_rrsets"] = static_cast<double>(zone.rrset_count());
  std::vector<dns::ResourceRecord> records;
  for (const auto& rrset : zone.all_rrsets()) {
    for (auto& rr : rrset.to_records()) records.push_back(std::move(rr));
  }
  const std::size_t zone_copies = passes_for(records.size());
  out["dns.zone_add_ns"] = ns_per_call(
      [&] { return std::vector<dns::Zone>(zone_copies, dns::Zone(zone.origin())); },
      [&](std::vector<dns::Zone>& fresh) {
        for (auto& copy : fresh) {
          for (const auto& rr : records) copy.add(rr);
        }
        return fresh.size() * records.size();
      });
  out["dns.zone_lookup_ns"] = ns_per_call(no_state, [&](int) {
    std::size_t found = 0;
    for (std::size_t p = 0; p < passes; ++p) {
      for (const auto& q : questions) {
        found += zone.lookup(q.qname, q.qtype).answers.size();
      }
    }
    sink(found);
    return calls;
  });

  // --- auth -------------------------------------------------------------
  std::vector<dns::Message> queries;
  for (std::size_t i = 0; i < questions.size(); ++i) {
    auto query = dns::Message::make_query(
        static_cast<std::uint16_t>(i + 1), questions[i].qname,
        questions[i].qtype, /*recursion_desired=*/false);
    query.add_edns();
    queries.push_back(std::move(query));
  }
  std::vector<dns::Message> replies;
  for (const auto& query : queries) {
    auto reply = inputs.server->handle_query(query, client.address, now);
    if (!reply) throw std::runtime_error("server under test did not answer");
    replies.push_back(std::move(reply->message));
  }
  out["auth.handle_query_ns"] = ns_per_call(no_state, [&](int) {
    std::size_t answered = 0;
    for (std::size_t p = 0; p < passes; ++p) {
      for (const auto& query : queries) {
        answered += inputs.server->handle_query(query, client.address, now)
                        .has_value();
      }
    }
    sink(answered);
    return calls;
  });

  // --- dns: wire --------------------------------------------------------
  std::vector<std::vector<std::uint8_t>> wires;
  for (const auto& reply : replies) wires.push_back(dns::encode(reply));
  out["dns.encode_ns"] = ns_per_call(no_state, [&](int) {
    std::size_t bytes = 0;
    for (std::size_t p = 0; p < passes; ++p) {
      for (const auto& reply : replies) bytes += dns::encode(reply).size();
    }
    sink(bytes);
    return calls;
  });
  out["dns.decode_ns"] = ns_per_call(no_state, [&](int) {
    std::size_t records_read = 0;
    for (std::size_t p = 0; p < passes; ++p) {
      for (const auto& wire : wires) {
        records_read += dns::decode(wire).answers.size();
      }
    }
    sink(records_read);
    return calls;
  });
  out["dns.encoded_size_ns"] = ns_per_call(no_state, [&](int) {
    std::size_t bytes = 0;
    for (std::size_t p = 0; p < passes; ++p) {
      for (const auto& reply : replies) bytes += dns::encoded_size(reply);
    }
    sink(bytes);
    return calls;
  });

  // --- net: one resolver-to-auth exchange -------------------------------
  out["net.query_ns"] = ns_per_call(no_state, [&](int) {
    std::size_t answered = 0;
    for (std::size_t p = 0; p < passes; ++p) {
      for (const auto& query : queries) {
        answered += network.query(client, inputs.server_address, query, now)
                        .response.has_value();
      }
    }
    sink(answered);
    return calls;
  });

  // --- resolver: a default-configured resolver on the workload's network -
  resolver::RecursiveResolver probe("perfbench-resolver",
                                    resolver::ResolverConfig{}, network,
                                    world.hints());
  const auto probe_address = network.attach(probe, location);
  probe.set_node_ref(net::NodeRef{probe_address, location});
  std::vector<double> cold;
  for (std::size_t i = 0; i < kColdCalls; ++i) {
    probe.flush();
    const auto start = Clock::now();
    auto result = probe.resolve(questions[i % questions.size()], now);
    cold.push_back(seconds_since(start) * 1e9);
    sink(static_cast<std::uint64_t>(result.upstream_queries));
  }
  out["resolver.cold_resolve_ns"] = median(std::move(cold));
  // Warm: the questions the primed resolver then answers from its cache
  // (a few crawl answers point at names that never resolve, and are
  // re-walked on every call).
  for (const auto& q : questions) probe.resolve(q, now);
  std::vector<dns::Question> cached;
  for (const auto& q : questions) {
    if (probe.resolve(q, now).answered_from_cache) cached.push_back(q);
  }
  if (cached.empty()) throw std::runtime_error("no question resolves warm");
  const std::size_t warm_passes = passes_for(cached.size());
  out["resolver.warm_resolve_ns"] = ns_per_call(no_state, [&](int) {
    std::size_t hits = 0;
    for (std::size_t p = 0; p < warm_passes; ++p) {
      for (const auto& q : cached) {
        hits += probe.resolve(q, now).answered_from_cache;
      }
    }
    sink(hits);
    return warm_passes * cached.size();
  });
  network.detach(probe_address);

  // --- cache: the writes and reads the workload's replies imply ---------
  std::vector<CacheOp> ops;
  for (std::size_t i = 0; i < questions.size(); ++i) {
    ops.push_back(cache_op_for(questions[i], replies[i]));
  }
  out["cache.insert_ns"] = ns_per_call(
      [&] { return std::vector<cache::Cache>(passes); },
      [&](std::vector<cache::Cache>& caches) {
        for (auto& cache : caches) {
          for (const auto& op : ops) apply(cache, op, now);
        }
        return caches.size() * ops.size();
      });
  cache::Cache filled;
  for (const auto& op : ops) apply(filled, op, now);
  out["cache.lookup_ns"] = ns_per_call(no_state, [&](int) {
    std::size_t hits = 0;
    for (std::size_t p = 0; p < passes; ++p) {
      for (const auto& op : ops) hits += lookup(filled, op, now);
    }
    sink(hits);
    return calls;
  });
}

}  // namespace perfbench
