#include "auth/auth_server.h"

#include <algorithm>
#include <unordered_set>

namespace dnsttl::auth {

std::size_t QueryLog::unique_clients() const {
  std::unordered_set<std::uint32_t> clients;
  for (const auto& entry : entries_) {
    clients.insert(entry.client.value());
  }
  return clients.size();
}

const dns::Zone* AuthServer::best_zone(const dns::Name& qname) const {
  const dns::Zone* best = nullptr;
  std::size_t best_depth = 0;
  for (const auto& zone : zones_) {
    if (!qname.is_subdomain_of(zone->origin())) {
      continue;
    }
    std::size_t depth = zone->origin().label_count() + 1;  // +1: root matches
    if (best == nullptr || depth > best_depth) {
      best = zone.get();
      best_depth = depth;
    }
  }
  return best;
}

std::optional<net::ServerReply> AuthServer::handle_query(
    const dns::Message& query, net::Address client, sim::Time now) {
  if (!online_) {
    return std::nullopt;
  }
  if (query.questions.empty()) {
    auto response = dns::Message::make_response(query);
    response.flags.rcode = dns::Rcode::kFormErr;
    return net::ServerReply{std::move(response), processing_delay_};
  }

  const auto& question = query.question();
  if (logging_) {
    log_.record(LogEntry{now, client, question.qname, question.qtype});
  }
  ++answered_;

  auto response = dns::Message::make_response(query);
  response.flags.rd = query.flags.rd;
  response.flags.ra = false;  // authoritative servers offer no recursion

  const dns::Zone* zone = best_zone(question.qname);
  if (zone == nullptr) {
    response.flags.rcode = dns::Rcode::kRefused;
    return net::ServerReply{std::move(response), processing_delay_};
  }

  auto result = zone->lookup(question.qname, question.qtype);
  using Kind = dns::LookupResult::Kind;
  switch (result.kind) {
    case Kind::kAnswer:
      response.flags.aa = true;
      break;
    case Kind::kDelegation:
      response.flags.aa = false;
      break;
    case Kind::kNxDomain:
      response.flags.aa = true;
      response.flags.rcode = dns::Rcode::kNXDomain;
      break;
    case Kind::kNoData:
      response.flags.aa = true;
      break;
    case Kind::kNotInZone:
      response.flags.rcode = dns::Rcode::kRefused;
      return net::ServerReply{std::move(response), processing_delay_};
  }
  response.answers = std::move(result.answers);
  response.authorities = std::move(result.authorities);
  response.additionals = std::move(result.additionals);

  if (rotate_answers_ && response.answers.size() > 1) {
    // Rotate the leading same-type run (the answer RRset proper), leaving
    // RRSIGs and chained records in place.
    std::size_t run = 1;
    while (run < response.answers.size() &&
           response.answers[run].type() == response.answers[0].type() &&
           response.answers[run].name == response.answers[0].name) {
      ++run;
    }
    if (run > 1) {
      std::rotate(response.answers.begin(),
                  response.answers.begin() +
                      static_cast<long>(++rotation_counter_ % run),
                  response.answers.begin() + static_cast<long>(run));
    }
  }
  return net::ServerReply{std::move(response), processing_delay_};
}

}  // namespace dnsttl::auth
