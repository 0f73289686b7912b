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

std::optional<sim::Duration> AuthServer::serve(const dns::Message& query,
                                              net::Address client,
                                              sim::Time now,
                                              dns::Message& response) {
  if (!online_) {
    return std::nullopt;
  }
  response.set_response(query);
  if (query.questions.empty()) {
    response.flags.rcode = dns::Rcode::kFormErr;
    return processing_delay_;
  }

  const auto& question = query.question();
  if (logging_) {
    log_.record(LogEntry{now, question.qname, client, question.qtype});
  }
  ++answered_;
  response.flags.ra = false;  // authoritative servers offer no recursion

  const dns::Zone* zone = best_zone(question.qname);
  if (zone == nullptr) {
    response.flags.rcode = dns::Rcode::kRefused;
    return processing_delay_;
  }

  using Kind = dns::LookupResult::Kind;
  switch (zone->lookup(question.qname, question.qtype, response)) {
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
      return processing_delay_;
  }

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
  return processing_delay_;
}

}  // namespace dnsttl::auth
