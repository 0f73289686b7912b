#include "net/network.h"

#include "dns/wire.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace dnsttl::net {

Address Network::allocate() {
  while (attachments_.contains(next_address_)) {
    ++next_address_;
  }
  return Address{next_address_++};
}

Address Network::attach(DnsNode& node, Location location,
                        std::optional<Address> fixed) {
  Address addr = fixed.value_or(Address{});
  if (!fixed) {
    addr = allocate();
  } else if (attachments_.contains(addr.value())) {
    throw std::invalid_argument("address already attached: " +
                                addr.to_string());
  }
  attachments_[addr.value()] = Attachment{{Site{&node, location}}};
  return addr;
}

Address Network::attach_anycast(
    std::vector<std::pair<DnsNode*, Location>> sites,
    std::optional<Address> fixed) {
  if (sites.empty()) {
    throw std::invalid_argument("anycast service needs at least one site");
  }
  Address addr = fixed.value_or(Address{});
  if (!fixed) {
    addr = allocate();
  } else if (attachments_.contains(addr.value())) {
    throw std::invalid_argument("address already attached: " +
                                addr.to_string());
  }
  Attachment attachment;
  for (auto& [node, location] : sites) {
    attachment.sites.push_back(Site{node, location});
  }
  attachments_[addr.value()] = std::move(attachment);
  return addr;
}

void Network::detach(Address address) { attachments_.erase(address.value()); }

void Network::add_outage(Address server, sim::Time from, sim::Time until) {
  if (until < from) {
    throw std::invalid_argument("outage window ends before it starts: " +
                                server.to_string());
  }
  outages_.push_back(Outage{server, from, until});
}

bool Network::is_attached(Address address) const {
  return attachments_.contains(address.value());
}

std::size_t Network::site_count(Address address) const {
  auto it = attachments_.find(address.value());
  return it == attachments_.end() ? 0 : it->second.sites.size();
}

QueryOutcome Network::query(const NodeRef& from, Address to,
                            const dns::Message& query_msg, sim::Time now,
                            Transport transport) {
  dns::Message reply;
  const ExchangeResult result =
      exchange(from, to, query_msg, now, reply, transport);
  return QueryOutcome{result.answered ? std::optional(std::move(reply))
                                      : std::nullopt,
                      result.elapsed};
}

ExchangeResult Network::exchange(const NodeRef& from, Address to,
                                 const dns::Message& query_msg, sim::Time now,
                                 dns::Message& reply, Transport transport) {
  constexpr ExchangeResult kTimeout{false, kQueryTimeout};
  reply.clear();
  ++carried_;
  auto it = attachments_.find(to.value());
  if (it == attachments_.end()) {
    // Nothing listening: the query is silently dropped; the caller waits
    // out its timeout, exactly like querying a decommissioned server.
    return kTimeout;
  }

  // Anycast site selection: stable lowest-expected-RTT routing.
  const Site* chosen = nullptr;
  sim::Duration best = sim::Duration::max();
  for (const auto& site : it->second.sites) {
    sim::Duration expected = latency_.expected_rtt(from.location, site.location);
    if (expected < best) {
      best = expected;
      chosen = &site;
    }
  }

  // A scripted outage is a deterministic timeout.  It is checked before
  // any RNG use, so an exchange it kills consumes no draws, exactly like
  // querying a detached address.
  for (const Outage& outage : outages_) {
    if (outage.server == to && outage.from <= now && now < outage.until) {
      ++outage_timeouts_;
      return kTimeout;
    }
  }

  // Loss is one gated draw.  The gate is the RNG-stream contract pinned by
  // net_test.cc: a zero rate must not burn a draw, so "loss off" and "loss
  // on" runs share the latency stream up to the first actual loss.
  if (params_.loss_rate > 0.0 && rng_.chance(params_.loss_rate)) {
    return kTimeout;
  }

  sim::Duration rtt = latency_.rtt(from.location, chosen->location, rng_);
  if (transport == Transport::kTcp) {
    rtt *= 2;  // connection handshake before the query round trip
  }

  const auto processing =
      chosen->node->serve(query_msg, from.address, now + rtt / 2, reply);
  if (!processing) {
    return kTimeout;
  }

  // UDP size limit (RFC 1035 §4.2.1 / RFC 6891): without EDNS the classic
  // 512-byte ceiling applies; with it, the advertised size capped by the
  // path limit.  Oversized responses are truncated — the header survives
  // with TC=1, the sections do not.
  std::size_t udp_limit = 512;
  if (auto advertised = query_msg.edns_udp_size()) {
    udp_limit = std::min<std::size_t>(*advertised, kUdpPayloadLimit);
  }
  if (params_.exercise_wire_codec) {
    auto decoded = dns::decode(dns::encode(reply));
    if (decoded != reply) {
      throw std::logic_error(
          "wire codec round trip changed a response for " +
          (query_msg.questions.empty()
               ? std::string("<no question>")
               : query_msg.question().to_string()));
    }
    reply = std::move(decoded);
  }

  // A compression pointer never makes a name longer, so a reply whose
  // uncompressed size fits needs no exact (compressing) count.
  if (transport == Transport::kUdp &&
      dns::uncompressed_size(reply) > udp_limit &&
      dns::encoded_size(reply) > udp_limit) {
    reply.flags.tc = true;
    reply.answers.clear();
    reply.authorities.clear();
    reply.additionals.clear();
  }
  return ExchangeResult{true, rtt + *processing};
}

}  // namespace dnsttl::net
