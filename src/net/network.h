#ifndef DNSTTL_NET_NETWORK_H
#define DNSTTL_NET_NETWORK_H

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dns/message.h"
#include "dns/rdata.h"
#include "net/latency.h"
#include "net/location.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace dnsttl::net {

/// Node addresses are IPv4 values from the dns library (one address space
/// shared by servers, resolvers and probes).
using Address = dns::Ipv4;

/// What a server hands back for one query: the response message plus the
/// server-side time consumed producing it (zero for authoritative lookups;
/// for a recursive resolver, the full upstream resolution time on a cache
/// miss).
struct ServerReply {
  dns::Message message;
  sim::Duration processing{};
};

/// Anything attached to the network that answers DNS queries.
class DnsNode {
 public:
  virtual ~DnsNode() = default;

  /// Answers @p query arriving from @p client at virtual time @p now by
  /// filling @p reply, which arrives empty (as after Message::clear(), so
  /// possibly with a recycled message's capacity).  Returns the server-side
  /// time consumed, or std::nullopt to model a dead/unresponsive server
  /// (the client sees a timeout and ignores @p reply).
  virtual std::optional<sim::Duration> serve(const dns::Message& query,
                                             Address client, sim::Time now,
                                             dns::Message& reply) = 0;

  /// serve() into a fresh message.
  std::optional<ServerReply> handle_query(const dns::Message& query,
                                          Address client, sim::Time now) {
    ServerReply reply;
    if (auto processing = serve(query, client, now, reply.message)) {
      reply.processing = *processing;
      return reply;
    }
    return std::nullopt;
  }
};

/// Identity of a sending node: its address (shown to servers, used by query
/// logs) and its location (used by the latency model and anycast routing).
struct NodeRef {
  Address address;
  Location location;
};

/// Result of one query exchange as seen by the sender.
struct QueryOutcome {
  std::optional<dns::Message> response;  ///< nullopt on timeout/loss
  sim::Duration elapsed{};  ///< wire RTT + server processing, or the
                              ///< timeout duration on loss
};

/// Result of one Network::exchange(): whether the reply message was
/// filled, and the time the exchange took (as in QueryOutcome).
struct ExchangeResult {
  bool answered = false;
  sim::Duration elapsed{};
};

class Network;

/// A dns::Message on loan from a Network's free list.  It arrives empty
/// (as after Message::clear()) with the section capacity of its earlier
/// uses, and goes back, emptied, when the lease ends, so a warm exchange
/// builds its query and reply without allocating.  Leases are scoped to
/// the code that sends or answers one exchange and must end before their
/// Network does.
class MessageLease {
 public:
  explicit MessageLease(Network& network);
  ~MessageLease();
  MessageLease(const MessageLease&) = delete;
  MessageLease& operator=(const MessageLease&) = delete;

  dns::Message& operator*() noexcept { return message_; }
  dns::Message* operator->() noexcept { return &message_; }

 private:
  Network& network_;
  dns::Message message_;
};

/// The message fabric: address allocation, unicast and anycast attachment,
/// latency/loss application, and synchronous query exchange.
///
/// Transmission model: a query either reaches a live server and produces a
/// response after rtt + processing, or is lost (probability `loss_rate`
/// per attempt, covering either direction) and costs the caller its timeout.
/// Retries are the caller's (resolver's) job, matching real DNS.
class Network {
 public:
  /// What a lost or unanswered query costs the caller: a 3 s
  /// retransmission timer, as in common stub and resolver defaults.
  static constexpr sim::Duration kQueryTimeout = 3 * sim::kSecond;

  /// UDP payload ceiling (EDNS, RFC 6891; 1232 is the DNS Flag Day 2020
  /// recommendation): larger responses are delivered truncated (TC=1,
  /// answer sections stripped) and the client must retry over TCP.
  static constexpr std::size_t kUdpPayloadLimit = 1232;

  struct Params {
    double loss_rate = 0.0;

    /// Push every response through the RFC 1035 wire codec (encode +
    /// decode) before delivery.  Costs CPU but guarantees that everything
    /// the experiments exchange is representable on the wire; throws
    /// std::logic_error if a round trip ever changes a message.
    bool exercise_wire_codec = false;
  };

  /// Transport for one query exchange.
  enum class Transport : std::uint8_t { kUdp, kTcp };

  explicit Network(sim::Rng rng) : rng_(rng) {}
  Network(sim::Rng rng, LatencyModel latency) : rng_(rng), latency_(latency) {}
  Network(sim::Rng rng, LatencyModel latency, Params params)
      : rng_(rng), latency_(latency), params_(params) {}

  /// Attaches a unicast node; allocates an address if @p fixed is not given.
  Address attach(DnsNode& node, Location location,
                 std::optional<Address> fixed = std::nullopt);

  /// Attaches an anycast service: one shared address, many (node, site)
  /// replicas; clients reach the site with the lowest expected RTT.
  Address attach_anycast(std::vector<std::pair<DnsNode*, Location>> sites,
                         std::optional<Address> fixed = std::nullopt);

  /// Detaches an address (server decommissioned); later queries time out.
  void detach(Address address);

  /// True if anything is attached at @p address.
  bool is_attached(Address address) const;

  /// Sends @p query_msg from node @p from to @p to, at time @p now, and
  /// fills @p reply (overwritten; typically a MessageLease's message) when
  /// an answer comes back.  UDP responses larger than the payload limit
  /// come back truncated (TC=1, sections stripped); retry with
  /// Transport::kTcp, which carries any size at the cost of one extra round
  /// trip (the handshake).  @p reply must not be @p query_msg.
  ExchangeResult exchange(const NodeRef& from, Address to,
                          const dns::Message& query_msg, sim::Time now,
                          dns::Message& reply,
                          Transport transport = Transport::kUdp);

  /// exchange() into a fresh message.
  QueryOutcome query(const NodeRef& from, Address to,
                     const dns::Message& query_msg, sim::Time now,
                     Transport transport = Transport::kUdp);

  /// Number of anycast sites behind @p address (1 for unicast).
  std::size_t site_count(Address address) const;

  /// Darkens @p server for the half-open window [@p from, @p until): an
  /// exchange sent to it then times out without reaching it, like a query to
  /// a detached address.  Throws std::invalid_argument when @p until is
  /// before @p from.
  ///
  /// RNG-stream contract: an exchange an outage kills consumes no draws, so
  /// "same seed, outage on/off" runs diverge only through what the outage
  /// changes (pinned by net_test.cc).
  void add_outage(Address server, sim::Time from, sim::Time until);

  /// Exchanges killed by an outage window.
  std::uint64_t outage_timeouts() const noexcept { return outage_timeouts_; }

  /// Total queries carried (attempts, including lost ones).
  std::uint64_t queries_carried() const noexcept { return carried_; }

 private:
  friend class MessageLease;

  struct Site {
    DnsNode* node = nullptr;
    Location location;
  };
  struct Attachment {
    std::vector<Site> sites;  // 1 for unicast, >1 for anycast
  };
  struct Outage {
    Address server;
    sim::Time from;
    sim::Time until;
  };

  Address allocate();

  sim::Rng rng_;
  LatencyModel latency_;
  Params params_;
  std::uint32_t next_address_ = 0x0a000001;  // 10.0.0.1
  std::unordered_map<std::uint32_t, Attachment> attachments_;
  std::uint64_t carried_ = 0;
  std::vector<Outage> outages_;
  // lint:allow(raw-time-param) event counter, not a time quantity
  std::uint64_t outage_timeouts_ = 0;
  /// Emptied messages that ended their lease, capacity kept: as many as
  /// were ever on loan at once (nested sub-resolutions included).
  std::vector<dns::Message> spare_messages_;
};

inline MessageLease::MessageLease(Network& network) : network_(network) {
  if (!network_.spare_messages_.empty()) {
    message_ = std::move(network_.spare_messages_.back());
    network_.spare_messages_.pop_back();
  }
}

inline MessageLease::~MessageLease() {
  message_.clear();
  network_.spare_messages_.push_back(std::move(message_));
}

}  // namespace dnsttl::net

#endif  // DNSTTL_NET_NETWORK_H
