#ifndef DNSTTL_RESOLVER_FORWARDER_H
#define DNSTTL_RESOLVER_FORWARDER_H

#include <cstdint>
#include <string>
#include <vector>

#include "net/network.h"

namespace dnsttl::resolver {

/// A forwarding resolver (home router / ISP frontend): it holds no cache of
/// its own and relays each query to one of several recursive backends.
///
/// Forwarders are how the simulator reproduces the paper's resolver
/// *infrastructure* effects (§4.4): a client behind a forwarder pool sees a
/// mix of answers ("cache fragmentation and use of different resolver
/// backends"), and the authoritative side sees more resolver addresses than
/// the client side (Table 3's 6.3k client-facing vs 13.1k authoritative-
/// facing resolvers).
class Forwarder : public net::DnsNode {
 public:
  enum class Selection : std::uint8_t {
    kRoundRobin,  ///< rotate per query (maximal fragmentation)
    kHashQname,   ///< stable per query name
  };

  Forwarder(std::string ident, net::Network& network,
            std::vector<net::Address> backends,
            Selection selection = Selection::kRoundRobin)
      : ident_(std::move(ident)),
        network_(network),
        backends_(std::move(backends)),
        selection_(selection) {}

  void set_node_ref(net::NodeRef self) { self_ = self; }
  const net::NodeRef& node_ref() const noexcept { return self_; }
  const std::string& ident() const noexcept { return ident_; }
  const std::vector<net::Address>& backends() const noexcept {
    return backends_;
  }

  std::optional<sim::Duration> serve(const dns::Message& query,
                                     net::Address client, sim::Time now,
                                     dns::Message& reply) override;

 private:
  std::string ident_;
  net::Network& network_;
  net::NodeRef self_;
  std::vector<net::Address> backends_;
  Selection selection_;
  std::uint64_t counter_ = 0;
};

}  // namespace dnsttl::resolver

#endif  // DNSTTL_RESOLVER_FORWARDER_H
