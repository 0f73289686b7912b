#ifndef DNSTTL_AUTH_AUTH_SERVER_H
#define DNSTTL_AUTH_AUTH_SERVER_H

#include <memory>
#include <string>
#include <vector>

#include "auth/query_log.h"
#include "dns/message.h"
#include "dns/zone.h"
#include "net/network.h"
#include "sim/time.h"

namespace dnsttl::auth {

/// An authoritative DNS server: serves one or more zones, composes
/// referral/answer/negative responses per RFC 1034, and keeps a query log.
///
/// Zones are shared (std::shared_ptr) so an experiment can edit a zone at
/// runtime — renumber a server, change a TTL — and every serving replica
/// observes the change instantly, like a zone push.
class AuthServer : public net::DnsNode {
 public:
  /// @p ident is a human-readable identity ("original", "new", "a.nic.uy")
  /// used by experiment reports.
  explicit AuthServer(std::string ident) : ident_(std::move(ident)) {}

  void add_zone(std::shared_ptr<dns::Zone> zone) {
    zones_.push_back(std::move(zone));
  }

  /// Stops serving a zone (e.g. a secondary whose copy expired); returns
  /// false if the zone was not attached.
  bool remove_zone(const std::shared_ptr<dns::Zone>& zone) {
    for (auto it = zones_.begin(); it != zones_.end(); ++it) {
      if (*it == zone) {
        zones_.erase(it);
        return true;
      }
    }
    return false;
  }
  const std::vector<std::shared_ptr<dns::Zone>>& zones() const noexcept {
    return zones_;
  }

  const std::string& ident() const noexcept { return ident_; }

  /// An offline server never answers (clients time out) — used by the
  /// zurrundedu-offline experiment (§4.4).
  void set_online(bool online) noexcept { online_ = online; }
  bool online() const noexcept { return online_; }

  void set_logging(bool enabled) noexcept { logging_ = enabled; }
  QueryLog& log() noexcept { return log_; }
  const QueryLog& log() const noexcept { return log_; }

  /// Per-query constant server think time.
  void set_processing_delay(sim::Duration delay) noexcept {
    processing_delay_ = delay;
  }

  /// Round-robin rotation of multi-record answer sets (the DNS-based load
  /// balancing of the paper's §6.1: every response reorders the addresses
  /// so clients spread across them).
  void set_rotate_answers(bool enabled) noexcept { rotate_answers_ = enabled; }

  std::uint64_t queries_answered() const noexcept { return answered_; }

  std::optional<sim::Duration> serve(const dns::Message& query,
                                     net::Address client, sim::Time now,
                                     dns::Message& reply) override;

 private:
  /// The attached zone whose origin is the deepest ancestor of @p qname.
  const dns::Zone* best_zone(const dns::Name& qname) const;

  std::string ident_;
  std::vector<std::shared_ptr<dns::Zone>> zones_;
  bool online_ = true;
  bool logging_ = false;
  QueryLog log_;
  sim::Duration processing_delay_ = sim::microseconds(200);
  std::uint64_t answered_ = 0;
  bool rotate_answers_ = false;
  std::uint64_t rotation_counter_ = 0;
};

}  // namespace dnsttl::auth

#endif  // DNSTTL_AUTH_AUTH_SERVER_H
