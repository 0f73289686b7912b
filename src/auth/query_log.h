#ifndef DNSTTL_AUTH_QUERY_LOG_H
#define DNSTTL_AUTH_QUERY_LOG_H

#include <cstdint>
#include <vector>

#include "dns/name.h"
#include "dns/types.h"
#include "net/network.h"
#include "sim/time.h"

namespace dnsttl::auth {

/// One logged query at an authoritative server — the fields the paper's
/// ENTRADA warehouse analysis (§3.4) uses: arrival time, query name,
/// resolver source address and query type.  Widest first, so the address
/// and type share the last word.
struct LogEntry {
  sim::Time time{};
  dns::Name qname;
  net::Address client;
  dns::RRType qtype = dns::RRType::kA;
};
static_assert(sizeof(LogEntry) == 64, "time, name, address and type");

/// Append-only query log, the simulator's stand-in for packet capture +
/// ENTRADA at `.nl`'s authoritative servers.
class QueryLog {
 public:
  void record(LogEntry entry) { entries_.push_back(std::move(entry)); }

  const std::vector<LogEntry>& entries() const noexcept { return entries_; }
  std::size_t size() const noexcept { return entries_.size(); }
  void clear() { entries_.clear(); }

  /// Count of distinct client addresses seen.
  std::size_t unique_clients() const;

 private:
  std::vector<LogEntry> entries_;
};

}  // namespace dnsttl::auth

#endif  // DNSTTL_AUTH_QUERY_LOG_H
