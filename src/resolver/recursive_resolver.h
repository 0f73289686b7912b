#ifndef DNSTTL_RESOLVER_RECURSIVE_RESOLVER_H
#define DNSTTL_RESOLVER_RECURSIVE_RESOLVER_H

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "dns/message.h"
#include "dns/zone.h"
#include "net/network.h"
#include "resolver/config.h"
#include "resolver/root_hints.h"
#include "sim/time.h"

namespace dnsttl::resolver {

/// How one question was resolved at the resolver, before the stub-side
/// RTT is added by the network.
struct ResolutionSummary {
  sim::Duration elapsed{};       ///< upstream time consumed (0 = pure hit)
  bool answered_from_cache = false;
  bool answered_from_referral = false;  ///< parent-centric referral answer
  bool served_stale = false;
  int upstream_queries = 0;
};

/// A resolution with its response message.
struct ResolutionResult : ResolutionSummary {
  dns::Message response;
};

/// Tries per referral step, spread across the zone's servers; a
/// single-server zone gets plain retransmissions.
inline constexpr int kMaxServerAttempts = 3;

/// Referral-chain guard, well past any real delegation depth.
inline constexpr int kMaxIterations = 24;

/// Depth guard for nested NS-address and DNSKEY sub-resolutions.
inline constexpr int kMaxNsResolutionDepth = 6;

/// An iterative ("recursive" in DNS parlance) resolver with the policy knob
/// set from ResolverConfig.
///
/// The engine is one RFC 1034 §5.3.3 loop — find the closest enclosing
/// cached NS set, query a server, follow referrals, chase CNAMEs, resolve
/// out-of-bailiwick nameserver addresses via sub-resolution — and every
/// behavior the paper observes (§3 centricity, §4 bailiwick linkage, §4.4
/// stickiness, TTL capping, RFC 7706, serve-stale) is a configuration of
/// that single loop, so populations of differently-configured instances can
/// be compared on identical workloads.
class RecursiveResolver : public net::DnsNode {
 public:
  struct Stats {
    std::uint64_t client_queries = 0;
    std::uint64_t cache_answers = 0;
    std::uint64_t referral_answers = 0;
    std::uint64_t full_resolutions = 0;
    std::uint64_t upstream_queries = 0;
    std::uint64_t servfails = 0;
    // lint:allow(raw-time-param) event counter, not a time quantity
    std::uint64_t stale_answers = 0;
    // lint:allow(raw-time-param) event counter, not a time quantity
    std::uint64_t stale_refresh_answers = 0;  ///< stale served inside the
                                              ///< RFC 8767 refresh window,
                                              ///< upstream not retried
    std::uint64_t backoffs = 0;  ///< servers benched after repeat timeouts
    std::uint64_t prefetches = 0;
    std::uint64_t tcp_retries = 0;
    std::uint64_t validations = 0;
    std::uint64_t validation_failures = 0;
  };

  RecursiveResolver(std::string ident, ResolverConfig config,
                    net::Network& network, const RootHints& hints);

  /// Must be called once after the resolver is attached to the network so
  /// it knows its own address/location for upstream queries.
  void set_node_ref(net::NodeRef self) { self_ = self; }
  const net::NodeRef& node_ref() const noexcept { return self_; }

  /// Installs the RFC 7706 local root mirror (only used when
  /// config.local_root is set).
  void set_local_root_zone(std::shared_ptr<const dns::Zone> root) {
    local_root_zone_ = std::move(root);
  }

  const std::string& ident() const noexcept { return ident_; }
  const ResolverConfig& config() const noexcept { return config_; }
  const Stats& stats() const noexcept { return stats_; }
  cache::Cache& cache() noexcept { return cache_; }
  const cache::Cache& cache() const noexcept { return cache_; }

  /// Clears cache and sticky pins (fresh resolver).
  void flush();

  /// Resolves @p question at virtual time @p now into @p response
  /// (overwritten; typically a net::MessageLease's message, so a warm
  /// cache hit allocates nothing).  @p question must not live in
  /// @p response.
  ResolutionSummary resolve(const dns::Question& question, sim::Time now,
                            dns::Message& response);

  /// resolve() into a fresh message.
  ResolutionResult resolve(const dns::Question& question, sim::Time now) {
    ResolutionResult result;
    static_cast<ResolutionSummary&>(result) =
        resolve(question, now, result.response);
    return result;
  }

  /// net::DnsNode: stub-facing entry point.
  std::optional<sim::Duration> serve(const dns::Message& query,
                                     net::Address client, sim::Time now,
                                     dns::Message& reply) override;

 private:
  struct Context {
    sim::Duration elapsed{};
    int upstream_queries = 0;
    int depth = 0;  ///< sub-resolution / CNAME recursion depth
    /// Nameserver names whose address fetch is in flight (re-entrancy guard
    /// for authoritative address verification), borrowed from the frames
    /// that fetch them: one per sub-resolution level at most.
    std::array<const dns::Name*, kMaxNsResolutionDepth> fetching{};
    std::size_t fetching_count = 0;

    bool is_fetching(const dns::Name& name) const {
      for (std::size_t i = 0; i < fetching_count; ++i) {
        if (*fetching[i] == name) {
          return true;
        }
      }
      return false;
    }
  };

  /// A server to try, with the selection key rotate() sorts on.
  struct ServerCandidate {
    net::Address address;
    double srtt_ms = 0.0;  ///< filled by rotate() under srtt selection
  };
  /// One referral step's candidates, kept in an arena on the resolving
  /// frame's stack.
  using ServerList = std::pmr::vector<ServerCandidate>;

  /// Appends the cache-only answer to @p answers if the policy allows it
  /// (credibility threshold depends on centricity), chasing cached CNAME
  /// chains; returns false, with @p answers as it was, if there is none.
  bool answer_from_cache(const dns::Question& question, sim::Time now,
                         std::vector<dns::ResourceRecord>& answers);

  /// RFC 7706: answers root-zone questions from the local mirror into
  /// @p response; false (and @p response unspecified) if it cannot.
  bool answer_from_local_root(const dns::Question& question,
                              dns::Message& response);

  /// The RFC 1034 §5.3.3 loop: up to kMaxIterations referral steps, each
  /// trying up to kMaxServerAttempts candidates of the closest enclosing
  /// zone; chases CNAMEs and follows referrals.  Writes the reply into
  /// @p response (overwritten).  NS-address and DNSKEY sub-resolutions
  /// re-enter it with a deeper @p ctx, prefetch with a fresh one.
  void resolve_iterative(const dns::Question& question, sim::Time now,
                         Context& ctx, dns::Message& response);

  /// Finds the deepest zone at or below @p floor with usable cached NS +
  /// address data, walking up from @p qname; fills @p servers (already
  /// rotated/pinned per config) and returns the zone, or falls back to the
  /// root hints.  With the local-root mirror, the walk that reaches the
  /// root caches the TLD delegation and re-walks with the TLD as floor.
  dns::Name find_servers(const dns::Name& qname, sim::Time now, Context& ctx,
                         ServerList& servers,
                         const dns::Name& floor = dns::Name{});

  /// Collects usable addresses for one NS RRset (borrowed from the
  /// cache); triggers glue verification and sub-resolution per policy.
  /// Returns true if any server was found.
  bool collect_addresses(const dns::RRset& ns, sim::Time now, Context& ctx,
                         ServerList& servers);

  /// Applies smoothed-RTT sorting and round-robin rotation per config.
  /// @p now lets the sort penalize servers currently benched by the
  /// exponential-backoff policy so selection routes around them.  Each
  /// candidate's key is computed once, then the sort is stable on it.
  void rotate(ServerList& servers, sim::Time now);

  /// Resolves an out-of-bailiwick nameserver address via sub-resolution.
  std::optional<net::Address> resolve_ns_address(const dns::Name& ns_name,
                                                 sim::Time now, Context& ctx);

  /// The ancestor zone whose NS set names @p owner as a target, if any —
  /// the NS RRset the owner's address cache entry should be linked to.
  std::optional<dns::Name> linked_ns_owner_for(const dns::Name& owner,
                                               sim::Time now);

  /// Stores a negative answer per RFC 2308 (TTL from the SOA).
  void cache_negative(const dns::Message& response,
                      const dns::Question& question, sim::Time now);

  /// DNSSEC-lite: verifies the answer RRset's RRSIG against the signer's
  /// DNSKEY (fetched from the child zone if not cached).  Returns false
  /// for bogus data; unsigned data is accepted as insecure.
  bool validate_answer(const dns::Message& response,
                       const dns::Question& question, sim::Time now,
                       Context& ctx);

  /// Pre-expiry background refresh of a just-hit cache entry.
  void maybe_prefetch(const dns::Question& question, sim::Time now);

  /// Caches the sections of @p response received from a server for
  /// delegation @p zone; returns the child zone cut if it was a referral.
  std::optional<dns::Name> ingest_response(const dns::Message& response,
                                           const dns::Name& zone,
                                           sim::Time now);

  /// Parent-centric shortcut: appends to @p answers the records of a
  /// referral's authority/additional sections that answer the question;
  /// false if they do not cover it.
  static bool answer_from_referral(const dns::Question& question,
                                   const dns::Message& referral,
                                   std::vector<dns::ResourceRecord>& answers);

  /// Makes @p response the NOERROR reply carrying the records already in
  /// its answer section, TTLs clamped to [min_ttl, max_ttl].
  void positive_response(const dns::Question& question,
                         dns::Message& response) const;

  cache::Credibility answer_threshold() const;

  std::string ident_;
  ResolverConfig config_;
  net::Network& network_;
  /// The root servers' addresses from the hints: all the walk reads of
  /// them, so their names are not kept.
  std::vector<net::Address> root_addresses_;
  net::NodeRef self_;
  cache::Cache cache_;
  std::shared_ptr<const dns::Zone> local_root_zone_;
  Stats stats_;
  std::uint16_t next_id_ = 1;
  std::uint64_t rotate_counter_ = 0;

  /// Per-server health: BIND-style smoothed RTT plus the exponential
  /// backoff state that benches repeat-timeout servers.
  struct ServerHealth {
    double srtt_ms = 10.0;  ///< optimistic default so new servers get tried
    sim::Time backoff_until{};     ///< benched while now < backoff_until
    int consecutive_timeouts = 0;  ///< reset by any successful exchange
    // lint:allow(raw-time-param) a count of doublings, not a time quantity
    std::uint8_t backoff_level = 0;  ///< doublings applied so far
    bool srtt_seeded = false;      ///< first sample replaces the default
  };

  /// Health records by server address: open addressing with linear
  /// probing in one flat array (no node per server), load at most 3/4.
  class HealthTable {
   public:
    /// The record of @p address, or nullptr if it was never contacted.
    const ServerHealth* find(net::Address address) const noexcept;
    /// The record of @p address, inserted with defaults if absent.
    ServerHealth& get(net::Address address);

   private:
    struct Slot {
      ServerHealth health;
      std::uint32_t address = 0;
      bool used = false;
    };
    /// Index of @p address's slot, or of the free slot ending its probe.
    std::size_t slot_of(std::uint32_t address) const noexcept;

    std::vector<Slot> slots_;  ///< power-of-two size, or empty
    std::size_t size_ = 0;
  };
  /// Effective selection metric: srtt, pushed to the back of the order
  /// while the server is benched.
  double selection_srtt_ms(net::Address address, sim::Time now) const;
  /// Feeds one exchange result into the health record (EWMA srtt, timeout
  /// counting, benching); @p now is the virtual time the verdict landed.
  void record_exchange(net::Address address, sim::Duration elapsed,
                       bool answered, sim::Time now);

  HealthTable server_health_;
  /// RFC 8767 stale-refresh suppression: question -> end of the window in
  /// which stale answers are served without re-trying upstreams.
  std::map<std::pair<dns::Name, dns::RRType>, sim::Time> stale_refresh_until_;
  bool prefetching_ = false;  ///< re-entrancy guard for maybe_prefetch
  /// Sticky pins (§4.4): zone -> address of the first server that
  /// answered it authoritatively; find_servers() then offers only it.
  std::map<dns::Name, net::Address> sticky_pins_;
};

}  // namespace dnsttl::resolver

#endif  // DNSTTL_RESOLVER_RECURSIVE_RESOLVER_H
