#ifndef DNSTTL_RESOLVER_CONFIG_H
#define DNSTTL_RESOLVER_CONFIG_H

#include <cstdint>
#include <string>
#include <string_view>

#include "dns/types.h"

namespace dnsttl::resolver {

/// Whose copy of cross-delegation records a resolver believes (§2, §3 of the
/// paper).  RFC 2181 ranks the child's authoritative data higher but does
/// not force resolvers to fetch it; implementations differ, which is the
/// paper's core observation.
enum class Centricity : std::uint8_t {
  /// Prefers the child zone's authoritative records: re-queries the child
  /// and lets AA answers override parent glue (most resolvers; 52–90% of
  /// queries in §3).
  kChildCentric,
  /// Trusts the parent's referral (NS + glue TTLs); never overrides them
  /// with child data while they live (OpenDNS-like; ~10–48% of queries).
  kParentCentric,
};

std::string_view to_string(Centricity centricity);

/// Full policy knob set for one recursive resolver.  Every behavior the
/// paper observes in the wild corresponds to one knob here; populations of
/// mixed configurations reproduce the measured distributions.
struct ResolverConfig {
  Centricity centricity = Centricity::kChildCentric;

  /// Cache TTL cap.  BIND defaults to 1 week; Google Public DNS caps at
  /// 21599 s (the Figure 2 plateau); 0 disables caching entirely.
  dns::Ttl max_ttl = dns::kTtl1Week;

  /// Cache TTL floor (some resolvers raise very low TTLs).
  dns::Ttl min_ttl{};

  /// Tie in-bailiwick glue A/AAAA lifetime to the covering NS RRset: when
  /// the NS expires, the address is re-fetched even if its own TTL lives
  /// (the §4.2 in-bailiwick finding; ~90% of resolvers).
  bool link_glue_to_ns = true;

  /// Sticky server selection (§4.4): once a server answered for a zone,
  /// keep using that address and never re-fetch, TTLs notwithstanding.
  bool sticky = false;

  /// RFC 8767 serve-stale: answer from expired cache (within the cache's
  /// stale window) when every authoritative server is unreachable, then
  /// keep answering that name stale for a short refresh window without
  /// re-trying the upstreams.
  bool serve_stale = false;

  /// RFC 7706 / LocalRoot: mirror the root zone locally; root-zone lookups
  /// are answered from the mirror with full (undecremented) TTLs and emit
  /// no root queries on the wire.
  bool local_root = false;

  /// BIND/Unbound-style smoothed-RTT server selection: prefer the fastest
  /// known server, rotating only among servers within a fixed band of the
  /// best (which preserves the §3.4 rotation across equally-near servers).
  /// Off, every lookup rotates round-robin across the whole NS set (§3.4:
  /// resolvers "tend to rotate between authoritative servers").
  bool srtt_selection = true;

  /// Child-centric address verification (Unbound target fetching / BIND
  /// glue revalidation): when the cached address of a nameserver is only
  /// glue-credibility, fetch the authoritative copy from the child zone.
  /// This is what makes child-centric resolvers visible as periodic
  /// NS-address queries at the authoritatives (the paper's §3.4 .nl
  /// analysis and its one-hour interarrival bumps).
  bool fetch_authoritative_ns_addresses = true;

  /// QNAME minimization (RFC 7816): reveal only one label beyond the zone
  /// being queried, asking NS questions until the full name's zone is
  /// reached.  A privacy feature with a visible cost profile: extra
  /// queries near the top of the tree, nothing leaked below it.
  bool qname_minimization = false;

  /// DNSSEC-lite validation: verify RRSIGs on authoritative answers
  /// against the signer zone's DNSKEY (fetched from the *child* — the
  /// paper's §2 argument that validation forces child-centric fetches).
  /// Unsigned answers are accepted as insecure; bad signatures are bogus
  /// (SERVFAIL).
  bool validate_dnssec = false;

  /// Pre-expiry refresh (Pappas et al., discussed in the paper's §7):
  /// when a cache hit has less than a tenth of its original TTL left,
  /// refresh it in the background so the next client never sees a miss.
  bool prefetch = false;

  std::string describe() const;
};

/// Named presets used by populations and examples.
ResolverConfig child_centric_config();
ResolverConfig parent_centric_config();
ResolverConfig google_like_config();   ///< child-centric, 21599 s cap
ResolverConfig opendns_like_config();  ///< parent-centric + local root
ResolverConfig sticky_config();        ///< child-centric + sticky

}  // namespace dnsttl::resolver

#endif  // DNSTTL_RESOLVER_CONFIG_H
