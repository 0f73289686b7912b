#ifndef DNSTTL_CRAWL_POPULATION_GENERATOR_H
#define DNSTTL_CRAWL_POPULATION_GENERATOR_H

#include <stdexcept>
#include <string>
#include <vector>

#include "dns/types.h"
#include "sim/rng.h"

namespace dnsttl::crawl {

/// Weighted TTL distribution over the human-chosen value grid the paper
/// observes (Figure 9): {0, 30, 60, 300, ..., 172800}.
struct TtlDist {
  std::vector<dns::Ttl> values;
  std::vector<double> weights;

  TtlDist() = default;
  /// Grid values are spelled in seconds; each entry is RFC 2181-clamped on
  /// the way in, so the distribution can never emit an out-of-range TTL.
  /// Throws std::invalid_argument unless there is one weight per value:
  /// sample() indexes values by a weight's position.
  TtlDist(std::initializer_list<std::uint32_t> ttl_seconds,
          std::initializer_list<double> ttl_weights)
      : weights(ttl_weights) {
    if (ttl_seconds.size() != ttl_weights.size()) {
      throw std::invalid_argument("TtlDist: one weight per TTL value");
    }
    values.reserve(ttl_seconds.size());
    for (std::uint32_t s : ttl_seconds) {
      values.emplace_back(s);
    }
  }

  dns::Ttl sample(sim::Rng& rng) const {
    return values[rng.weighted_index(weights)];
  }
};

/// DMap content classes for `.nl` (§5.1.1, Table 6).
enum class ContentClass : std::uint8_t {
  kUnclassified = 0,
  kPlaceholder,
  kEcommerce,
  kParking,
};

std::string_view to_string(ContentClass content);

/// One record as the crawler would harvest it from the child authoritative.
struct HarvestedRecord {
  dns::RRType type = dns::RRType::kA;
  dns::Ttl ttl = dns::Ttl{3600};
  std::string value;  ///< rdata identity (address / target name / key)
};

/// How a domain answered the crawler's NS query (Table 9's rows).
enum class NsAnswerKind : std::uint8_t { kNsRecords, kCname, kSoa };

/// One crawled domain with everything the §5 analyses need.
struct GeneratedDomain {
  std::string name;
  bool responsive = true;
  NsAnswerKind ns_answer = NsAnswerKind::kNsRecords;
  std::vector<HarvestedRecord> records;
  ContentClass content = ContentClass::kUnclassified;
  /// The registry's (parent-side) copy of the NS TTL — what a crawl of the
  /// parent authoritative would harvest for this delegation.
  dns::Ttl parent_ns_ttl = dns::kTtl2Days;
  /// Value buffers of records an earlier generate_domain() dropped; the
  /// next call formats new values into them instead of allocating.
  std::vector<std::string> spare_values;
};

/// Knobs of one synthetic list population, calibrated per list to Table 5 /
/// Figure 9 / Table 9 (see list parameter factories below).
struct ListParams {
  std::string name;
  std::size_t domains = 100000;
  double responsive = 0.95;

  /// NS-query answer behavior of responsive domains.
  double cname_answer = 0.02;
  double soa_answer = 0.01;

  /// Bailiwick mix among NS-responding domains (Table 9).
  double out_only = 0.95;
  double in_only = 0.035;
  // remainder: mixed

  /// Registry-imposed TTL of the parent-side delegation copy (e.g. 172800 s
  /// for .com/.net, 3600 s for .nl's children) — the other half of the
  /// parent/child comparison the paper leaves as future work (§5.1).
  dns::Ttl registry_ns_ttl = dns::kTtl2Days;

  /// Hosting provider pool (drives Table 5's unique-record ratios):
  /// a Zipf-ish pool of providers whose NS names and address blocks are
  /// shared across customer domains.
  std::size_t providers = 4000;
  double provider_zipf = 1.0;

  /// Record presence and multiplicity.
  double ns_min = 2, ns_max = 4;
  double a_presence = 0.95;
  double aaaa_presence = 0.25;
  double mx_presence = 0.65;
  double dnskey_presence = 0.04;
  double cname_rr_presence = 0.04;

  /// Record-value sharing (drives Table 5's unique-record ratios):
  /// probability that a value comes from the hosting provider's shared
  /// pool rather than being domain-unique.
  double a_shared = 0.5;
  double mx_shared = 0.7;
  double cname_shared = 0.5;
  double dnskey_two_keys = 0.6;  ///< chance of a second (KSK) key record
  /// Probability a DNSKEY is a hosting provider's shared signing key
  /// rather than a per-domain one (drives Table 5's 1.6 vs 1.06 ratios).
  double dnskey_shared = 0.45;
  std::size_t provider_ip_pool = 8;

  /// Per-type TTL distributions (child authoritative view, Figure 9).
  TtlDist ns_ttl;
  TtlDist a_ttl;
  TtlDist aaaa_ttl;
  TtlDist mx_ttl;
  TtlDist dnskey_ttl;
  TtlDist cname_ttl;

  /// Content classification (only used for `.nl`): fraction of domains
  /// classified at all, then the class split among classified ones.
  double classified_fraction = 0.0;
  double placeholder_share = 0.81;
  double ecommerce_share = 0.10;
  // remainder: parking
};

/// Per-list calibrated parameter factories (DESIGN.md §4).
ListParams alexa_params(std::size_t domains = 100000);
ListParams majestic_params(std::size_t domains = 100000);
ListParams umbrella_params(std::size_t domains = 100000);
ListParams nl_params(std::size_t domains = 500000);
ListParams root_params();  ///< 1535 responsive TLDs, fixed small size

/// Lowercased alphanumeric form of the list name, used as the synthetic
/// TLD of its domains ("Alexa" → "alexa", ".nl" → "nl").
std::string list_suffix(const ListParams& params);

/// Generates domain @p index of the list into @p domain (which is reset
/// first, retaining its buffers: once they have grown to the list's
/// largest domain, generation allocates nothing), consuming draws from
/// @p rng.  Every crawl passes the domain's own stream
/// `list_rng.fork(index)`, so the domain is a pure function of
/// (params, seed, index): that is what lets the bulk resolution engine
/// generate shards independently and stream populations it never
/// materializes.
void generate_domain(const ListParams& params, const std::string& suffix,
                     std::size_t index, sim::Rng& rng,
                     GeneratedDomain& domain);

/// Materializes the population for one list, domain i drawn from
/// `list_rng.fork(i)` — element-for-element the domains crawl_engine()
/// streams on the same (params, list_rng).
std::vector<GeneratedDomain> generate_population(const ListParams& params,
                                                 const sim::Rng& list_rng);

}  // namespace dnsttl::crawl

#endif  // DNSTTL_CRAWL_POPULATION_GENERATOR_H
