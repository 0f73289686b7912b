#include "crawl/population_generator.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <iterator>
#include <string_view>

namespace dnsttl::crawl {

std::string_view to_string(ContentClass content) {
  switch (content) {
    case ContentClass::kUnclassified:
      return "unclassified";
    case ContentClass::kPlaceholder:
      return "Placeholder";
    case ContentClass::kEcommerce:
      return "E-commerce";
    case ContentClass::kParking:
      return "Parking";
  }
  return "?";
}

namespace {

// ---------------------------------------------------------------- TTL grids
// Weights are calibrated to the CDF knees of Figure 9 (see DESIGN.md §4).

TtlDist top_list_ns_ttl() {
  return {{0, 60, 300, 900, 3600, 7200, 14400, 21600, 43200, 86400, 172800},
          {0.004, 0.012, 0.035, 0.022, 0.15, 0.08, 0.10, 0.08, 0.07, 0.30,
           0.147}};
}

TtlDist top_list_a_ttl() {
  return {{0, 60, 300, 600, 900, 1800, 3600, 14400, 43200, 86400},
          {0.001, 0.06, 0.22, 0.10, 0.05, 0.07, 0.26, 0.10, 0.05, 0.089}};
}

TtlDist top_list_mx_ttl() {
  return {{0, 300, 1800, 3600, 14400, 43200, 86400},
          {0.0005, 0.05, 0.04, 0.38, 0.20, 0.08, 0.25}};
}

TtlDist dnskey_ttl_dist() {
  return {{3600, 14400, 43200, 86400, 172800},
          {0.20, 0.20, 0.10, 0.35, 0.15}};
}

TtlDist generic_cname_ttl() {
  return {{60, 300, 3600, 14400, 86400}, {0.15, 0.35, 0.30, 0.10, 0.10}};
}

}  // namespace

ListParams alexa_params(std::size_t domains) {
  ListParams params;
  params.name = "Alexa";
  params.domains = domains;
  params.responsive = 0.99;
  params.cname_answer = 0.052;
  params.soa_answer = 0.013;
  params.out_only = 0.950;
  params.in_only = 0.041;
  params.providers = 4500;
  params.a_presence = 0.95;
  params.aaaa_presence = 0.22;
  params.mx_presence = 0.68;
  params.dnskey_presence = 0.043;
  params.cname_rr_presence = 0.046;
  params.cname_shared = 0.85;  // CDN endpoints: high target sharing
  params.ns_ttl = top_list_ns_ttl();
  params.a_ttl = top_list_a_ttl();
  params.aaaa_ttl = top_list_a_ttl();
  params.mx_ttl = top_list_mx_ttl();
  params.dnskey_ttl = dnskey_ttl_dist();
  params.cname_ttl = generic_cname_ttl();
  return params;
}

ListParams majestic_params(std::size_t domains) {
  ListParams params = alexa_params(domains);
  params.name = "Majestic";
  params.responsive = 0.93;
  params.cname_answer = 0.008;
  params.soa_answer = 0.009;
  params.out_only = 0.957;
  params.in_only = 0.031;
  params.aaaa_presence = 0.20;
  params.mx_presence = 0.63;
  params.cname_rr_presence = 0.003;
  params.cname_shared = 0.35;
  return params;
}

ListParams umbrella_params(std::size_t domains) {
  ListParams params;
  params.name = "Umbrella";
  params.domains = domains;
  // FQDNs pointing into clouds/CDNs: many transient, unresponsive names.
  params.responsive = 0.78;
  params.cname_answer = 0.58;  // most Umbrella names alias into CDNs
  params.soa_answer = 0.075;
  params.out_only = 0.901;
  params.in_only = 0.074;
  params.a_presence = 0.95;
  params.aaaa_presence = 0.30;
  params.mx_presence = 0.35;
  params.dnskey_presence = 0.015;
  params.cname_rr_presence = 0.44;
  params.cname_shared = 0.55;
  params.providers = 2000;
  // 25% of NS TTLs under one minute (cloud automation).
  params.ns_ttl = {{0, 30, 60, 300, 900, 3600, 14400, 86400, 172800},
                   {0.005, 0.09, 0.16, 0.15, 0.07, 0.20, 0.09, 0.16, 0.075}};
  params.a_ttl = {{0, 20, 60, 300, 600, 3600, 14400, 86400},
                  {0.001, 0.14, 0.28, 0.25, 0.08, 0.15, 0.05, 0.049}};
  params.aaaa_ttl = params.a_ttl;
  params.mx_ttl = top_list_mx_ttl();
  params.dnskey_ttl = dnskey_ttl_dist();
  params.cname_ttl = {{20, 60, 300, 3600, 86400},
                      {0.20, 0.30, 0.30, 0.15, 0.05}};
  return params;
}

ListParams nl_params(std::size_t domains) {
  ListParams params;
  params.name = ".nl";
  params.domains = domains;
  params.responsive = 0.94;
  params.cname_answer = 0.0017;
  params.soa_answer = 0.0022;
  // Near-total reliance on shared hosting (Table 9: 99.7% out-only).
  params.out_only = 0.997;
  params.in_only = 0.0023;
  params.providers = 1200;
  params.a_shared = 0.95;
  params.provider_ip_pool = 4;
  params.a_presence = 0.95;
  params.aaaa_presence = 0.38;
  params.mx_presence = 0.80;
  // SIDN's DNSSEC incentives: most .nl domains are signed, each with its
  // own key (Table 5's 1.06 unique ratio).
  params.registry_ns_ttl = dns::Ttl{3600};  // .nl delegations carry a 1-hour TTL
  params.dnskey_presence = 0.70;
  params.dnskey_two_keys = 0.06;
  params.dnskey_shared = 0.05;  // SIDN: per-domain keys
  params.cname_rr_presence = 0.002;
  // ~40% of .nl children under one hour (§5.1).
  params.ns_ttl = {{0, 300, 600, 900, 1800, 3600, 7200, 14400, 86400, 172800},
                   {0.0006, 0.11, 0.10, 0.06, 0.12, 0.22, 0.06, 0.14, 0.13,
                    0.0494}};
  params.a_ttl = top_list_a_ttl();
  params.aaaa_ttl = top_list_a_ttl();
  params.mx_ttl = top_list_mx_ttl();
  params.dnskey_ttl = dnskey_ttl_dist();
  params.cname_ttl = generic_cname_ttl();
  // DMap web classification (§5.1.1): of the crawlable population, ~27%
  // classify into one of the three page classes (1.475M of 5.45M).
  params.classified_fraction = 0.27;
  params.placeholder_share = 0.813;
  params.ecommerce_share = 0.101;
  return params;
}

ListParams root_params() {
  ListParams params;
  params.name = "Root";
  params.domains = 1562;
  params.responsive = 0.983;
  params.cname_answer = 0.0;
  params.soa_answer = 0.0;
  // TLDs split roughly half out-of-bailiwick, half in/mixed (Table 9).
  params.out_only = 0.487;
  params.in_only = 0.426;
  params.providers = 250;
  params.ns_min = 3;
  params.ns_max = 7;
  params.a_presence = 1.0;   // NS-server addresses reported for the root
  params.aaaa_presence = 0.92;
  params.mx_presence = 0.057;
  params.dnskey_presence = 0.0;  // root list carries no DNSKEY rows
  params.cname_rr_presence = 0.0;
  // ~80% of root-zone records at 1-2 days; 34 TLDs under 30 min and 122
  // under 2 h (§5.2).
  params.ns_ttl = {{30, 300, 600, 1800, 3600, 7200, 14400, 21600, 43200,
                    86400, 172800},
                   {0.008, 0.009, 0.003, 0.002, 0.040, 0.017, 0.011, 0.030,
                    0.060, 0.350, 0.470}};
  params.a_ttl = {{3600, 43200, 86400, 172800}, {0.05, 0.10, 0.40, 0.45}};
  params.aaaa_ttl = params.a_ttl;
  params.mx_ttl = top_list_mx_ttl();
  params.dnskey_ttl = dnskey_ttl_dist();
  params.cname_ttl = generic_cname_ttl();
  return params;
}

namespace {

/// Provider rank: a Zipf head (the big hosters capture most customers)
/// plus a uniform tail (the long tail of small hosters), matching how
/// Table 5's unique-NS counts split between giant and boutique providers.
std::size_t sample_provider(const ListParams& params, sim::Rng& rng) {
  if (rng.chance(0.3)) {
    return rng.uniform_int(0, params.providers - 1);
  }
  double rank = rng.pareto(1.0, params.provider_zipf);
  auto index = static_cast<std::size_t>(rank) - 1;
  return std::min(index, params.providers - 1);
}

/// Class-conditional TTL distributions reproducing Table 7's medians
/// (hours): e-commerce NS 4 / AAAA 0.1, parking NS 24 / DNSKEY 24,
/// placeholder NS 4 / AAAA 4 / DNSKEY 4; A and MX at 1 h for all classes.
const TtlDist& class_ttl(ContentClass content, dns::RRType type) {
  static const TtlDist one_hour{{300, 3600, 14400}, {0.25, 0.50, 0.25}};
  static const TtlDist four_hours{{3600, 14400, 86400}, {0.30, 0.45, 0.25}};
  static const TtlDist one_day{{14400, 86400, 172800}, {0.25, 0.50, 0.25}};
  static const TtlDist six_minutes{{60, 300, 600, 3600},
                                   {0.25, 0.30, 0.25, 0.20}};

  switch (type) {
    case dns::RRType::kNS:
      return content == ContentClass::kParking ? one_day : four_hours;
    case dns::RRType::kA:
    case dns::RRType::kMX:
      return one_hour;
    case dns::RRType::kAAAA:
      if (content == ContentClass::kEcommerce) return six_minutes;
      return content == ContentClass::kParking ? one_hour : four_hours;
    case dns::RRType::kDNSKEY:
      if (content == ContentClass::kEcommerce) return one_hour;
      return content == ContentClass::kParking ? one_day : four_hours;
    default:
      return one_hour;
  }
}

void append_part(std::string& out, std::string_view text) { out += text; }
void append_part(std::string& out, char c) { out += c; }
void append_part(std::string& out, std::uint64_t number) {
  char digits[20];
  out.append(digits,
             std::to_chars(digits, digits + sizeof(digits), number).ptr);
}

/// Appends @p parts to @p out, numbers in decimal, without temporaries.
template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  (append_part(out, parts), ...);
}

/// Appends a record to @p domain whose value is @p parts concatenated,
/// formatted into a spare buffer when one is left.
template <typename... Parts>
void add_record(GeneratedDomain& domain, dns::RRType type, dns::Ttl ttl,
                const Parts&... parts) {
  std::string value;
  if (!domain.spare_values.empty()) {
    value = std::move(domain.spare_values.back());
    domain.spare_values.pop_back();
    value.clear();
  }
  append(value, parts...);
  domain.records.push_back(HarvestedRecord{type, ttl, std::move(value)});
}

}  // namespace

std::string list_suffix(const ListParams& params) {
  std::string suffix;
  for (char c : params.name) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      suffix += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return suffix;
}

void generate_domain(const ListParams& params, const std::string& suffix,
                     std::size_t index, sim::Rng& rng,
                     GeneratedDomain& domain) {
  for (auto& record : domain.records) {
    domain.spare_values.push_back(std::move(record.value));
  }
  domain.records.clear();
  domain.content = ContentClass::kUnclassified;
  domain.ns_answer = NsAnswerKind::kNsRecords;
  domain.name.clear();
  append(domain.name, 'd', index, '.', suffix);
  domain.parent_ns_ttl = params.registry_ns_ttl;
  domain.responsive = rng.chance(params.responsive);
  if (!domain.responsive) {
    return;
  }

  // Content class (only meaningful for .nl).
  if (params.classified_fraction > 0.0 &&
      rng.chance(params.classified_fraction)) {
    double roll = rng.uniform();
    domain.content = roll < params.placeholder_share
                         ? ContentClass::kPlaceholder
                         : (roll < params.placeholder_share +
                                       params.ecommerce_share
                                ? ContentClass::kEcommerce
                                : ContentClass::kParking);
  }

  auto ttl_for = [&](dns::RRType type, const TtlDist& list_dist) {
    if (domain.content != ContentClass::kUnclassified) {
      return class_ttl(domain.content, type).sample(rng);
    }
    return list_dist.sample(rng);
  };

  // NS answer behavior.
  double roll = rng.uniform();
  if (roll < params.cname_answer) {
    domain.ns_answer = NsAnswerKind::kCname;
  } else if (roll < params.cname_answer + params.soa_answer) {
    domain.ns_answer = NsAnswerKind::kSoa;
  } else {
    domain.ns_answer = NsAnswerKind::kNsRecords;
  }

  // "provider<n>": the hosting provider's tag, shared by every value drawn
  // from its pools.
  char tag[32] = "provider";
  const std::string_view provider_tag(
      tag, std::to_chars(tag + 8, std::end(tag),
                         sample_provider(params, rng)).ptr);

  if (domain.ns_answer == NsAnswerKind::kNsRecords) {
    auto ns_count = rng.uniform_int(
        static_cast<std::uint64_t>(params.ns_min),
        static_cast<std::uint64_t>(params.ns_max));
    dns::Ttl ns_ttl = ttl_for(dns::RRType::kNS, params.ns_ttl);

    double bw = rng.uniform();
    bool all_out = bw < params.out_only;
    bool all_in = !all_out && bw < params.out_only + params.in_only;
    for (std::size_t i = 0; i < ns_count; ++i) {
      bool in_bailiwick = all_in || (!all_out && i % 2 == 1);
      if (in_bailiwick) {
        add_record(domain, dns::RRType::kNS, ns_ttl, "ns", i + 1, '.',
                   domain.name);
      } else {
        add_record(domain, dns::RRType::kNS, ns_ttl, "ns", i + 1, '.',
                   provider_tag, ".example");
      }
    }
  }

  auto add_addresses = [&](dns::RRType type, const TtlDist& dist,
                           double presence) {
    if (!rng.chance(presence)) return;
    dns::Ttl ttl = ttl_for(type, dist);
    std::size_t count = rng.chance(0.3) ? 2 : 1;
    const std::string_view v6 = type == dns::RRType::kAAAA ? "-v6" : "";
    for (std::size_t i = 0; i < count; ++i) {
      if (rng.chance(params.a_shared)) {
        add_record(domain, type, ttl, provider_tag, "-ip",
                   rng.uniform_int(0, params.provider_ip_pool - 1), v6);
      } else {
        add_record(domain, type, ttl, domain.name, "-ip", i, v6);
      }
    }
  };
  add_addresses(dns::RRType::kA, params.a_ttl, params.a_presence);
  add_addresses(dns::RRType::kAAAA, params.aaaa_ttl, params.aaaa_presence);

  if (rng.chance(params.mx_presence)) {
    dns::Ttl ttl = ttl_for(dns::RRType::kMX, params.mx_ttl);
    std::size_t count = rng.chance(0.5) ? 2 : 1;
    for (std::size_t i = 0; i < count; ++i) {
      if (rng.chance(params.mx_shared)) {
        add_record(domain, dns::RRType::kMX, ttl, "mx", i, '.', provider_tag,
                   ".example");
      } else {
        add_record(domain, dns::RRType::kMX, ttl, "mail", i, '.',
                   domain.name);
      }
    }
  }

  if (rng.chance(params.dnskey_presence)) {
    dns::Ttl ttl = ttl_for(dns::RRType::kDNSKEY, params.dnskey_ttl);
    std::size_t keys = rng.chance(params.dnskey_two_keys) ? 2 : 1;
    for (std::size_t i = 0; i < keys; ++i) {
      if (rng.chance(params.dnskey_shared)) {
        add_record(domain, dns::RRType::kDNSKEY, ttl, "key-", provider_tag,
                   '-', i);
      } else {
        add_record(domain, dns::RRType::kDNSKEY, ttl, "key-", domain.name,
                   '-', i);
      }
    }
  }

  if (rng.chance(params.cname_rr_presence)) {
    dns::Ttl ttl = params.cname_ttl.sample(rng);
    if (rng.chance(params.cname_shared)) {
      add_record(domain, dns::RRType::kCNAME, ttl, "edge.", provider_tag,
                 ".example");
    } else {
      add_record(domain, dns::RRType::kCNAME, ttl, "www.", domain.name);
    }
  }
}

std::vector<GeneratedDomain> generate_population(const ListParams& params,
                                                 const sim::Rng& list_rng) {
  std::vector<GeneratedDomain> population(params.domains);
  const std::string suffix = list_suffix(params);
  for (std::size_t d = 0; d < params.domains; ++d) {
    sim::Rng domain_rng = list_rng.fork(d);
    generate_domain(params, suffix, d, domain_rng, population[d]);
  }
  return population;
}

}  // namespace dnsttl::crawl
