#ifndef DNSTTL_CRAWL_MATERIALIZE_H
#define DNSTTL_CRAWL_MATERIALIZE_H

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "crawl/population_generator.h"
#include "dns/name.h"
#include "dns/rr.h"

namespace dnsttl::crawl {

/// Deterministic value→address mappings so every consumer of generated
/// crawl data (the nested test oracle, the engine's wire-collapse rule)
/// derives addresses from the same opaque record values.
inline dns::Ipv4 ipv4_for(const std::string& value) {
  auto h = static_cast<std::uint32_t>(std::hash<std::string>{}(value));
  return dns::Ipv4{0x0a000000u | (h & 0x00ffffffu)};  // 10.x.y.z
}

inline dns::Ipv6 ipv6_for(const std::string& value) {
  auto h = std::hash<std::string>{}(value);
  std::array<std::uint8_t, 16> octets{};
  octets[0] = 0x20;
  octets[1] = 0x01;
  for (int i = 0; i < 8; ++i) {
    octets[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(h >> (i * 8));
  }
  return dns::Ipv6{octets};
}

/// Turns one generated record into the rdata a live zone would serve.
inline dns::Rdata materialize(const HarvestedRecord& record) {
  switch (record.type) {
    case dns::RRType::kA:
      return dns::ARdata{ipv4_for(record.value)};
    case dns::RRType::kAAAA:
      return dns::AaaaRdata{ipv6_for(record.value)};
    case dns::RRType::kNS:
      return dns::NsRdata{dns::Name::from_string(record.value)};
    case dns::RRType::kMX:
      return dns::MxRdata{10, dns::Name::from_string(record.value)};
    case dns::RRType::kCNAME:
      return dns::CnameRdata{dns::Name::from_string(record.value)};
    case dns::RRType::kDNSKEY: {
      dns::DnskeyRdata key;
      key.public_key = record.value;
      return key;
    }
    default:
      return dns::TxtRdata{record.value};
  }
}

/// The owner name a crawler queries for @p type under @p base.  CNAMEs
/// cannot coexist with other data at a node; crawlers harvest them from
/// www-style aliases.
inline dns::Name harvest_owner(const dns::Name& base, dns::RRType type) {
  return type == dns::RRType::kCNAME ? base.prepend("alias") : base;
}

}  // namespace dnsttl::crawl

#endif  // DNSTTL_CRAWL_MATERIALIZE_H
