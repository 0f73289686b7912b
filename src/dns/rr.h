#ifndef DNSTTL_DNS_RR_H
#define DNSTTL_DNS_RR_H

#include <cstdint>
#include <string>
#include <vector>

#include "dns/name.h"
#include "dns/rdata.h"
#include "dns/types.h"

namespace dnsttl::dns {

/// One resource record: owner name, class, TTL and typed RDATA.
/// The record type is implied by the RDATA alternative (see rdata_type()).
struct ResourceRecord {
  Name name;
  RClass rclass = RClass::kIN;
  Ttl ttl{3600};
  Rdata rdata;

  RRType type() const { return rdata_type(rdata); }

  /// Zone-file style presentation: "owner TTL class type rdata".
  std::string to_string() const;

  bool operator==(const ResourceRecord&) const = default;
};
static_assert(sizeof(ResourceRecord) == 120,
              "owner (48 B), class and TTL (8 B), RDATA (64 B)");

/// An RRset: all records sharing (owner, class, type).  RFC 2181 §5.2
/// requires one TTL for the whole set; the constructor and add() enforce it
/// by clamping every member to the set TTL.
class RRset {
 public:
  RRset() = default;
  RRset(Name name, RClass rclass, Ttl ttl) noexcept
      : name_(std::move(name)), rclass_(rclass), ttl_(ttl) {}

  /// Builds an RRset from records; all must share owner/class/type.
  /// The set TTL is the minimum member TTL (RFC 2181 §5.2 resolution rule).
  /// Throws std::invalid_argument if the records disagree on the key.
  static RRset from_records(const std::vector<ResourceRecord>& records);

  /// Adds one record of this set: the set TTL drops to the record's if
  /// lower (RFC 2181 §5.2) and its RDATA goes through add().  Throws
  /// std::invalid_argument if the record's (owner, class, type) differs.
  void add_record(const ResourceRecord& rr);

  /// Adds one RDATA; exact duplicates are suppressed (RFC 2181 §5: an
  /// RRset never contains two identical records).
  void add(Rdata rdata) {
    for (const auto& existing : rdatas_) {
      if (existing == rdata) {
        return;
      }
    }
    rdatas_.push_back(std::move(rdata));
  }

  const Name& name() const noexcept { return name_; }
  RClass rclass() const noexcept { return rclass_; }
  Ttl ttl() const noexcept { return ttl_; }
  void set_ttl(Ttl ttl) noexcept { ttl_ = ttl; }

  /// Type of the member RDATA; requires a non-empty set.
  RRType type() const { return rdata_type(rdatas_.at(0)); }

  /// Makes room for @p count members.
  void reserve(std::size_t count) { rdatas_.reserve(count); }

  bool empty() const noexcept { return rdatas_.empty(); }
  std::size_t size() const noexcept { return rdatas_.size(); }
  const std::vector<Rdata>& rdatas() const noexcept { return rdatas_; }

  /// Expands back into individual records, all carrying the set TTL.
  std::vector<ResourceRecord> to_records() const;
  /// Appends the members to @p out as individual records carrying @p ttl.
  void append_records(std::vector<ResourceRecord>& out, Ttl ttl) const;

  bool operator==(const RRset&) const = default;

 private:
  Name name_;
  RClass rclass_ = RClass::kIN;
  Ttl ttl_{3600};
  std::vector<Rdata> rdatas_;
};

/// Convenience constructors for the record shapes used throughout the
/// experiments.
ResourceRecord make_a(const Name& name, Ttl ttl, Ipv4 address);
ResourceRecord make_aaaa(const Name& name, Ttl ttl, Ipv6 address);
ResourceRecord make_ns(const Name& name, Ttl ttl, Name nsdname);
ResourceRecord make_cname(const Name& name, Ttl ttl, Name target);
ResourceRecord make_mx(const Name& name, Ttl ttl, std::uint16_t preference,
                       Name exchange);
ResourceRecord make_txt(const Name& name, Ttl ttl, std::string text);
ResourceRecord make_soa(const Name& zone, Ttl ttl, Name mname,
                        std::uint32_t serial,
                        WireTtl minimum = WireTtl{3600});
ResourceRecord make_dnskey(const Name& zone, Ttl ttl, std::string key);

}  // namespace dnsttl::dns

#endif  // DNSTTL_DNS_RR_H
