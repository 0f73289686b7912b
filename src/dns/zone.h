#ifndef DNSTTL_DNS_ZONE_H
#define DNSTTL_DNS_ZONE_H

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dns/message.h"
#include "dns/name.h"
#include "dns/name_table.h"
#include "dns/rr.h"
#include "dns/types.h"

namespace dnsttl::dns {

/// Result of an authoritative lookup into one zone: the classified response
/// content before it is stitched into a Message by the server.
struct LookupResult {
  enum class Kind {
    kAnswer,      ///< authoritative data found (AA=1)
    kDelegation,  ///< referral to a child zone (AA=0, NS in authority + glue)
    kNxDomain,    ///< name does not exist (AA=1, SOA in authority)
    kNoData,      ///< name exists but not this type (AA=1, SOA in authority)
    kNotInZone,   ///< qname not under this zone's origin (REFUSED)
  };

  Kind kind = Kind::kNotInZone;
  bool authoritative = false;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authorities;
  std::vector<ResourceRecord> additionals;
};

/// One DNS zone: an origin plus the RRsets at and below it, including
/// delegation NS sets and glue for child zones.
///
/// The zone is the unit the paper's operators configure: TTLs of a child
/// zone's records live here, and TTLs of the *delegation copy* (NS + glue)
/// live in the parent's Zone object — possibly different, which is exactly
/// the ambiguity §3 of the paper studies.
///
/// The index is dns::NameTable with one entry per owner name, holding that
/// name's RRsets in type order.  Every name between an owner and the origin
/// has an entry too — an empty non-terminal (RFC 8020) carries only a count
/// of the entries directly below it — so "does anything exist at or below
/// this name" is one probe, and a lookup walks the qname's ancestors by
/// (hash, label-suffix view) without allocating any of them.
class Zone {
 public:
  explicit Zone(Name origin) : origin_(std::move(origin)) {}

  const Name& origin() const noexcept { return origin_; }

  /// Adds one record.  Records of the same (name, type) merge into one
  /// RRset; the RRset TTL becomes the last-added record's TTL (operators
  /// configure one TTL per set, RFC 2181 §5.2).
  void add(const ResourceRecord& rr);

  /// Replaces the whole (name, type) RRset with @p rrset.
  void replace(const RRset& rrset);

  /// Removes the (name, type) RRset; returns true if it existed.
  bool remove(const Name& name, RRType type);

  /// Changes the TTL of an existing RRset; returns false if absent.
  bool set_ttl(const Name& name, RRType type, Ttl ttl);

  /// Renumbers all A records at @p name to @p address (the §4 experiments'
  /// "renumber the authoritative server" step); returns false if absent.
  bool renumber_a(const Name& name, Ipv4 address);

  /// A copy of the (name, type) RRset stored in this zone, or nullopt.
  std::optional<RRset> find(const Name& name, RRType type) const;

  /// True if any RRset exists at @p name.
  bool has_node(const Name& name) const;

  /// True if @p name is at or below a zone cut (delegation) in this zone,
  /// i.e. this zone is not authoritative for it.
  bool is_delegated(const Name& name) const;

  /// Performs the RFC 1034 §4.3.2 lookup algorithm for (qname, qtype),
  /// appending the records to @p reply's answer, authority and additional
  /// sections (its header and question are left alone).  In-zone CNAME
  /// chains are chased up to a bounded depth (loops and over-long chains
  /// stop, leaving the partial chain in the answer).
  LookupResult::Kind lookup(const Name& qname, RRType qtype,
                            Message& reply) const {
    return lookup_internal(qname, qtype, 0, reply);
  }

  /// lookup() into a fresh LookupResult.
  LookupResult lookup(const Name& qname, RRType qtype) const;

  /// All RRsets, in canonical name order and type order within a name
  /// (used by zone transfer to secondaries, signing and perfbench).
  std::vector<RRset> all_rrsets() const;

  /// Number of RRsets stored.
  std::size_t rrset_count() const noexcept { return rrset_count_; }

  /// The zone's SOA record, if configured.
  std::optional<ResourceRecord> soa() const;

  /// Increments the SOA serial (operators do this on every zone edit so
  /// secondaries notice at their next refresh); returns false without SOA.
  bool bump_serial();

  /// Removes every RRset (used by secondaries on zone expiry/transfer).
  void clear();

  /// Deep structural audit: the table's own layout audit, every entry under
  /// the origin with its RRsets non-empty, owned by it and in strictly
  /// increasing type order, every entry below the origin with a parent
  /// entry, every child count equal to the entries directly below, no
  /// entry without RRsets or children, and the RRset count.  Throws
  /// check::AuditError on violation.  Compiled in every build; invoked
  /// after every mutation only when built with DNSTTL_AUDIT=ON.
  void validate() const;

 private:
  /// One owner name's entry.  An entry without RRsets is an empty
  /// non-terminal and lives exactly as long as its child count is nonzero.
  struct Node {
    Name name;                  ///< the owner, the table's key
    std::vector<RRset> rrsets;  ///< in increasing type order
    std::uint32_t children = 0;  ///< entries exactly one label below

    const Name& key() const noexcept { return name; }
  };
  using Nodes = NameTable<NoTag, Node>;

  /// lookup(); a CNAME chase (@p cname_depth > 0) appends answers only.
  LookupResult::Kind lookup_internal(const Name& qname, RRType qtype,
                                     int cname_depth, Message& reply) const;

  /// The first delegation cut on the path from just below the origin down
  /// to @p name, as the cut's NS RRset: RFC 1034 §4.3.2 step 3b, the
  /// shallowest cut ends this zone's authority.  nullptr if the name is
  /// inside this zone's authoritative data; then @p node (when given)
  /// receives the name's entry, or nullptr if nothing exists at or below
  /// the name.
  const RRset* find_zone_cut(const Name& name,
                             const Node** node = nullptr) const;

  /// The ancestor of @p name (under the origin) with @p depth labels; the
  /// origin's own view, with its cached hash, when that is the ancestor.
  NameView ancestor(const Name& name, std::size_t depth) const {
    return depth == origin_.label_count() ? origin_.view()
                                          : name.suffix_view(depth);
  }
  /// Slot of @p name's entry (a Name or NameView), or Nodes::kNil.
  template <typename N>
  std::size_t slot_of(const N& name) const {
    return nodes_.find_slot(Nodes::key_hash(name, NoTag{}), name, NoTag{});
  }
  template <typename N>
  const Node* find_node(const N& name) const {
    const std::size_t slot = slot_of(name);
    return slot == Nodes::kNil ? nullptr : &nodes_.at(slot).value;
  }
  const RRset* find_rrset(const Name& name, RRType type) const;
  RRset* find_rrset(const Name& name, RRType type);

  /// The (name, type) RRset, inserted empty with @p rclass and @p ttl if
  /// absent; creates the name's entry and any missing empty non-terminals
  /// above it.
  RRset& rrset_for(const Name& name, RRType type, RClass rclass, Ttl ttl);
  /// Erases the entry in @p slot (no RRsets, no children) and every empty
  /// non-terminal above it that it leaves childless.
  void prune(std::size_t slot);
  /// Replaces the address set at @p name with the single @p address.
  bool renumber(const Name& name, Rdata address);

  /// Appends A/AAAA glue from this zone for each NS target under origin.
  void attach_glue(std::span<const ResourceRecord> ns_records,
                   std::vector<ResourceRecord>& additionals) const;

  void append_soa_to(std::vector<ResourceRecord>& authorities) const;

  Name origin_;
  Nodes nodes_;
  std::size_t rrset_count_ = 0;
};

}  // namespace dnsttl::dns

#endif  // DNSTTL_DNS_ZONE_H
