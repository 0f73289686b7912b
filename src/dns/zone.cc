#include "dns/zone.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "check/audit.h"

namespace dnsttl::dns {

namespace {

void append_records(const RRset& rrset, std::vector<ResourceRecord>& out) {
  for (const auto& rdata : rrset.rdatas()) {
    out.push_back(ResourceRecord{rrset.name(), rrset.rclass(), rrset.ttl(),
                                 rdata});
  }
}

/// Position of @p type in an owner's type-ordered RRsets: the set of that
/// type, or where it would be inserted.
template <typename Sets>
auto type_position(Sets& rrsets, RRType type) {
  return std::find_if(rrsets.begin(), rrsets.end(), [type](const RRset& set) {
    return !(set.type() < type);
  });
}

template <typename Sets>
auto* rrset_of(Sets& rrsets, RRType type) {
  auto it = type_position(rrsets, type);
  return it != rrsets.end() && it->type() == type ? &*it : nullptr;
}

}  // namespace

void Zone::add(const ResourceRecord& rr) {
  if (!rr.name.is_subdomain_of(origin_)) {
    throw std::invalid_argument("record " + rr.name.to_string() +
                                " not under zone origin " +
                                origin_.to_string());
  }
  RRset& rrset = rrset_for(rr.name, rr.type(), rr.rclass, rr.ttl);
  rrset.set_ttl(rr.ttl);
  rrset.add(rr.rdata);
  if constexpr (check::kAuditEnabled) {
    validate();
  }
}

void Zone::replace(const RRset& rrset) {
  if (rrset.empty()) {
    throw std::invalid_argument("cannot store an empty RRset");
  }
  if (!rrset.name().is_subdomain_of(origin_)) {
    throw std::invalid_argument("RRset not under zone origin");
  }
  rrset_for(rrset.name(), rrset.type(), rrset.rclass(), rrset.ttl()) = rrset;
  if constexpr (check::kAuditEnabled) {
    validate();
  }
}

RRset& Zone::rrset_for(const Name& name, RRType type, RClass rclass,
                       Ttl ttl) {
  const std::uint64_t hash = Nodes::key_hash(name, NoTag{});
  std::size_t slot = nodes_.find_slot(hash, name, NoTag{});
  if (slot == Nodes::kNil) {
    // A new owner is one more child of its parent, which is created first
    // (as an empty non-terminal) when it is new too, and so on upward.
    for (std::size_t depth = name.label_count();
         depth > origin_.label_count(); --depth) {
      const NameView parent = ancestor(name, depth - 1);
      const std::uint64_t parent_hash = Nodes::key_hash(parent, NoTag{});
      if (Node* node = nodes_.find(parent_hash, parent, NoTag{})) {
        ++node->children;
        break;
      }
      nodes_.put(parent_hash, NoTag{}, Node{Name(parent), {}, 1});
    }
    slot = nodes_.put(hash, NoTag{}, Node{name, {}, 0});
  }
  std::vector<RRset>& rrsets = nodes_.at(slot).value.rrsets;
  auto it = type_position(rrsets, type);
  if (it == rrsets.end() || it->type() != type) {
    it = rrsets.emplace(it, name, rclass, ttl);
    ++rrset_count_;
  }
  return *it;
}

void Zone::prune(std::size_t slot) {
  // Parents are erased before the slot itself, so `name` stays alive.
  const Name& name = nodes_.at(slot).value.name;
  for (std::size_t depth = name.label_count(); depth > origin_.label_count();
       --depth) {
    const std::size_t up = slot_of(ancestor(name, depth - 1));
    Node& node = nodes_.at(up).value;
    if (--node.children > 0 || !node.rrsets.empty()) {
      break;
    }
    nodes_.erase_slot(up);
  }
  nodes_.erase_slot(slot);
}

bool Zone::remove(const Name& name, RRType type) {
  const std::size_t slot = slot_of(name);
  if (slot == Nodes::kNil) {
    return false;
  }
  Node& node = nodes_.at(slot).value;
  auto it = type_position(node.rrsets, type);
  if (it == node.rrsets.end() || it->type() != type) {
    return false;
  }
  node.rrsets.erase(it);
  --rrset_count_;
  if (node.rrsets.empty() && node.children == 0) {
    prune(slot);
  }
  if constexpr (check::kAuditEnabled) {
    validate();
  }
  return true;
}

bool Zone::set_ttl(const Name& name, RRType type, Ttl ttl) {
  RRset* rrset = find_rrset(name, type);
  if (rrset == nullptr) {
    return false;
  }
  rrset->set_ttl(ttl);
  if constexpr (check::kAuditEnabled) {
    validate();
  }
  return true;
}

bool Zone::renumber(const Name& name, Rdata address) {
  RRset* rrset = find_rrset(name, rdata_type(address));
  if (rrset == nullptr) {
    return false;
  }
  RRset fresh(name, rrset->rclass(), rrset->ttl());
  fresh.add(std::move(address));
  *rrset = std::move(fresh);
  if constexpr (check::kAuditEnabled) {
    validate();
  }
  return true;
}

bool Zone::renumber_a(const Name& name, Ipv4 address) {
  return renumber(name, ARdata{address});
}

const RRset* Zone::find_rrset(const Name& name, RRType type) const {
  const Node* node = find_node(name);
  return node == nullptr ? nullptr : rrset_of(node->rrsets, type);
}

RRset* Zone::find_rrset(const Name& name, RRType type) {
  const std::size_t slot = slot_of(name);
  return slot == Nodes::kNil ? nullptr
                             : rrset_of(nodes_.at(slot).value.rrsets, type);
}

std::optional<RRset> Zone::find(const Name& name, RRType type) const {
  if (const RRset* rrset = find_rrset(name, type)) {
    return *rrset;
  }
  return std::nullopt;
}

bool Zone::has_node(const Name& name) const {
  const Node* node = find_node(name);
  return node != nullptr && !node->rrsets.empty();
}

const RRset* Zone::find_zone_cut(const Name& name, const Node** node) const {
  // Walk from just below the origin down to the name itself; the apex NS
  // set is not a cut.  Every ancestor of an entry is an entry, so once a
  // name on the way is missing, nothing exists at or below it.
  const std::size_t apex = origin_.label_count();
  const Node* at = nullptr;
  for (std::size_t depth = std::min(apex + 1, name.label_count());
       depth <= name.label_count(); ++depth) {
    at = find_node(name.suffix_view(depth));
    if (at == nullptr) {
      break;
    }
    if (depth > apex) {
      if (const RRset* ns = rrset_of(at->rrsets, RRType::kNS)) {
        return ns;
      }
    }
  }
  if (node != nullptr) {
    *node = at;
  }
  return nullptr;
}

bool Zone::is_delegated(const Name& name) const {
  return name.is_subdomain_of(origin_) && find_zone_cut(name) != nullptr;
}

void Zone::attach_glue(std::span<const ResourceRecord> ns_records,
                       std::vector<ResourceRecord>& additionals) const {
  for (const auto& rr : ns_records) {
    if (rr.type() != RRType::kNS) {
      continue;  // signed answers interleave RRSIGs with the NS records
    }
    const auto& target = std::get<NsRdata>(rr.rdata).nsdname;
    if (!target.is_subdomain_of(origin_)) {
      continue;  // out-of-bailiwick: no glue available in this zone
    }
    for (RRType type : {RRType::kA, RRType::kAAAA}) {
      if (const RRset* glue = find_rrset(target, type)) {
        append_records(*glue, additionals);
      }
    }
  }
}

void Zone::append_soa_to(std::vector<ResourceRecord>& authorities) const {
  if (auto soa_rr = soa()) {
    authorities.push_back(std::move(*soa_rr));
  }
}

LookupResult Zone::lookup(const Name& qname, RRType qtype) const {
  Message sections;
  const LookupResult::Kind kind = lookup(qname, qtype, sections);
  return LookupResult{kind,
                      kind != LookupResult::Kind::kDelegation &&
                          kind != LookupResult::Kind::kNotInZone,
                      std::move(sections.answers),
                      std::move(sections.authorities),
                      std::move(sections.additionals)};
}

LookupResult::Kind Zone::lookup_internal(const Name& qname, RRType qtype,
                                         int cname_depth,
                                         Message& reply) const {
  using Kind = LookupResult::Kind;
  if (!qname.is_subdomain_of(origin_)) {
    return Kind::kNotInZone;
  }
  // A chased CNAME target contributes its answers only.
  const bool chase = cname_depth > 0;
  std::vector<ResourceRecord>& answers = reply.answers;

  // Delegation check: a zone cut strictly above or at qname ends our
  // authority (RFC 1034 §4.3.2 step 3b).
  const Node* node = nullptr;
  if (const RRset* cut = find_zone_cut(qname, &node)) {
    if (!chase) {
      const std::size_t first = reply.authorities.size();
      append_records(*cut, reply.authorities);
      attach_glue(std::span(reply.authorities).subspan(first),
                  reply.additionals);
    }
    return Kind::kDelegation;
  }

  // No entry: nothing exists at or below qname.  An entry without RRsets
  // is an empty non-terminal: the name exists (RFC 8020), with no data.
  if (node == nullptr || node->rrsets.empty()) {
    if (!chase) {
      append_soa_to(reply.authorities);
    }
    return node == nullptr ? Kind::kNxDomain : Kind::kNoData;
  }

  // CNAME takes over unless the query asked for CNAME/ANY (RFC 1034
  // §4.3.2 step 3a).
  if (qtype != RRType::kCNAME && qtype != RRType::kANY) {
    if (const RRset* cname = rrset_of(node->rrsets, RRType::kCNAME)) {
      append_records(*cname, answers);
      // Chase the chain inside this zone where possible; bounded depth
      // guards against CNAME loops (RFC 1034 warns of them).
      const auto& target =
          std::get<CnameRdata>(cname->rdatas().front()).target;
      if (cname_depth < 8 && target.is_subdomain_of(origin_) &&
          target != qname) {
        lookup_internal(target, qtype, cname_depth + 1, reply);
      }
      return Kind::kAnswer;
    }
  }

  if (qtype == RRType::kANY) {
    for (const auto& rrset : node->rrsets) {
      append_records(rrset, answers);
    }
    return Kind::kAnswer;
  }

  if (const RRset* rrset = rrset_of(node->rrsets, qtype)) {
    const std::size_t first = answers.size();
    append_records(*rrset, answers);
    // Covering RRSIGs ride along with signed answers (DNSSEC-lite).
    if (qtype != RRType::kRRSIG) {
      if (const RRset* sigs = rrset_of(node->rrsets, RRType::kRRSIG)) {
        for (const auto& rdata : sigs->rdatas()) {
          if (std::get<Shared<RrsigRdata>>(rdata)->type_covered == qtype) {
            answers.push_back(
                ResourceRecord{qname, sigs->rclass(), sigs->ttl(), rdata});
          }
        }
      }
    }
    if (chase) {
      return Kind::kAnswer;
    }
    // Helpful additionals, as real servers send them: addresses for NS/MX
    // targets inside the zone (the paper's Table 1 "Add." rows).
    const auto own = std::span<const ResourceRecord>(answers).subspan(first);
    if (qtype == RRType::kNS) {
      attach_glue(own, reply.additionals);
    } else if (qtype == RRType::kMX) {
      for (const auto& rr : own) {
        if (rr.type() != RRType::kMX) {
          continue;
        }
        const auto& exchange = std::get<MxRdata>(rr.rdata).exchange;
        if (!exchange.is_subdomain_of(origin_)) {
          continue;
        }
        for (RRType type : {RRType::kA, RRType::kAAAA}) {
          if (const RRset* addr = find_rrset(exchange, type)) {
            append_records(*addr, reply.additionals);
          }
        }
      }
    }
    return Kind::kAnswer;
  }

  // Node exists but not this type: NODATA.
  if (!chase) {
    append_soa_to(reply.authorities);
  }
  return Kind::kNoData;
}

std::vector<RRset> Zone::all_rrsets() const {
  std::vector<const Nodes::Item*> owners;
  owners.reserve(nodes_.size());
  nodes_.for_each([&owners](const Nodes::Item& item) {
    owners.push_back(&item);
  });
  std::sort(owners.begin(), owners.end(),
            [](const Nodes::Item* a, const Nodes::Item* b) {
              return a->value.name < b->value.name;
            });
  std::vector<RRset> out;
  out.reserve(rrset_count_);
  for (const Nodes::Item* owner : owners) {
    out.insert(out.end(), owner->value.rrsets.begin(),
               owner->value.rrsets.end());
  }
  return out;
}

bool Zone::bump_serial() {
  RRset* soa = find_rrset(origin_, RRType::kSOA);
  if (soa == nullptr || soa->empty()) {
    return false;
  }
  // Every copy handed out before (replies, transfers) shares the old
  // payload and keeps the old serial; the zone gets a new one.
  RRset updated(origin_, soa->rclass(), soa->ttl());
  for (const auto& rdata : soa->rdatas()) {
    SoaRdata bumped = *std::get<Shared<SoaRdata>>(rdata);
    ++bumped.serial;
    updated.add(std::move(bumped));
  }
  *soa = std::move(updated);
  if constexpr (check::kAuditEnabled) {
    validate();
  }
  return true;
}

std::optional<ResourceRecord> Zone::soa() const {
  const RRset* soa = find_rrset(origin_, RRType::kSOA);
  if (soa == nullptr || soa->empty()) {
    return std::nullopt;
  }
  return ResourceRecord{soa->name(), soa->rclass(), soa->ttl(),
                        soa->rdatas().front()};
}

void Zone::clear() {
  nodes_.clear();
  rrset_count_ = 0;
  if constexpr (check::kAuditEnabled) {
    validate();
  }
}

void Zone::validate() const {
  constexpr const char* kWhat = "dns::Zone";
  nodes_.validate(kWhat);
  std::size_t rrsets = 0;
  std::unordered_map<const Node*, std::uint32_t> children;
  nodes_.for_each([&](const Nodes::Item& item) {
    const Node& node = item.value;
    const Name& name = node.name;
    // Failure details only: DNSTTL_AUDIT_CHECK evaluates them on failure.
    const auto owner = [&name] { return name.to_string(); };
    DNSTTL_AUDIT_CHECK(kWhat, name.is_subdomain_of(origin_),
                       "entry " + owner() + " not under the origin");
    DNSTTL_AUDIT_CHECK(kWhat, !node.rrsets.empty() || node.children > 0,
                       "entry " + owner() + " has neither RRsets nor children");
    for (std::size_t i = 0; i < node.rrsets.size(); ++i) {
      const RRset& rrset = node.rrsets[i];
      DNSTTL_AUDIT_CHECK(kWhat, !rrset.empty(),
                         "empty RRset stored at " + owner());
      DNSTTL_AUDIT_CHECK(kWhat, rrset.name() == name,
                         "RRset owner disagrees with its entry " + owner());
      DNSTTL_AUDIT_CHECK(kWhat,
                         i == 0 || node.rrsets[i - 1].type() < rrset.type(),
                         "RRsets at " + owner() + " not in strict type order");
    }
    rrsets += node.rrsets.size();
    if (name.label_count() > origin_.label_count()) {
      const Node* parent = find_node(ancestor(name, name.label_count() - 1));
      DNSTTL_AUDIT_CHECK(kWhat, parent != nullptr,
                         "entry " + owner() + " has no parent entry");
      ++children[parent];
    }
  });
  nodes_.for_each([&](const Nodes::Item& item) {
    const auto it = children.find(&item.value);
    const std::uint32_t below = it == children.end() ? 0 : it->second;
    DNSTTL_AUDIT_CHECK(kWhat, item.value.children == below,
                       "child count " + std::to_string(item.value.children) +
                           " at " + item.value.name.to_string() + " vs " +
                           std::to_string(below) + " entries below");
  });
  DNSTTL_AUDIT_CHECK(kWhat, rrsets == rrset_count_,
                     "RRset count " + std::to_string(rrset_count_) + " vs " +
                         std::to_string(rrsets) + " stored");
  check::count_audit();
}

}  // namespace dnsttl::dns
