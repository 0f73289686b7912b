#include "dns/rr.h"

#include <algorithm>
#include <stdexcept>

namespace dnsttl::dns {

std::string ResourceRecord::to_string() const {
  return name.to_string() + " " + std::to_string(ttl.value()) + " " +
         std::string(dns::to_string(rclass)) + " " +
         std::string(dns::to_string(type())) + " " + rdata_to_string(rdata);
}

RRset RRset::from_records(const std::vector<ResourceRecord>& records) {
  if (records.empty()) {
    throw std::invalid_argument("cannot build RRset from zero records");
  }
  const auto& first = records.front();
  RRset set(first.name, first.rclass, first.ttl);
  for (const auto& rr : records) {
    set.add_record(rr);
  }
  return set;
}

void RRset::add_record(const ResourceRecord& rr) {
  if (rr.name != name_ || rr.rclass != rclass_ ||
      (!empty() && rr.type() != type())) {
    throw std::invalid_argument(
        "records disagree on (owner, class, type): " + rr.to_string());
  }
  ttl_ = std::min(ttl_, rr.ttl);
  add(rr.rdata);
}

std::vector<ResourceRecord> RRset::to_records() const {
  std::vector<ResourceRecord> records;
  records.reserve(rdatas_.size());
  append_records(records, ttl_);
  return records;
}

void RRset::append_records(std::vector<ResourceRecord>& out, Ttl ttl) const {
  for (const auto& rdata : rdatas_) {
    out.push_back(ResourceRecord{name_, rclass_, ttl, rdata});
  }
}

ResourceRecord make_a(const Name& name, Ttl ttl, Ipv4 address) {
  return {name, RClass::kIN, ttl, ARdata{address}};
}

ResourceRecord make_aaaa(const Name& name, Ttl ttl, Ipv6 address) {
  return {name, RClass::kIN, ttl, AaaaRdata{address}};
}

ResourceRecord make_ns(const Name& name, Ttl ttl, Name nsdname) {
  return {name, RClass::kIN, ttl, NsRdata{std::move(nsdname)}};
}

ResourceRecord make_cname(const Name& name, Ttl ttl, Name target) {
  return {name, RClass::kIN, ttl, CnameRdata{std::move(target)}};
}

ResourceRecord make_mx(const Name& name, Ttl ttl, std::uint16_t preference,
                       Name exchange) {
  return {name, RClass::kIN, ttl, MxRdata{preference, std::move(exchange)}};
}

ResourceRecord make_txt(const Name& name, Ttl ttl, std::string text) {
  return {name, RClass::kIN, ttl, TxtRdata{std::move(text)}};
}

ResourceRecord make_soa(const Name& zone, Ttl ttl, Name mname,
                        std::uint32_t serial, WireTtl minimum) {
  SoaRdata soa;
  soa.mname = std::move(mname);
  soa.rname = zone.prepend("hostmaster");
  soa.serial = serial;
  soa.minimum = minimum;
  return {zone, RClass::kIN, ttl, std::move(soa)};
}

ResourceRecord make_dnskey(const Name& zone, Ttl ttl, std::string key) {
  DnskeyRdata dnskey;
  dnskey.public_key = std::move(key);
  return {zone, RClass::kIN, ttl, std::move(dnskey)};
}

}  // namespace dnsttl::dns
