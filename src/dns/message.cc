#include "dns/message.h"

#include <stdexcept>

namespace dnsttl::dns {

std::string Question::to_string() const {
  return qname.to_string() + " " + std::string(dns::to_string(qclass)) + " " +
         std::string(dns::to_string(qtype));
}

Message Message::make_query(std::uint16_t id, const Name& qname,
                            RRType qtype, bool recursion_desired) {
  Message m;
  m.set_query(id, qname, qtype, recursion_desired);
  return m;
}

void Message::set_query(std::uint16_t query_id, const Name& qname,
                        RRType qtype, bool recursion_desired) {
  clear();
  id = query_id;
  flags.rd = recursion_desired;
  questions.push_back(Question{qname, qtype, RClass::kIN});
}

void Message::clear() noexcept {
  id = 0;
  flags = HeaderFlags{};
  questions.clear();
  answers.clear();
  authorities.clear();
  additionals.clear();
}

void Message::add_edns(std::uint16_t udp_payload_size) {
  OptRdata opt;
  opt.udp_payload_size = udp_payload_size;
  // The OPT owner is the root and its "class" field carries the size; the
  // simulator keeps the size in the rdata and the TTL field zero.
  additionals.push_back(ResourceRecord{Name{}, RClass::kIN, Ttl{0}, opt});
}

std::optional<std::uint16_t> Message::edns_udp_size() const {
  for (const auto& rr : additionals) {
    if (rr.type() == RRType::kOPT) {
      return std::get<OptRdata>(rr.rdata).udp_payload_size;
    }
  }
  return std::nullopt;
}

Message Message::make_response(const Message& query) {
  Message m;
  m.set_response(query);
  return m;
}

void Message::set_response(const Message& query) {
  clear();
  id = query.id;
  flags.qr = true;
  flags.opcode = query.flags.opcode;
  flags.rd = query.flags.rd;
  questions = query.questions;
}

const std::vector<ResourceRecord>& Message::section(Section s) const {
  switch (s) {
    case Section::kAnswer:
      return answers;
    case Section::kAuthority:
      return authorities;
    case Section::kAdditional:
      return additionals;
    case Section::kQuestion:
      break;
  }
  throw std::invalid_argument("question section holds no records");
}

std::vector<ResourceRecord>& Message::section(Section s) {
  return const_cast<std::vector<ResourceRecord>&>(
      static_cast<const Message*>(this)->section(s));
}

std::optional<RRset> Message::answer_rrset(const Name& name,
                                           RRType type) const {
  std::vector<ResourceRecord> matching;
  for (const auto& rr : answers) {
    if (rr.name == name && rr.type() == type) {
      matching.push_back(rr);
    }
  }
  if (matching.empty()) {
    return std::nullopt;
  }
  return RRset::from_records(matching);
}

const ResourceRecord* Message::first_answer(const Name& name,
                                            RRType type) const {
  for (const auto& rr : answers) {
    if (rr.name == name && rr.type() == type) {
      return &rr;
    }
  }
  return nullptr;
}

bool Message::is_referral() const {
  return answers.empty() && flags.rcode == Rcode::kNoError &&
         !authorities.empty() && !flags.aa;
}

std::string Message::to_string() const {
  std::string out;
  out += ";; id " + std::to_string(id) + " " +
         std::string(dns::to_string(flags.rcode));
  if (flags.qr) out += " qr";
  if (flags.aa) out += " aa";
  if (flags.tc) out += " tc";
  if (flags.rd) out += " rd";
  if (flags.ra) out += " ra";
  out += "\n;; QUESTION\n";
  for (const auto& q : questions) {
    out += ";" + q.to_string() + "\n";
  }
  auto dump = [&out](const char* title,
                     const std::vector<ResourceRecord>& rrs) {
    if (rrs.empty()) {
      return;
    }
    out += std::string(";; ") + title + "\n";
    for (const auto& rr : rrs) {
      out += rr.to_string() + "\n";
    }
  };
  dump("ANSWER", answers);
  dump("AUTHORITY", authorities);
  dump("ADDITIONAL", additionals);
  return out;
}

}  // namespace dnsttl::dns
