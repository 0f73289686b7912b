#ifndef DNSTTL_DNS_MESSAGE_H
#define DNSTTL_DNS_MESSAGE_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dns/name.h"
#include "dns/rr.h"
#include "dns/types.h"

namespace dnsttl::dns {

/// A question entry (RFC 1035 §4.1.2).
struct Question {
  Name qname;
  RRType qtype = RRType::kA;
  RClass qclass = RClass::kIN;

  std::string to_string() const;
  bool operator==(const Question&) const = default;
};

/// Header flags (RFC 1035 §4.1.1).
struct HeaderFlags {
  bool qr = false;  ///< response flag
  Opcode opcode = Opcode::kQuery;
  bool aa = false;  ///< authoritative answer
  bool tc = false;  ///< truncated
  bool rd = true;   ///< recursion desired
  bool ra = false;  ///< recursion available
  Rcode rcode = Rcode::kNoError;

  bool operator==(const HeaderFlags&) const = default;
};

/// A complete DNS message with the four RFC 1035 sections.
///
/// This is the single unit exchanged between stubs, recursive resolvers and
/// authoritative servers throughout the simulator; the same struct round-trips
/// through the RFC 1035 wire codec (wire.h).
struct Message {
  std::uint16_t id = 0;
  HeaderFlags flags;
  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authorities;
  std::vector<ResourceRecord> additionals;

  /// Builds a standard recursive query for (qname, qtype).
  static Message make_query(std::uint16_t id, const Name& qname, RRType qtype,
                            bool recursion_desired = true);

  /// Rewrites this message in place into make_query(query_id, qname,
  /// qtype, recursion_desired), keeping the capacity of its sections.
  void set_query(std::uint16_t query_id, const Name& qname, RRType qtype,
                 bool recursion_desired = true);

  /// Back to a default-constructed message (id 0, default flags, no
  /// question or records), keeping the capacity of its sections.
  void clear() noexcept;

  /// Adds an EDNS0 OPT pseudo-record advertising @p udp_payload_size
  /// (RFC 6891).  Without one, a server must assume the 512-byte RFC 1035
  /// limit.
  void add_edns(std::uint16_t udp_payload_size = 1232);

  /// The advertised EDNS0 UDP payload size, or nullopt if no OPT present.
  std::optional<std::uint16_t> edns_udp_size() const;

  /// Starts a response to @p query: copies id and question, sets QR.
  static Message make_response(const Message& query);

  /// Rewrites this message in place into make_response(@p query), keeping
  /// the capacity of its sections.  @p query must be another message.
  void set_response(const Message& query);

  const Question& question() const { return questions.at(0); }

  /// Records of the given section (questions excluded).
  const std::vector<ResourceRecord>& section(Section s) const;
  std::vector<ResourceRecord>& section(Section s);

  /// All answer-section records of (name, type), as an RRset;
  /// nullopt if none match.
  std::optional<RRset> answer_rrset(const Name& name, RRType type) const;

  /// First answer record of (@p name, @p type), without building the
  /// RRset; nullptr if absent.
  const ResourceRecord* first_answer(const Name& name, RRType type) const;

  /// True when the answer section is empty and rcode is NOERROR/NXDOMAIN —
  /// i.e. a referral or negative answer.
  bool is_referral() const;

  /// Multi-line dig-style rendering, for logs and examples.
  std::string to_string() const;

  bool operator==(const Message&) const = default;
};

}  // namespace dnsttl::dns

#endif  // DNSTTL_DNS_MESSAGE_H
