#ifndef DNSTTL_DNS_RDATA_H
#define DNSTTL_DNS_RDATA_H

#include <array>
#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>

#include "dns/name.h"
#include "dns/types.h"

namespace dnsttl::dns {

/// IPv4 address, host byte order.
class Ipv4 {
 public:
  constexpr Ipv4() = default;
  constexpr explicit Ipv4(std::uint32_t value) : value_(value) {}
  constexpr Ipv4(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                 std::uint8_t d)
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
               (std::uint32_t{c} << 8) | d) {}

  /// Parses dotted-quad text; throws std::invalid_argument on bad input.
  static Ipv4 from_string(std::string_view text);

  std::string to_string() const;
  constexpr std::uint32_t value() const noexcept { return value_; }

  auto operator<=>(const Ipv4&) const = default;

 private:
  std::uint32_t value_ = 0;
};

/// IPv6 address, network byte order octets.
class Ipv6 {
 public:
  Ipv6() { octets_.fill(0); }
  explicit Ipv6(std::array<std::uint8_t, 16> octets) : octets_(octets) {}

  /// Parses RFC 4291 text form, including "::" compression.  Throws
  /// std::invalid_argument on malformed input.  (No embedded-IPv4 form.)
  static Ipv6 from_string(std::string_view text);

  /// Canonical lower-case text with best "::" compression (RFC 5952).
  std::string to_string() const;

  const std::array<std::uint8_t, 16>& octets() const noexcept {
    return octets_;
  }

  auto operator<=>(const Ipv6&) const = default;

 private:
  std::array<std::uint8_t, 16> octets_;
};

/// Typed RDATA payloads.  Each mirrors the RFC 1035 / 3596 / 4034 layout.
struct ARdata {
  Ipv4 address;
  auto operator<=>(const ARdata&) const = default;
};

struct AaaaRdata {
  Ipv6 address;
  auto operator<=>(const AaaaRdata&) const = default;
};

struct NsRdata {
  Name nsdname;
  auto operator<=>(const NsRdata&) const = default;
};

struct CnameRdata {
  Name target;
  auto operator<=>(const CnameRdata&) const = default;
};

struct SoaRdata {
  Name mname;
  Name rname;
  std::uint32_t serial = 0;
  WireTtl refresh{7200};
  WireTtl retry{3600};
  WireTtl expire{1209600};
  WireTtl minimum{3600};  // negative-caching TTL (RFC 2308)
  auto operator<=>(const SoaRdata&) const = default;
};

struct MxRdata {
  std::uint16_t preference = 10;
  Name exchange;
  auto operator<=>(const MxRdata&) const = default;
};

struct TxtRdata {
  std::string text;
  auto operator<=>(const TxtRdata&) const = default;
};

/// PTR (RFC 1035 §3.3.12): reverse-mapping target name.
struct PtrRdata {
  Name target;
  auto operator<=>(const PtrRdata&) const = default;
};

/// SRV (RFC 2782): service location — the "service location lookups" of
/// the paper's introduction.
struct SrvRdata {
  std::uint16_t priority = 0;
  std::uint16_t weight = 0;
  std::uint16_t port = 0;
  Name target;
  auto operator<=>(const SrvRdata&) const = default;
};

struct DnskeyRdata {
  std::uint16_t flags = 256;  // ZSK
  std::uint8_t protocol = 3;
  std::uint8_t algorithm = 8;  // RSASHA256
  std::string public_key;
  auto operator<=>(const DnskeyRdata&) const = default;
};

struct RrsigRdata {
  RRType type_covered = RRType::kA;
  std::uint8_t algorithm = 8;
  std::uint8_t labels = 0;
  // RFC 4034 §3.1.4: hashed into the signature bit-exactly, so it stays a
  // WireTtl (no RFC 2181 clamp) until a validator calls `.clamped()`.
  WireTtl original_ttl{};
  std::uint32_t expiration = 0;
  std::uint32_t inception = 0;
  std::uint16_t key_tag = 0;
  Name signer;
  std::string signature;
  auto operator<=>(const RrsigRdata&) const = default;
};

/// OPT pseudo-record payload (RFC 6891); carries only the UDP size here.
struct OptRdata {
  std::uint16_t udp_payload_size = 1232;
  auto operator<=>(const OptRdata&) const = default;
};

/// An immutable payload held out of line, one block that every copy
/// shares: copying a Shared adds a reference and never allocates.  The
/// wide, rare SOA (120 B) and RRSIG (104 B) payloads live this way, so a
/// Rdata is sized by its common narrow alternatives.  Equality and
/// ordering compare the payloads' values.  There is no mutable access: a
/// writer builds a new payload (Zone::bump_serial does).
template <typename T>
class Shared {
 public:
  /// Implicit, so `Rdata{SoaRdata{...}}` builds the shared payload.
  Shared(T value)
      : payload_(std::make_shared<const T>(std::move(value))) {}

  const T& operator*() const noexcept { return *payload_; }
  const T* operator->() const noexcept { return payload_.get(); }

  friend bool operator==(const Shared& a, const Shared& b) {
    return a.payload_ == b.payload_ || *a == *b;
  }
  friend auto operator<=>(const Shared& a, const Shared& b) {
    return *a <=> *b;
  }

 private:
  std::shared_ptr<const T> payload_;
};

using Rdata = std::variant<ARdata, AaaaRdata, NsRdata, CnameRdata,
                           Shared<SoaRdata>, MxRdata, TxtRdata, PtrRdata,
                           SrvRdata, DnskeyRdata, Shared<RrsigRdata>,
                           OptRdata>;
static_assert(sizeof(Rdata) == 64,
              "a Rdata is its widest inline alternative (MX, SRV: 56 B) "
              "plus the index; SOA and RRSIG live out of line");

/// The RRType corresponding to the active alternative of @p rdata.
RRType rdata_type(const Rdata& rdata);

/// Presentation format of the RDATA fields (without owner/TTL/class/type).
std::string rdata_to_string(const Rdata& rdata);

}  // namespace dnsttl::dns

#endif  // DNSTTL_DNS_RDATA_H
