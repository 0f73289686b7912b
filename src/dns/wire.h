#ifndef DNSTTL_DNS_WIRE_H
#define DNSTTL_DNS_WIRE_H

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dns/message.h"
#include "dns/name.h"

namespace dnsttl::dns {

/// Thrown on malformed wire data (truncation, bad pointers, bad lengths),
/// and by the encoder on a record the wire format cannot carry.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Reads RFC 1035 wire format; bounds-checked, loop-safe pointer chasing.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::vector<std::uint8_t> bytes(std::size_t count);

  /// Decodes a (possibly compressed) domain name at the cursor.
  Name name();

  std::size_t offset() const noexcept { return offset_; }
  std::size_t remaining() const noexcept { return data_.size() - offset_; }
  bool at_end() const noexcept { return offset_ == data_.size(); }
  void seek(std::size_t offset);

 private:
  void require(std::size_t count) const;

  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
};

/// Encodes a full message into RFC 1035 wire format, compressing names
/// (§4.1.4) against every suffix already written whose offset fits the
/// 14-bit pointer space.  Throws WireError when one record's RDATA exceeds
/// the 65535 octets RDLENGTH can state.
std::vector<std::uint8_t> encode(const Message& message);

/// Decodes a full message; throws WireError on malformed input.
Message decode(std::span<const std::uint8_t> wire);

/// encode(message).size(), computed by the same encoder writing into a
/// counter instead of a buffer: no bytes stored, and for messages with up
/// to 64 distinct name suffixes, no allocation.  Throws as encode() does.
std::size_t encoded_size(const Message& message);

/// The size encode() would reach without name compression: header plus,
/// per question and record, the owner's full wire length and its fixed
/// fields and RDATA.  A compression pointer never makes a name longer, so
/// this bounds encoded_size() from above at a fraction of its cost.
/// Throws as encode() does.
std::size_t uncompressed_size(const Message& message);

}  // namespace dnsttl::dns

#endif  // DNSTTL_DNS_WIRE_H
