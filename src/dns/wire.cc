#include "dns/wire.h"

#include <array>
#include <cstring>
#include <optional>
#include <string_view>
#include <unordered_map>

namespace dnsttl::dns {

namespace {

constexpr std::uint16_t kPointerMask = 0xc000;
constexpr std::size_t kMaxPointerTarget = 0x3fff;
constexpr std::size_t kMaxRdataLength = 0xffff;

/// Encoder sink that keeps the bytes (encode()).  A sink's kCompresses
/// says whether the writer compresses names into it.
class ByteSink {
 public:
  static constexpr bool kCompresses = true;

  void put(std::uint8_t byte) { bytes_.push_back(byte); }
  void put(std::string_view data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }
  void patch_u16(std::size_t offset, std::uint16_t value) {
    bytes_[offset] = static_cast<std::uint8_t>(value >> 8);
    bytes_[offset + 1] = static_cast<std::uint8_t>(value & 0xff);
  }
  std::size_t size() const noexcept { return bytes_.size(); }
  std::vector<std::uint8_t> take() && { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Encoder sink that only counts the bytes (encoded_size()).
class CountingSink {
 public:
  static constexpr bool kCompresses = true;

  void put(std::uint8_t) { ++size_; }
  void put(std::string_view data) { size_ += data.size(); }
  void patch_u16(std::size_t, std::uint16_t) {}
  std::size_t size() const noexcept { return size_; }

 private:
  std::size_t size_ = 0;
};

/// Counts the bytes of the message written with every name in full
/// (uncompressed_size()).
class UncompressedCountingSink : public CountingSink {
 public:
  static constexpr bool kCompresses = false;
};

/// Name suffixes already written and their offsets: the RFC 1035 §4.1.4
/// pointer targets.  A suffix is a view of the trailing labels of a Name
/// in the message being encoded (Name's flat buffer is the uncompressed
/// wire form), so keys cost no copy.  The first kInline suffixes live in
/// place and are scanned; a message with more spills into a hash map.
class CompressionTargets {
 public:
  std::optional<std::uint16_t> find(std::string_view labels) const {
    for (std::size_t i = 0; i < count_; ++i) {
      if (std::string_view(inline_[i].data, inline_[i].size) == labels) {
        return inline_[i].offset;
      }
    }
    if (!spill_.empty()) {
      if (auto it = spill_.find(labels); it != spill_.end()) {
        return it->second;
      }
    }
    return std::nullopt;
  }

  void remember(std::string_view labels, std::uint16_t offset) {
    if (count_ < kInline) {
      inline_[count_++] = Target{labels.data(), labels.size(), offset};
    } else {
      spill_.emplace(labels, offset);
    }
  }

 private:
  static constexpr std::size_t kInline = 64;
  /// Trivially constructible, so the array costs nothing until filled.
  struct Target {
    const char* data;
    std::size_t size;
    std::uint16_t offset;
  };

  std::array<Target, kInline> inline_;
  std::size_t count_ = 0;
  std::unordered_map<std::string_view, std::uint16_t> spill_;
};

/// Serializes DNS data into RFC 1035 wire format with name compression.
/// One writer encodes one message: the Names it is given must outlive it,
/// because the compression targets view their labels.
template <typename Sink>
class Writer {
 public:
  void u8(std::uint8_t value) { sink_.put(value); }
  void u16(std::uint16_t value) {
    sink_.put(static_cast<std::uint8_t>(value >> 8));
    sink_.put(static_cast<std::uint8_t>(value & 0xff));
  }
  void u32(std::uint32_t value) {
    u16(static_cast<std::uint16_t>(value >> 16));
    u16(static_cast<std::uint16_t>(value & 0xffff));
  }
  void bytes(std::string_view data) { sink_.put(data); }
  void bytes(std::span<const std::uint8_t> data) {
    sink_.put(std::string_view(reinterpret_cast<const char*>(data.data()),
                               data.size()));
  }

  /// Writes @p name, ending in a compression pointer at the longest suffix
  /// already written, and remembers each suffix it writes out in full (in
  /// full only, into a sink that does not compress).
  void name(const Name& name) {
    if constexpr (!Sink::kCompresses) {
      name_uncompressed(name);
      return;
    }
    std::string_view labels = name.view().labels();
    while (!labels.empty()) {
      if (auto target = targets_.find(labels)) {
        u16(static_cast<std::uint16_t>(kPointerMask | *target));
        return;
      }
      if (size() <= kMaxPointerTarget) {
        targets_.remember(labels, static_cast<std::uint16_t>(size()));
      }
      const std::size_t label_size =
          1 + static_cast<unsigned char>(labels.front());
      bytes(labels.substr(0, label_size));
      labels.remove_prefix(label_size);
    }
    u8(0);  // root label
  }

  /// Writes @p name without compression and without remembering it
  /// (required inside RDATA of types not in the RFC 3597 compression list;
  /// we compress only NS/CNAME/SOA/MX/PTR targets, like BIND).
  void name_uncompressed(const Name& name) {
    bytes(name.view().labels());
    u8(0);
  }

  /// Writes a u16 RDLENGTH placeholder and returns its offset.
  std::size_t begin_rdata() {
    const std::size_t at = size();
    u16(0);
    return at;
  }
  /// Back-fills the RDLENGTH at @p at with the octets of @p rdata
  /// written since.
  void end_rdata(std::size_t at, const Rdata& rdata) {
    const std::size_t length = size() - at - 2;
    if (length > kMaxRdataLength) {
      throw WireError("RDATA of " + std::string(to_string(rdata_type(rdata))) +
                      " is " + std::to_string(length) +
                      " octets; RDLENGTH holds at most 65535");
    }
    sink_.patch_u16(at, static_cast<std::uint16_t>(length));
  }

  std::size_t size() const noexcept { return sink_.size(); }
  Sink& sink() noexcept { return sink_; }

 private:
  Sink sink_;
  CompressionTargets targets_;
};

}  // namespace

// ---------------------------------------------------------------- WireReader

void WireReader::require(std::size_t count) const {
  // Subtraction form: `offset_ + count` could wrap for hostile counts.
  if (count > data_.size() - offset_) {
    throw WireError("truncated DNS message");
  }
}

std::uint8_t WireReader::u8() {
  require(1);
  return data_[offset_++];
}

std::uint16_t WireReader::u16() {
  require(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[offset_] << 8) |
                    data_[offset_ + 1];
  offset_ += 2;
  return v;
}

std::uint32_t WireReader::u32() {
  std::uint32_t hi = u16();
  std::uint32_t lo = u16();
  return (hi << 16) | lo;
}

std::vector<std::uint8_t> WireReader::bytes(std::size_t count) {
  require(count);
  std::vector<std::uint8_t> out(data_.begin() + static_cast<long>(offset_),
                                data_.begin() +
                                    static_cast<long>(offset_ + count));
  offset_ += count;
  return out;
}

void WireReader::seek(std::size_t offset) {
  if (offset > data_.size()) {
    throw WireError("seek past end of message");
  }
  offset_ = offset;
}

Name WireReader::name() {
  std::vector<std::string> labels;
  std::size_t cursor = offset_;
  bool jumped = false;
  std::size_t jumps = 0;
  std::size_t total = 0;  // accumulated label + length octets

  while (true) {
    if (cursor >= data_.size()) {
      throw WireError("name runs past end of message");
    }
    std::uint8_t len = data_[cursor];
    if ((len & 0xc0) == 0xc0) {
      if (cursor + 1 >= data_.size()) {
        throw WireError("truncated compression pointer");
      }
      std::size_t target = (static_cast<std::size_t>(len & 0x3f) << 8) |
                           data_[cursor + 1];
      if (!jumped) {
        offset_ = cursor + 2;
        jumped = true;
      }
      if (++jumps > 128 || target >= cursor) {
        throw WireError("compression pointer loop");
      }
      cursor = target;
      continue;
    }
    if ((len & 0xc0) != 0) {
      throw WireError("reserved label type");
    }
    if (len == 0) {
      if (!jumped) {
        offset_ = cursor + 1;
      }
      break;
    }
    if (cursor + 1 + len > data_.size()) {
      throw WireError("label runs past end of message");
    }
    // RFC 1035 §3.1: 255 octets including the terminating root octet.
    // Compression pointers can stitch together labels whose sum exceeds
    // what any contiguous encoding could hold; enforce the limit here so
    // malformed input surfaces as WireError, not as a Name constructor
    // failure deep in the call chain.
    total += 1 + static_cast<std::size_t>(len);
    if (total + 1 > 255) {
      throw WireError("name exceeds 255 octets");
    }
    labels.emplace_back(
        reinterpret_cast<const char*>(data_.data() + cursor + 1), len);
    cursor += 1 + len;
  }
  try {
    return Name{std::move(labels)};
  } catch (const std::invalid_argument& error) {
    // Wire labels are arbitrary bytes; the ones Name cannot represent
    // (e.g. a '.' inside a label) are malformed input to this codec, not a
    // library bug: report them on decode()'s documented error channel.
    throw WireError(std::string("unrepresentable name in message: ") +
                    error.what());
  }
}

// ------------------------------------------------------------ RDATA codecs

namespace {

template <typename Sink>
void encode_rdata(Writer<Sink>& w, const Rdata& rdata) {
  const std::size_t rdlength_at = w.begin_rdata();

  std::visit(
      [&w](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, ARdata>) {
          w.u32(v.address.value());
        } else if constexpr (std::is_same_v<T, AaaaRdata>) {
          w.bytes(std::span(v.address.octets().data(), 16));
        } else if constexpr (std::is_same_v<T, NsRdata>) {
          w.name(v.nsdname);
        } else if constexpr (std::is_same_v<T, CnameRdata>) {
          w.name(v.target);
        } else if constexpr (std::is_same_v<T, Shared<SoaRdata>>) {
          w.name(v->mname);
          w.name(v->rname);
          w.u32(v->serial);
          w.u32(v->refresh.raw());
          w.u32(v->retry.raw());
          w.u32(v->expire.raw());
          w.u32(v->minimum.raw());
        } else if constexpr (std::is_same_v<T, MxRdata>) {
          w.u16(v.preference);
          w.name(v.exchange);
        } else if constexpr (std::is_same_v<T, TxtRdata>) {
          // character-strings of <=255 bytes each
          std::string_view rest = v.text;
          do {
            std::string_view chunk = rest.substr(0, 255);
            rest.remove_prefix(chunk.size());
            w.u8(static_cast<std::uint8_t>(chunk.size()));
            w.bytes(chunk);
          } while (!rest.empty());
        } else if constexpr (std::is_same_v<T, PtrRdata>) {
          w.name(v.target);
        } else if constexpr (std::is_same_v<T, SrvRdata>) {
          w.u16(v.priority);
          w.u16(v.weight);
          w.u16(v.port);
          w.name_uncompressed(v.target);  // RFC 2782: no compression
        } else if constexpr (std::is_same_v<T, DnskeyRdata>) {
          w.u16(v.flags);
          w.u8(v.protocol);
          w.u8(v.algorithm);
          w.bytes(v.public_key);
        } else if constexpr (std::is_same_v<T, Shared<RrsigRdata>>) {
          w.u16(static_cast<std::uint16_t>(v->type_covered));
          w.u8(v->algorithm);
          w.u8(v->labels);
          w.u32(v->original_ttl.raw());
          w.u32(v->expiration);
          w.u32(v->inception);
          w.u16(v->key_tag);
          w.name_uncompressed(v->signer);  // RFC 4034 §3.1.7: no compression
          w.bytes(v->signature);
        } else if constexpr (std::is_same_v<T, OptRdata>) {
          // OPT carries its payload size in the CLASS field; RDATA empty.
        }
      },
      rdata);

  w.end_rdata(rdlength_at, rdata);
}

// Bytes left before @p end; throws if earlier fields already overran the
// RDATA window (e.g. an RRSIG whose RDLENGTH is shorter than the fixed
// header), which would otherwise underflow to a near-SIZE_MAX count.
std::size_t remaining_rdata(const WireReader& r, std::size_t end) {
  if (r.offset() > end) {
    throw WireError("RDATA fields overrun RDLENGTH");
  }
  return end - r.offset();
}

Rdata decode_rdata(WireReader& r, RRType type, std::size_t rdlength) {
  std::size_t end = r.offset() + rdlength;
  Rdata out;
  switch (type) {
    case RRType::kA: {
      out = ARdata{Ipv4{r.u32()}};
      break;
    }
    case RRType::kAAAA: {
      auto raw = r.bytes(16);
      std::array<std::uint8_t, 16> octets{};
      std::memcpy(octets.data(), raw.data(), 16);
      out = AaaaRdata{Ipv6{octets}};
      break;
    }
    case RRType::kNS:
      out = NsRdata{r.name()};
      break;
    case RRType::kCNAME:
      out = CnameRdata{r.name()};
      break;
    case RRType::kSOA: {
      SoaRdata soa;
      soa.mname = r.name();
      soa.rname = r.name();
      soa.serial = r.u32();
      soa.refresh = WireTtl{r.u32()};
      soa.retry = WireTtl{r.u32()};
      soa.expire = WireTtl{r.u32()};
      soa.minimum = WireTtl{r.u32()};
      out = std::move(soa);
      break;
    }
    case RRType::kMX: {
      MxRdata mx;
      mx.preference = r.u16();
      mx.exchange = r.name();
      out = std::move(mx);
      break;
    }
    case RRType::kTXT: {
      TxtRdata txt;
      while (r.offset() < end) {
        std::uint8_t len = r.u8();
        auto chunk = r.bytes(len);
        txt.text.append(reinterpret_cast<const char*>(chunk.data()),
                        chunk.size());
      }
      out = std::move(txt);
      break;
    }
    case RRType::kPTR:
      out = PtrRdata{r.name()};
      break;
    case RRType::kSRV: {
      SrvRdata srv;
      srv.priority = r.u16();
      srv.weight = r.u16();
      srv.port = r.u16();
      srv.target = r.name();
      out = std::move(srv);
      break;
    }
    case RRType::kDNSKEY: {
      DnskeyRdata key;
      key.flags = r.u16();
      key.protocol = r.u8();
      key.algorithm = r.u8();
      auto raw = r.bytes(remaining_rdata(r, end));
      key.public_key.assign(reinterpret_cast<const char*>(raw.data()),
                            raw.size());
      out = std::move(key);
      break;
    }
    case RRType::kRRSIG: {
      RrsigRdata sig;
      sig.type_covered = static_cast<RRType>(r.u16());
      sig.algorithm = r.u8();
      sig.labels = r.u8();
      sig.original_ttl = WireTtl{r.u32()};
      sig.expiration = r.u32();
      sig.inception = r.u32();
      sig.key_tag = r.u16();
      sig.signer = r.name();
      auto raw = r.bytes(remaining_rdata(r, end));
      sig.signature.assign(reinterpret_cast<const char*>(raw.data()),
                           raw.size());
      out = std::move(sig);
      break;
    }
    case RRType::kOPT: {
      r.bytes(rdlength);  // ignore EDNS options
      out = OptRdata{};
      break;
    }
    default:
      throw WireError("cannot decode RDATA of type " +
                      std::string(to_string(type)));
  }
  if (r.offset() != end) {
    throw WireError("RDLENGTH mismatch decoding " +
                    std::string(to_string(type)));
  }
  return out;
}

template <typename Sink>
void encode_rr(Writer<Sink>& w, const ResourceRecord& rr) {
  w.name(rr.name);
  w.u16(static_cast<std::uint16_t>(rr.type()));
  w.u16(static_cast<std::uint16_t>(rr.rclass));
  w.u32(rr.ttl.value());
  encode_rdata(w, rr.rdata);
}

ResourceRecord decode_rr(WireReader& r) {
  ResourceRecord rr;
  rr.name = r.name();
  auto type = static_cast<RRType>(r.u16());
  rr.rclass = static_cast<RClass>(r.u16());
  rr.ttl = Ttl::from_wire(r.u32());
  std::uint16_t rdlength = r.u16();
  rr.rdata = decode_rdata(r, type, rdlength);
  return rr;
}

}  // namespace

// ------------------------------------------------------------ full message

namespace {

template <typename Sink>
void encode_message(Writer<Sink>& w, const Message& m) {
  w.u16(m.id);

  std::uint16_t flags = 0;
  if (m.flags.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(m.flags.opcode) & 0xf) << 11);
  if (m.flags.aa) flags |= 0x0400;
  if (m.flags.tc) flags |= 0x0200;
  if (m.flags.rd) flags |= 0x0100;
  if (m.flags.ra) flags |= 0x0080;
  flags |= static_cast<std::uint16_t>(m.flags.rcode) & 0xf;
  w.u16(flags);

  w.u16(static_cast<std::uint16_t>(m.questions.size()));
  w.u16(static_cast<std::uint16_t>(m.answers.size()));
  w.u16(static_cast<std::uint16_t>(m.authorities.size()));
  w.u16(static_cast<std::uint16_t>(m.additionals.size()));

  for (const auto& q : m.questions) {
    w.name(q.qname);
    w.u16(static_cast<std::uint16_t>(q.qtype));
    w.u16(static_cast<std::uint16_t>(q.qclass));
  }
  for (const auto& rr : m.answers) encode_rr(w, rr);
  for (const auto& rr : m.authorities) encode_rr(w, rr);
  for (const auto& rr : m.additionals) encode_rr(w, rr);
}

}  // namespace

std::vector<std::uint8_t> encode(const Message& message) {
  Writer<ByteSink> w;
  encode_message(w, message);
  return std::move(w.sink()).take();
}

std::size_t encoded_size(const Message& message) {
  Writer<CountingSink> w;
  encode_message(w, message);
  return w.size();
}

std::size_t uncompressed_size(const Message& message) {
  Writer<UncompressedCountingSink> w;
  encode_message(w, message);
  return w.size();
}

Message decode(std::span<const std::uint8_t> wire) {
  WireReader r(wire);
  Message m;
  m.id = r.u16();
  std::uint16_t flags = r.u16();
  m.flags.qr = (flags & 0x8000) != 0;
  m.flags.opcode = static_cast<Opcode>((flags >> 11) & 0xf);
  m.flags.aa = (flags & 0x0400) != 0;
  m.flags.tc = (flags & 0x0200) != 0;
  m.flags.rd = (flags & 0x0100) != 0;
  m.flags.ra = (flags & 0x0080) != 0;
  m.flags.rcode = static_cast<Rcode>(flags & 0xf);

  std::uint16_t qd = r.u16();
  std::uint16_t an = r.u16();
  std::uint16_t ns = r.u16();
  std::uint16_t ar = r.u16();

  for (std::uint16_t i = 0; i < qd; ++i) {
    Question q;
    q.qname = r.name();
    q.qtype = static_cast<RRType>(r.u16());
    q.qclass = static_cast<RClass>(r.u16());
    m.questions.push_back(std::move(q));
  }
  for (std::uint16_t i = 0; i < an; ++i) m.answers.push_back(decode_rr(r));
  for (std::uint16_t i = 0; i < ns; ++i) m.authorities.push_back(decode_rr(r));
  for (std::uint16_t i = 0; i < ar; ++i) m.additionals.push_back(decode_rr(r));
  return m;
}

}  // namespace dnsttl::dns
