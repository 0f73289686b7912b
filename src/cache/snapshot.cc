// Deterministic cache snapshot/restore.
//
// Format (all integers little-endian, no padding):
//
//   u32  magic "dttl" (0x6c747464)
//   u16  version (1)
//   u16  reserved (must be 0)
//   u32  config.max_ttl seconds          u32  config.min_ttl seconds
//   u8   config flag bits (link_glue_to_ns=1, serve_stale=2,
//        replace_same_credibility=4, prefer_parent_delegation=8; others 0)
//   u8   config.policy                   i64  config.stale_window ticks
//   u64  config.max_entries              u64  config.lfu_halving_period
//   u64  tick (logical touch clock)
//   u64  positive count                  u64  negative count
//   positive entries, ascending last_touch (= recency chain tail -> head):
//     u64 last_touch  u64 stamp  u8 freq  u8 credibility
//     i64 inserted ticks  i64 expires ticks  u32 original_ttl seconds
//     u8 has_link [u16 owner length, owner presentation bytes,
//                  i64 linked_ns_inserted ticks]
//     u32 record blob length, blob = dns::encode(Message{answers: RRset})
//   negative entries, ascending last_touch:
//     u64 last_touch  u64 stamp  u8 freq  u8 rcode  i64 expires ticks
//     u16 name length, name presentation bytes  u16 rrtype
//   u64  FNV-1a 64 checksum of everything above
//
// The image is canonical: equal cache states serialize to equal bytes, and
// restore() rejects every non-canonical variation (non-minimal record
// encodings, reordered entries, unknown flag bits, trailing garbage), so
// snapshot(restore(image)) == image for every accepted image.  Rejection is
// the SnapshotError channel — hostile bytes are a documented error, never
// UB — and a full validate() pass seals the rebuilt structure before it
// replaces the live one.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "dns/message.h"
#include "dns/wire.h"

namespace dnsttl::cache {

namespace {

constexpr std::uint32_t kSnapshotMagic = 0x6c747464;  // "dttl"
constexpr std::uint16_t kSnapshotVersion = 1;
constexpr std::size_t kChecksumBytes = 8;

// Config flag bits.
constexpr std::uint8_t kFlagLinkGlue = 1u << 0;
constexpr std::uint8_t kFlagServeStale = 1u << 1;
constexpr std::uint8_t kFlagReplaceSame = 1u << 2;
constexpr std::uint8_t kFlagPreferParent = 1u << 3;
constexpr std::uint8_t kKnownFlags =
    kFlagLinkGlue | kFlagServeStale | kFlagReplaceSame | kFlagPreferParent;

/// Virtual-time bound accepted from a snapshot: far beyond any simulated
/// horizon but small enough that expiry/stale-window arithmetic on the
/// restored state can never overflow a signed 64-bit tick count.
constexpr std::int64_t kMaxTickMagnitude = std::int64_t{1} << 62;

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_name(std::vector<std::uint8_t>& out, const dns::Name& name) {
  const std::string text = name.to_string();
  put_u16(out, static_cast<std::uint16_t>(text.size()));
  out.insert(out.end(), text.begin(), text.end());
}

/// Bounds-checked little-endian reader over the image body; every
/// truncation is a SnapshotError.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint16_t u16() {
    need(2);
    std::uint16_t v = static_cast<std::uint16_t>(
        static_cast<std::uint16_t>(data_[pos_]) |
        static_cast<std::uint16_t>(data_[pos_ + 1]) << 8);
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  std::string str(std::size_t n) {
    need(n);
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return out;
  }

  std::span<const std::uint8_t> bytes(std::size_t n) {
    need(n);
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  bool exhausted() const noexcept { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) {
      throw SnapshotError("truncated snapshot");
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// The one canonical wire image of an RRset: a default-header message whose
/// answer section is exactly the set's records.  Snapshot writes this;
/// restore re-derives it from the parsed records and rejects any input blob
/// that differs, so non-minimal or reordered encodings cannot survive a
/// round trip.
std::vector<std::uint8_t> encode_rrset_blob(const dns::RRset& rrset) {
  dns::Message message;
  message.answers = rrset.to_records();
  return dns::encode(message);
}

std::int64_t checked_ticks(std::int64_t ticks, const char* what) {
  if (ticks < -kMaxTickMagnitude || ticks > kMaxTickMagnitude) {
    throw SnapshotError(std::string(what) + " outside the accepted range");
  }
  return ticks;
}

dns::Name checked_name(const std::string& text, const char* what) {
  dns::Name name;
  try {
    name = dns::Name::from_string(text);
  } catch (const std::exception& e) {
    throw SnapshotError(std::string(what) + ": " + e.what());
  }
  if (name.to_string() != text) {
    throw SnapshotError(std::string(what) +
                        " is not in canonical presentation form");
  }
  return name;
}

}  // namespace

std::vector<std::uint8_t> Cache::snapshot() const {
  std::vector<std::uint8_t> out;
  put_u32(out, kSnapshotMagic);
  put_u16(out, kSnapshotVersion);
  put_u16(out, 0);  // reserved
  put_u32(out, config_.max_ttl.value());
  put_u32(out, config_.min_ttl.value());
  std::uint8_t flags = 0;
  if (config_.link_glue_to_ns) flags |= kFlagLinkGlue;
  if (config_.serve_stale) flags |= kFlagServeStale;
  if (config_.replace_same_credibility) flags |= kFlagReplaceSame;
  if (config_.prefer_parent_delegation) flags |= kFlagPreferParent;
  put_u8(out, flags);
  put_u8(out, static_cast<std::uint8_t>(config_.policy));
  put_i64(out, config_.stale_window.count());
  put_u64(out, static_cast<std::uint64_t>(config_.max_entries));
  put_u64(out, config_.lfu_halving_period);
  put_u64(out, tick_);
  put_u64(out, static_cast<std::uint64_t>(entries_.size()));
  put_u64(out, static_cast<std::uint64_t>(negatives_.size()));

  // Recency chain tail -> head = ascending last_touch: the canonical entry
  // order, and exactly the order restore() re-inserts to rebuild the chain.
  for (std::size_t i = entries_.tail(); i != kNil; i = entries_.more_recent(i)) {
    const Table<Entry>::Item& item = entries_.at(i);
    const Entry& entry = item.value;
    put_u64(out, entry.last_touch);
    put_u64(out, entry.stamp);
    put_u8(out, entry.freq);
    put_u8(out, static_cast<std::uint8_t>(entry.credibility));
    put_i64(out, entry.inserted.ticks());
    put_i64(out, entry.expires.ticks());
    put_u32(out, entry.original_ttl.value());
    if (entry.linked_ns != kNoLink) {
      put_u8(out, 1);
      put_name(out, ns_links_.owner(entry.linked_ns));
      put_i64(out, entry.linked_ns_inserted.ticks());
    } else {
      put_u8(out, 0);
    }
    const std::vector<std::uint8_t> blob = encode_rrset_blob(entry.rrset);
    put_u32(out, static_cast<std::uint32_t>(blob.size()));
    out.insert(out.end(), blob.begin(), blob.end());
  }
  for (std::size_t i = negatives_.tail(); i != kNil;
       i = negatives_.more_recent(i)) {
    const Table<NegativeEntry>::Item& item = negatives_.at(i);
    const NegativeEntry& entry = item.value;
    put_u64(out, entry.last_touch);
    put_u64(out, entry.stamp);
    put_u8(out, entry.freq);
    put_u8(out, static_cast<std::uint8_t>(entry.rcode));
    put_i64(out, entry.expires.ticks());
    put_name(out, entry.name);
    put_u16(out, static_cast<std::uint16_t>(item.tag));
  }

  put_u64(out, fnv1a(out));
  return out;
}

void Cache::restore(std::span<const std::uint8_t> image) {
  if (image.size() < kChecksumBytes) {
    throw SnapshotError("snapshot shorter than its checksum");
  }
  const std::size_t body_size = image.size() - kChecksumBytes;
  Reader trailer(image.subspan(body_size));
  // Whole-image integrity first: any bit flip anywhere is caught here
  // before field-level parsing begins.
  if (trailer.u64() != fnv1a(image.first(body_size))) {
    throw SnapshotError("snapshot checksum mismatch");
  }

  Reader in(image.first(body_size));
  if (in.u32() != kSnapshotMagic) {
    throw SnapshotError("bad snapshot magic");
  }
  if (in.u16() != kSnapshotVersion) {
    throw SnapshotError("unsupported snapshot version");
  }
  if (in.u16() != 0) {
    throw SnapshotError("reserved snapshot field not zero");
  }

  Cache fresh;
  const std::uint32_t max_ttl = in.u32();
  const std::uint32_t min_ttl = in.u32();
  if (max_ttl > dns::kMaxTtlSeconds || min_ttl > dns::kMaxTtlSeconds) {
    throw SnapshotError("config TTL clamp outside the RFC 2181 range");
  }
  fresh.config_.max_ttl = dns::Ttl{max_ttl};
  fresh.config_.min_ttl = dns::Ttl{min_ttl};
  const std::uint8_t flags = in.u8();
  if ((flags & ~kKnownFlags) != 0) {
    throw SnapshotError("unknown config flag bits");
  }
  fresh.config_.link_glue_to_ns = (flags & kFlagLinkGlue) != 0;
  fresh.config_.serve_stale = (flags & kFlagServeStale) != 0;
  fresh.config_.replace_same_credibility = (flags & kFlagReplaceSame) != 0;
  fresh.config_.prefer_parent_delegation = (flags & kFlagPreferParent) != 0;
  const std::uint8_t policy = in.u8();
  if (policy > static_cast<std::uint8_t>(EvictionPolicy::kTtlAware)) {
    throw SnapshotError("unknown eviction policy");
  }
  fresh.config_.policy = static_cast<EvictionPolicy>(policy);
  const std::int64_t stale_window = in.i64();
  if (stale_window < 0 || stale_window > kMaxTickMagnitude) {
    throw SnapshotError("stale window outside the accepted range");
  }
  fresh.config_.stale_window = sim::Duration{stale_window};
  fresh.config_.max_entries = static_cast<std::size_t>(in.u64());
  fresh.config_.lfu_halving_period = in.u64();
  fresh.tick_ = in.u64();

  const std::uint64_t positive_count = in.u64();
  const std::uint64_t negative_count = in.u64();
  if (fresh.config_.max_entries != 0 &&
      positive_count + negative_count > fresh.config_.max_entries) {
    throw SnapshotError("entry counts exceed the configured capacity");
  }

  std::uint64_t previous_touch = 0;
  bool first = true;
  for (std::uint64_t k = 0; k < positive_count; ++k) {
    Entry entry;
    entry.last_touch = in.u64();
    entry.stamp = in.u64();
    entry.freq = in.u8();
    const std::uint8_t credibility = in.u8();
    const std::int64_t inserted = checked_ticks(in.i64(), "insert time");
    const std::int64_t expires = checked_ticks(in.i64(), "expiry time");
    const std::uint32_t original_ttl = in.u32();
    if (!first && entry.last_touch <= previous_touch) {
      throw SnapshotError("positive entries out of touch order");
    }
    previous_touch = entry.last_touch;
    first = false;
    if (entry.last_touch > fresh.tick_ || entry.stamp > entry.last_touch) {
      throw SnapshotError("entry touch/stamp ahead of the snapshot clock");
    }
    if (entry.freq == 0) {
      throw SnapshotError("stored entry with zero frequency");
    }
    if (credibility < static_cast<std::uint8_t>(Credibility::kAdditional) ||
        credibility > static_cast<std::uint8_t>(Credibility::kAuthAnswer)) {
      throw SnapshotError("credibility rank out of range");
    }
    entry.credibility = static_cast<Credibility>(credibility);
    if (original_ttl > dns::kMaxTtlSeconds) {
      throw SnapshotError("original TTL outside the RFC 2181 range");
    }
    entry.original_ttl = dns::Ttl{original_ttl};
    entry.inserted = sim::SimTime{inserted};
    entry.expires = sim::SimTime{expires};
    const std::uint8_t has_link = in.u8();
    if (has_link > 1) {
      throw SnapshotError("link flag must be 0 or 1");
    }
    if (has_link == 1) {
      const std::size_t owner_len = in.u16();
      entry.linked_ns = fresh.ns_links_.acquire(
          checked_name(in.str(owner_len), "linked NS owner name"));
      entry.linked_ns_inserted =
          sim::SimTime{checked_ticks(in.i64(), "linked NS insert time")};
    }
    const std::size_t blob_len = in.u32();
    const std::span<const std::uint8_t> blob = in.bytes(blob_len);
    dns::Message message;
    try {
      message = dns::decode(blob);
      entry.rrset = dns::RRset::from_records(message.answers);
    } catch (const std::exception& e) {
      throw SnapshotError(std::string("record blob rejected: ") + e.what());
    }
    // Canonicity: the blob must be byte-for-byte what snapshot() would emit
    // for this RRset (default header, answers only, compressed encoding).
    const std::vector<std::uint8_t> canonical = encode_rrset_blob(entry.rrset);
    if (blob.size() != canonical.size() ||
        !std::equal(blob.begin(), blob.end(), canonical.begin())) {
      throw SnapshotError("record blob is not in canonical encoding");
    }
    if (fresh.clamp_ttl(entry.original_ttl) != entry.rrset.ttl()) {
      throw SnapshotError("cached TTL disagrees with the clamped original");
    }
    if (expires - inserted !=
        static_cast<std::int64_t>(entry.rrset.ttl().value()) *
            sim::kSecond.count()) {
      throw SnapshotError("expiry arithmetic broken in snapshot entry");
    }
    const dns::RRType type = entry.rrset.type();
    const std::uint64_t hash = key_hash(entry.key(), type);
    if (fresh.entries_.find(hash, entry.key(), type) != nullptr) {
      throw SnapshotError("duplicate positive entry for " +
                          entry.key().to_string());
    }
    push_expiry(fresh.expiry_, ExpiryRec{entry.expires, entry.stamp, hash});
    fresh.entries_.put(hash, type, std::move(entry));
  }

  previous_touch = 0;
  first = true;
  for (std::uint64_t k = 0; k < negative_count; ++k) {
    NegativeEntry entry;
    entry.last_touch = in.u64();
    entry.stamp = in.u64();
    entry.freq = in.u8();
    entry.rcode = static_cast<dns::Rcode>(in.u8());
    entry.expires = sim::SimTime{checked_ticks(in.i64(), "negative expiry")};
    if (!first && entry.last_touch <= previous_touch) {
      throw SnapshotError("negative entries out of touch order");
    }
    previous_touch = entry.last_touch;
    first = false;
    if (entry.last_touch > fresh.tick_ || entry.stamp > entry.last_touch) {
      throw SnapshotError("entry touch/stamp ahead of the snapshot clock");
    }
    if (entry.freq == 0) {
      throw SnapshotError("stored entry with zero frequency");
    }
    const std::size_t name_len = in.u16();
    entry.name = checked_name(in.str(name_len), "negative name");
    const dns::RRType type = static_cast<dns::RRType>(in.u16());
    const std::uint64_t hash = key_hash(entry.name, type);
    if (fresh.negatives_.find(hash, entry.name, type) != nullptr) {
      throw SnapshotError("duplicate negative entry for " +
                          entry.name.to_string());
    }
    push_expiry(fresh.negative_expiry_,
                ExpiryRec{entry.expires, entry.stamp, hash});
    fresh.negatives_.put(hash, type, std::move(entry));
  }

  if (!in.exhausted()) {
    throw SnapshotError("trailing bytes after the last snapshot entry");
  }

  // Runtime stats describe behavior, not state: reset, then seed the
  // high-water mark with the restored population.
  fresh.stats_ = Stats{};
  fresh.stats_.high_water =
      static_cast<std::uint64_t>(fresh.entries_.size() +
                                 fresh.negatives_.size());

  // Structural seal: the rebuilt tables, chains and heaps must pass the
  // full deep audit before they replace the live state.
  try {
    fresh.validate();
  } catch (const std::exception& e) {
    throw SnapshotError(std::string("restored state failed validation: ") +
                        e.what());
  }
  fresh.mutations_ = mutations_;
  *this = std::move(fresh);
  count_mutation();
}

}  // namespace dnsttl::cache
