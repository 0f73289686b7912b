#ifndef DNSTTL_DNS_NAME_TABLE_H
#define DNSTTL_DNS_NAME_TABLE_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/audit.h"
#include "dns/name.h"

namespace dnsttl::dns {

/// Sentinel slot index ("no slot" / chain end).
inline constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

/// Key part for a table holding one item per Name.
struct NoTag {
  bool operator==(const NoTag&) const = default;
};

/// Open-addressing hash table from (Name, Tag) to V with linear probing and
/// tombstone deletion — the one Name index of the library: the cache keys
/// it on (owner, record type), the zone on the owner alone (Tag = NoTag).
/// The table stores no Name of its own: each value holds its key Name and
/// returns it from `const Name& key() const`, so an item's owner exists
/// once.  Items carry their full 64-bit hash (the Name's cached FNV hash
/// mixed with the tag), so probes compare integers before touching Name
/// bytes, and rehashing never recomputes a hash.  Lookups accept a Name or
/// a NameView, so a caller can probe every ancestor of a name without
/// allocating one.
///
/// A doubly-linked recency chain is threaded through the slots (prev/next
/// slot indices stored in each slot as 32-bit links, so a table holds at
/// most 2^31 slots): head = most recently put or touched, tail = least.
/// put() links/moves the slot to the head, erase() unlinks, grow()
/// preserves the order across the rehash.  Users that never read it (the
/// zone, an unbounded cache) pay a few index writes per put.
template <typename Tag, typename V>
class NameTable {
 public:
  static constexpr std::size_t kNil = kNoSlot;

  struct Item {
    std::uint64_t hash = 0;
    [[no_unique_address]] Tag tag{};
    V value{};  ///< holds the key Name: value.key()
  };

  /// The table hash of (name, tag): the MurmurHash3 finalizer over the
  /// Name's FNV hash (xor the tag times the golden ratio, when there is a
  /// tag), so the low bits that pick a slot depend on every input bit.
  template <typename N>
  static std::uint64_t key_hash(const N& name, Tag tag) noexcept {
    std::uint64_t h = name.hash();
    if constexpr (!std::is_empty_v<Tag>) {
      h ^= static_cast<std::uint64_t>(tag) * 0x9e3779b97f4a7c15ULL;
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
  }

  /// Slot of the live item for the key, or kNil.  @p N is Name or NameView.
  template <typename N>
  std::size_t find_slot(std::uint64_t hash, const N& name, Tag tag) const {
    return find_slot_if(hash, key_match(name, tag));
  }
  /// Slot of the first live item on @p hash's probe chain whose hash is
  /// @p hash and for which @p match(item) holds, or kNil: identifies an
  /// item by something its value holds instead of by its key.
  template <typename Match>
  std::size_t find_slot_if(std::uint64_t hash, Match&& match) const {
    if (size_ == 0) {
      return kNil;
    }
    bool found = false;
    std::size_t index = probe(hash, match, found);
    return found ? index : kNil;
  }
  template <typename N>
  V* find(std::uint64_t hash, const N& name, Tag tag) {
    const std::size_t slot = find_slot(hash, name, tag);
    return slot == kNil ? nullptr : &slots_[slot].item.value;
  }
  template <typename N>
  const V* find(std::uint64_t hash, const N& name, Tag tag) const {
    const std::size_t slot = find_slot(hash, name, tag);
    return slot == kNil ? nullptr : &slots_[slot].item.value;
  }

  /// Inserts or overwrites the item keyed on (@p value.key(), @p tag),
  /// moving the slot to the chain head; returns the slot index (valid until
  /// the next put()).
  std::size_t put(std::uint64_t hash, Tag tag, V value) {
    if (slots_.empty() || (used_ + 1) * 8 > slots_.size() * 7) {
      grow();
    }
    bool found = false;
    std::size_t index = probe(hash, key_match(value.key(), tag), found);
    Item& item = slots_[index].item;
    if (!found) {
      if (slots_[index].state == kEmpty) {
        ++used_;
      }
      ++size_;
      slots_[index].state = kFull;
      item.hash = hash;
      item.tag = tag;
      link_front(index);
    } else {
      touch(index);
    }
    item.value = std::move(value);
    return index;
  }

  /// Removes the item in @p slot (a live slot from find_slot()).
  void erase_slot(std::size_t slot) {
    unlink(slot);
    slots_[slot].item = Item{};  // release the value's memory now
    slots_[slot].state = kTombstone;
    --size_;
  }
  template <typename N>
  bool erase(std::uint64_t hash, const N& name, Tag tag) {
    const std::size_t slot = find_slot(hash, name, tag);
    if (slot == kNil) {
      return false;
    }
    erase_slot(slot);
    return true;
  }

  /// Empties every slot but keeps the slot array, so refilling to a
  /// similar size allocates nothing.
  void clear() {
    for (Slot& slot : slots_) {
      slot = Slot{};
    }
    head_ = kNil;
    tail_ = kNil;
    size_ = 0;
    used_ = 0;
  }
  std::size_t size() const noexcept { return size_; }
  /// Bytes one slot costs, live or not (for size budgets).
  static constexpr std::size_t slot_bytes() noexcept { return sizeof(Slot); }

  Item& at(std::size_t slot) noexcept { return slots_[slot].item; }
  const Item& at(std::size_t slot) const noexcept { return slots_[slot].item; }

  /// Recency chain access: head = most recent, tail = least recent.
  std::size_t head() const noexcept { return head_; }
  std::size_t tail() const noexcept { return tail_; }
  std::size_t more_recent(std::size_t slot) const noexcept {
    return slot_at(slots_[slot].prev);
  }
  std::size_t less_recent(std::size_t slot) const noexcept {
    return slot_at(slots_[slot].next);
  }
  /// Moves @p slot to the chain head (most recent).
  void touch(std::size_t slot) {
    if (head_ == slot) {
      return;
    }
    unlink(slot);
    link_front(slot);
  }

  /// Invokes @p fn for every live item, in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.state == kFull) {
        fn(slot.item);
      }
    }
  }

  /// Mutable variant, same unspecified order.
  template <typename Fn>
  void for_each_mut(Fn&& fn) {
    for (Slot& slot : slots_) {
      if (slot.state == kFull) {
        fn(slot.item);
      }
    }
  }

  /// Structural audit of the open-addressing layout: control bytes vs
  /// live/used accounting, power-of-two capacity with a guaranteed empty
  /// slot, stored-hash agreement with key_hash, Name integrity,
  /// probe-chain reachability of every live item across tombstones, and
  /// recency-chain <-> slot consistency (every live slot on the chain
  /// exactly once, links symmetric, dead slots unlinked).  @p what names
  /// the owning structure in the AuditError.
  void validate(const char* what) const;

 private:
  enum : std::uint8_t { kEmpty = 0, kTombstone = 1, kFull = 2 };

  /// A recency-chain link: a slot index, or kNilLink for "none".
  using Link = std::uint32_t;
  static constexpr Link kNilLink = std::numeric_limits<Link>::max();
  /// The most slots a table may have: the largest power of two whose slot
  /// indices are all below kNilLink.
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 31;
  static std::size_t slot_at(Link link) noexcept {
    return link == kNilLink ? kNil : link;
  }
  static Link link_to(std::size_t slot) noexcept {
    return slot == kNil ? kNilLink : static_cast<Link>(slot);
  }

  /// One slot: the item, its recency-chain links (toward the head = more
  /// recent, toward the tail = less recent; kNilLink-terminated) and its
  /// state.  One array holds all of it, so a table costs one allocation.
  struct Slot {
    Item item;
    Link prev = kNilLink;
    Link next = kNilLink;
    std::uint8_t state = kEmpty;
  };

  /// The probe predicate for the key (@p name, @p tag).
  template <typename N>
  static auto key_match(const N& name, Tag tag) noexcept {
    return [&name, tag](const Item& item) {
      return item.tag == tag && item.value.key() == name;
    };
  }

  /// Walks @p hash's probe chain to the first live item with that hash for
  /// which @p match(item) holds (found = true), or to the slot an insert
  /// would take: the first tombstone passed, else the empty slot that ended
  /// the chain.
  template <typename Match>
  std::size_t probe(std::uint64_t hash, const Match& match,
                    bool& found) const {
    // Capacity is a power of two; linear probing terminates because load
    // is kept below 7/8 so an empty slot always exists.
    std::size_t mask = slots_.size() - 1;
    std::size_t index = static_cast<std::size_t>(hash) & mask;
    std::size_t first_tombstone = kNil;
    for (;;) {
      const Slot& slot = slots_[index];
      if (slot.state == kEmpty) {
        found = false;
        return first_tombstone != kNil ? first_tombstone : index;
      }
      if (slot.state == kTombstone) {
        if (first_tombstone == kNil) {
          first_tombstone = index;
        }
      } else if (slot.item.hash == hash && match(slot.item)) {
        found = true;
        return index;
      }
      index = (index + 1) & mask;
    }
  }

  void grow();

  void link_front(std::size_t slot) {
    slots_[slot].prev = kNilLink;
    slots_[slot].next = link_to(head_);
    if (head_ != kNil) {
      slots_[head_].prev = link_to(slot);
    }
    head_ = slot;
    if (tail_ == kNil) {
      tail_ = slot;
    }
  }
  void link_back(std::size_t slot) {
    slots_[slot].next = kNilLink;
    slots_[slot].prev = link_to(tail_);
    if (tail_ != kNil) {
      slots_[tail_].next = link_to(slot);
    }
    tail_ = slot;
    if (head_ == kNil) {
      head_ = slot;
    }
  }
  void unlink(std::size_t slot) {
    const std::size_t toward_head = slot_at(slots_[slot].prev);
    const std::size_t toward_tail = slot_at(slots_[slot].next);
    if (toward_head != kNil) {
      slots_[toward_head].next = link_to(toward_tail);
    } else {
      head_ = toward_tail;
    }
    if (toward_tail != kNil) {
      slots_[toward_tail].prev = link_to(toward_head);
    } else {
      tail_ = toward_head;
    }
    slots_[slot].prev = kNilLink;
    slots_[slot].next = kNilLink;
  }

  std::vector<Slot> slots_;
  std::size_t head_ = kNil;
  std::size_t tail_ = kNil;
  std::size_t size_ = 0;  ///< live items
  std::size_t used_ = 0;  ///< live items + tombstones
};

template <typename Tag, typename V>
void NameTable<Tag, V>::grow() {
  std::size_t new_capacity = slots_.empty() ? 4 : slots_.size() * 2;
  // If growth is driven by tombstones rather than live items, rehashing in
  // place (same capacity) is enough; avoid doubling forever.
  if (size_ * 4 < new_capacity) {
    new_capacity = std::max<std::size_t>(4, slots_.size());
  }
  if (new_capacity > kMaxCapacity) {
    throw std::length_error("dns::NameTable: more than 2^31 slots");
  }
  std::vector<Slot> old = std::move(slots_);
  const std::size_t old_head = head_;
  slots_.clear();
  slots_.resize(new_capacity);
  head_ = kNil;
  tail_ = kNil;
  used_ = size_;
  const std::size_t mask = new_capacity - 1;
  // Rehash.  Each old slot's `prev` is then free to remember where its
  // item landed, so the recency chain is rebuilt in its exact order.
  for (Slot& from : old) {
    if (from.state != kFull) {
      continue;
    }
    std::size_t index = static_cast<std::size_t>(from.item.hash) & mask;
    while (slots_[index].state == kFull) {
      index = (index + 1) & mask;
    }
    slots_[index].item = std::move(from.item);
    slots_[index].state = kFull;
    from.prev = link_to(index);
  }
  for (std::size_t i = old_head; i != kNil; i = slot_at(old[i].next)) {
    link_back(old[i].prev);
  }
}

template <typename Tag, typename V>
void NameTable<Tag, V>::validate(const char* what) const {
  const std::size_t capacity = slots_.size();
  DNSTTL_AUDIT_CHECK(what, (capacity & (capacity - 1)) == 0,
                     "capacity " + std::to_string(capacity) +
                         " is not a power of two");
  std::size_t full = 0;
  std::size_t tombstones = 0;
  for (std::size_t i = 0; i < capacity; ++i) {
    DNSTTL_AUDIT_CHECK(what, slots_[i].state <= kFull,
                       "slot state out of range at slot " + std::to_string(i));
    if (slots_[i].state == kFull) {
      ++full;
    } else if (slots_[i].state == kTombstone) {
      ++tombstones;
    }
  }
  DNSTTL_AUDIT_CHECK(what, full == size_,
                     "live-entry accounting: " + std::to_string(full) +
                         " full slots vs size_ = " + std::to_string(size_));
  DNSTTL_AUDIT_CHECK(what, full + tombstones == used_,
                     "used-slot accounting: " +
                         std::to_string(full + tombstones) +
                         " full+tombstone slots vs used_ = " +
                         std::to_string(used_));
  // Probe termination requires a genuinely empty slot somewhere.
  DNSTTL_AUDIT_CHECK(what, capacity == 0 || used_ < capacity,
                     "table has no empty slot; probing cannot terminate");
  for (std::size_t i = 0; i < capacity; ++i) {
    if (slots_[i].state != kFull) {
      continue;
    }
    const Item& item = slots_[i].item;
    const Name& name = item.value.key();
    name.validate();
    DNSTTL_AUDIT_CHECK(what, key_hash(name, item.tag) == item.hash,
                       "stored hash disagrees with key_hash for " +
                           name.to_string());
    // Probe-chain/tombstone agreement: the item must be reachable from its
    // home slot, i.e. a lookup for its key finds this exact slot.
    bool found = false;
    std::size_t at = probe(item.hash, key_match(name, item.tag), found);
    DNSTTL_AUDIT_CHECK(what, found && at == i,
                       "item at slot " + std::to_string(i) + " (" +
                           name.to_string() +
                           ") unreachable by probing (probe returned " +
                           std::to_string(at) + ")");
  }
  // Recency chain <-> slot consistency: the chain visits every live slot
  // exactly once, links are symmetric, and dead slots are unlinked.  The
  // symmetry check also ends a cycle: the first slot the walk reaches
  // twice would need its prev link to name two different predecessors
  // (kNil, for the head).
  DNSTTL_AUDIT_CHECK(what, (head_ == kNil) == (size_ == 0),
                     "chain head/emptiness disagreement");
  DNSTTL_AUDIT_CHECK(what, (tail_ == kNil) == (size_ == 0),
                     "chain tail/emptiness disagreement");
  std::size_t visited = 0;
  std::size_t prev = kNil;
  for (std::size_t i = head_; i != kNil; i = slot_at(slots_[i].next)) {
    DNSTTL_AUDIT_CHECK(what, i < capacity,
                       "recency chain index out of range: " +
                           std::to_string(i));
    DNSTTL_AUDIT_CHECK(what, slots_[i].state == kFull,
                       "recency chain visits dead slot " + std::to_string(i));
    DNSTTL_AUDIT_CHECK(what, slot_at(slots_[i].prev) == prev,
                       "recency chain prev/next asymmetry at slot " +
                           std::to_string(i) + " (or a cycle)");
    prev = i;
    ++visited;
  }
  DNSTTL_AUDIT_CHECK(what, tail_ == prev,
                     "recency chain tail does not terminate the walk");
  DNSTTL_AUDIT_CHECK(what, visited == size_,
                     "recency chain covers " + std::to_string(visited) +
                         " slots vs " + std::to_string(size_) + " live items");
  for (std::size_t i = 0; i < capacity; ++i) {
    if (slots_[i].state != kFull) {
      DNSTTL_AUDIT_CHECK(what,
                         slots_[i].prev == kNilLink &&
                             slots_[i].next == kNilLink,
                         "dead slot " + std::to_string(i) +
                             " still linked into the recency chain");
    }
  }
}

}  // namespace dnsttl::dns

#endif  // DNSTTL_DNS_NAME_TABLE_H
