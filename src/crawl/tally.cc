#include "crawl/tally.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "check/audit.h"

namespace dnsttl::crawl {

namespace {

constexpr const char* kWhat = "crawl::DistinctStrings";

std::uint64_t hash_of(std::string_view value) {
  return std::hash<std::string_view>{}(value);
}

}  // namespace

bool DistinctStrings::insert(std::string_view value) {
  if ((entries_.size() + 1) * 4 > index_.size() * 3) {
    grow();
  }
  const std::uint64_t hash = hash_of(value);
  const std::size_t slot = probe(hash, value);
  if (index_[slot] != 0) {
    return false;
  }
  index_[slot] = static_cast<std::uint32_t>(entries_.size() + 1);
  entries_.push_back(Entry{hash, arena_.size()});
  arena_.append(value);
  return true;
}

void DistinctStrings::merge(const DistinctStrings& other) {
  for (std::size_t i = 0; i < other.entries_.size(); ++i) {
    insert(other.bytes(i));
  }
}

std::size_t DistinctStrings::probe(std::uint64_t hash,
                                   std::string_view value) const {
  // Capacity is a power of two and load stays at most 3/4, so an empty
  // slot ends every probe.
  const std::size_t mask = index_.size() - 1;
  for (std::size_t slot = static_cast<std::size_t>(hash) & mask;;
       slot = (slot + 1) & mask) {
    const std::uint32_t number = index_[slot];
    if (number == 0) {
      return slot;
    }
    if (entries_[number - 1].hash == hash && bytes(number - 1) == value) {
      return slot;
    }
  }
}

void DistinctStrings::grow() {
  const std::size_t capacity = std::max<std::size_t>(16, index_.size() * 2);
  // Entry numbers are 32-bit; at most 3/4 of the slots hold one.
  if (capacity > (std::size_t{1} << 32)) {
    throw std::length_error("DistinctStrings: more than 3 * 2^30 members");
  }
  index_.assign(capacity, 0);
  const std::size_t mask = capacity - 1;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    std::size_t slot = static_cast<std::size_t>(entries_[i].hash) & mask;
    while (index_[slot] != 0) {
      slot = (slot + 1) & mask;
    }
    index_[slot] = static_cast<std::uint32_t>(i + 1);
  }
}

void DistinctStrings::validate() const {
  const std::size_t capacity = index_.size();
  DNSTTL_AUDIT_CHECK(kWhat, (capacity & (capacity - 1)) == 0,
                     "capacity " + std::to_string(capacity) +
                         " is not a power of two");
  DNSTTL_AUDIT_CHECK(kWhat, entries_.size() * 4 <= capacity * 3,
                     std::to_string(entries_.size()) + " members in " +
                         std::to_string(capacity) + " slots");
  std::size_t occupied = 0;
  for (std::size_t slot = 0; slot < capacity; ++slot) {
    const std::uint32_t number = index_[slot];
    if (number == 0) {
      continue;
    }
    ++occupied;
    DNSTTL_AUDIT_CHECK(kWhat, number <= entries_.size(),
                       "slot " + std::to_string(slot) + " names entry " +
                           std::to_string(number) + " of " +
                           std::to_string(entries_.size()));
  }
  DNSTTL_AUDIT_CHECK(kWhat, occupied == entries_.size(),
                     std::to_string(occupied) + " occupied slots for " +
                         std::to_string(entries_.size()) + " members");
  // Each length is the gap to the next member's offset, so the offsets
  // must start at 0, never fall and stay inside the arena: the members lie
  // back to back in insertion order.
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    const std::size_t end = i + 1 < entries_.size() ? entries_[i + 1].offset
                                                    : arena_.size();
    DNSTTL_AUDIT_CHECK(kWhat,
                       (i > 0 || entry.offset == 0) && entry.offset <= end &&
                           end <= arena_.size(),
                       "entry " + std::to_string(i) + " spans bytes [" +
                           std::to_string(entry.offset) + ", " +
                           std::to_string(end) + ") of " +
                           std::to_string(arena_.size()));
    const std::string_view value = bytes(i);
    DNSTTL_AUDIT_CHECK(kWhat, entry.hash == hash_of(value),
                       "stored hash disagrees for \"" + std::string(value) +
                           "\"");
    // Reachable from its home slot, and the first member with its bytes:
    // a duplicate would be shadowed by the earlier copy on the probe path.
    DNSTTL_AUDIT_CHECK(kWhat, index_[probe(entry.hash, value)] == i + 1,
                       "\"" + std::string(value) +
                           "\" is unreachable or a duplicate");
  }
  DNSTTL_AUDIT_CHECK(kWhat, !entries_.empty() || arena_.empty(),
                     "arena holds " + std::to_string(arena_.size()) +
                         " bytes and no member");
  check::count_audit();
}

}  // namespace dnsttl::crawl
