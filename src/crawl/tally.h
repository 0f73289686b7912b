#ifndef DNSTTL_CRAWL_TALLY_H
#define DNSTTL_CRAWL_TALLY_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dnsttl::crawl {

/// Insert-only set of distinct strings: the unique-value count behind
/// Table 5's ratios.  Members' bytes live back to back in one arena, in
/// insertion order, and an open-addressing index (linear probing, load at
/// most 3/4) holds entry numbers, so a member costs its bytes plus a
/// 16-byte entry instead of a node and a string.  An entry keeps its hash
/// and first byte; its length is the gap to the next member's first byte.
/// A hash match falls back to a byte compare, so the count is exact.
class DistinctStrings {
 public:
  /// Adds @p value; true when it was not yet a member.
  bool insert(std::string_view value);

  /// Adds every member of @p other.
  void merge(const DistinctStrings& other);

  std::size_t size() const noexcept { return entries_.size(); }

  /// Audits the arena, the entries and the index against each other and
  /// throws check::AuditError on the first broken invariant.
  void validate() const;

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::size_t offset = 0;  ///< first byte in arena_
  };
  static_assert(sizeof(Entry) == 16);

  /// Member @p number's bytes: up to the next member's, or the arena's end.
  std::string_view bytes(std::size_t number) const {
    const std::size_t begin = entries_[number].offset;
    const std::size_t end = number + 1 < entries_.size()
                                ? entries_[number + 1].offset
                                : arena_.size();
    return {arena_.data() + begin, end - begin};
  }
  /// Index slot holding @p value's entry, or the empty slot it would take.
  std::size_t probe(std::uint64_t hash, std::string_view value) const;
  void grow();

  std::vector<Entry> entries_;        ///< members in insertion order
  std::vector<std::uint32_t> index_;  ///< entry number + 1; 0 = empty
  std::string arena_;                 ///< every member's bytes
};

}  // namespace dnsttl::crawl

#endif  // DNSTTL_CRAWL_TALLY_H
