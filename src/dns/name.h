#ifndef DNSTTL_DNS_NAME_H
#define DNSTTL_DNS_NAME_H

#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace dnsttl::dns {

/// A borrowed run of a Name's trailing labels: the tail of its flat
/// length-prefixed buffer, plus the hash a Name of exactly those labels
/// carries.  Lets hash indexes and the wire encoder probe every ancestor of
/// a name without allocating one.  Valid while the Name it came from lives
/// unchanged and unmoved: a short Name keeps its labels inside the object,
/// so moving it moves the bytes a view points at.
class NameView {
 public:
  NameView(std::string_view labels, std::uint64_t hash,
           std::size_t label_count) noexcept
      : labels_(labels), hash_(hash), label_count_(label_count) {}

  /// Length-prefixed labels, no root octet (the uncompressed wire form
  /// minus its terminating zero).
  std::string_view labels() const noexcept { return labels_; }
  std::uint64_t hash() const noexcept { return hash_; }
  std::size_t label_count() const noexcept { return label_count_; }

 private:
  std::string_view labels_;
  std::uint64_t hash_;
  std::size_t label_count_;
};

/// A fully-qualified DNS domain name.
///
/// Labels are stored in presentation order (leftmost / most specific first),
/// canonicalized to lower case (DNS names are case-insensitive, RFC 1035
/// §2.3.3).  The root name has zero labels.
///
/// Storage is a single contiguous length-prefixed buffer — for each label a
/// length octet followed by the label bytes, i.e. the uncompressed wire form
/// minus the terminating root octet.  Up to kInlineCapacity (37) octets of
/// it live inside the object; a longer name holds one exact-size heap block
/// instead, so copying a name of at most 37 octets allocates nothing.  A
/// 64-bit FNV-1a hash over the labels is computed once at construction and
/// reused by the cache index, forwarder sharding and std::hash.  A moved-from
/// Name is the root name.
///
/// Invariants (RFC 1035 §3.1): every label is 1..63 octets; the wire-format
/// length of the whole name (labels + length octets + terminating zero) is
/// at most 255 octets.  Construction enforces both.
class Name {
 public:
  /// Label octets a Name holds in place (wire length 38); longer names
  /// take one heap block.
  static constexpr std::size_t kInlineCapacity = 37;

  /// The root name ".".
  Name() = default;

  Name(const Name& other);
  Name(Name&& other) noexcept;
  Name& operator=(const Name& other);
  Name& operator=(Name&& other) noexcept;
  ~Name() { release(); }

  /// Builds a name from explicit labels, most specific first.
  /// Throws std::invalid_argument on label/name length violations.
  explicit Name(const std::vector<std::string>& labels);

  /// Copies the labels a view borrows (reusing its hash).
  explicit Name(NameView view);

  /// Parses presentation format ("www.example.org", trailing dot optional,
  /// "." is the root).  Throws std::invalid_argument on malformed input.
  static Name from_string(std::string_view text);

  /// Presentation format with trailing dot ("www.example.org.", root = ".").
  std::string to_string() const;

  bool is_root() const noexcept { return size_ == 0; }
  std::size_t label_count() const noexcept { return label_count_; }

  /// The labels, most specific first, materialized into owned strings.
  /// Cold-path convenience; hot paths should use label()/suffix().
  std::vector<std::string> labels() const;

  /// The label at @p i, 0 = most specific.  The view borrows from this
  /// Name's buffer.  Throws std::out_of_range on a bad index.
  std::string_view label(std::size_t i) const;

  /// Name with the most specific label removed; parent of the root is root.
  Name parent() const;

  /// The trailing @p count labels as a Name (count >= label_count() returns
  /// a copy of *this).  Single tail-copy of the flat buffer: O(size), no
  /// per-label allocation.
  Name suffix(std::size_t count) const { return Name(suffix_view(count)); }

  /// The whole name as a view (its cached hash, no copy).
  NameView view() const noexcept {
    return NameView(data(), hash_, label_count_);
  }

  /// The trailing @p count labels as a view (count >= label_count() is the
  /// whole name).  Hashes the tail; allocates nothing.
  NameView suffix_view(std::size_t count) const noexcept;

  /// New name @p label + "." + *this.  Throws on invalid label.
  Name prepend(std::string_view label) const;

  /// True if *this is @p ancestor or is below it in the tree (RFC 8499:
  /// every domain is a subdomain of itself).
  bool is_subdomain_of(const Name& ancestor) const noexcept;

  /// True if *this is strictly below @p ancestor.
  bool is_strict_subdomain_of(const Name& ancestor) const noexcept;

  /// Bailiwick test (RFC 8499): a server name is in bailiwick of a zone if
  /// it is a subdomain of the zone origin.  Alias for is_subdomain_of.
  bool in_bailiwick_of(const Name& zone) const noexcept {
    return is_subdomain_of(zone);
  }

  /// Number of trailing labels shared with @p other (length of the longest
  /// common ancestor).
  std::size_t common_suffix_labels(const Name& other) const noexcept;

  /// Wire-format length in octets (length bytes + labels + root byte).
  std::size_t wire_length() const noexcept { return size_ + 1u; }

  /// The cached 64-bit hash (FNV-1a over labels with a separator, matching
  /// what std::hash<Name> always produced for this library).
  std::uint64_t hash() const noexcept { return hash_; }

  /// Deep structural audit: every length prefix in 1..63 and consistent
  /// with the buffer size, all bytes lowercased, no '.' inside a label,
  /// label_count/wire-length agreement, and the incrementally maintained
  /// FNV-1a hash equal to a from-scratch recomputation.  Throws
  /// check::AuditError on violation.  Compiled in every build; invoked
  /// automatically after construction only when built with DNSTTL_AUDIT=ON.
  void validate() const;

  /// Canonical DNS ordering (RFC 4034 §6.1): compare label-by-label from the
  /// rightmost (least specific) label.
  std::strong_ordering operator<=>(const Name& other) const noexcept;
  bool operator==(const Name& other) const noexcept {
    return hash_ == other.hash_ && data() == other.data();
  }
  bool operator==(const NameView& other) const noexcept {
    return hash_ == other.hash() && data() == other.labels();
  }

 private:
  /// FNV-1a over a flat buffer slice, the hash a Name of it carries.
  static std::uint64_t hash_labels(std::string_view labels) noexcept;
  /// Byte offset where the trailing @p count labels start
  /// (count <= label_count()).
  std::size_t tail_offset(std::size_t count) const noexcept;

  bool on_heap() const noexcept { return size_ > kInlineCapacity; }
  /// The heap block's address, stored in the first bytes of inline_.
  char* heap_block() const noexcept {
    char* block = nullptr;
    std::memcpy(&block, inline_, sizeof block);
    return block;
  }
  /// The length-prefixed lowercased labels, no root octet.
  std::string_view data() const noexcept {
    return {on_heap() ? heap_block() : inline_, size_};
  }
  /// Copies @p labels (size_ octets) into place, or into a new heap block
  /// when they do not fit.
  void store(std::string_view labels);
  /// Takes over @p other's labels, hash and storage; leaves it the root.
  void steal(Name& other) noexcept;
  /// Frees the heap block, if any (the fields are left for the caller).
  void release() noexcept;

  static constexpr std::uint64_t kHashBasis = 0xcbf29ce484222325ULL;

  std::uint64_t hash_ = kHashBasis;
  /// The labels when they fit; otherwise the address of the heap block
  /// holding them.
  char inline_[kInlineCapacity] = {};
  std::uint8_t size_ = 0;  ///< octets of labels (at most 254)
  std::uint8_t label_count_ = 0;
};

static_assert(sizeof(Name) == 48, "a Name is one hash word and 40 octets");

std::ostream& operator<<(std::ostream& os, const Name& name);

}  // namespace dnsttl::dns

template <>
struct std::hash<dnsttl::dns::Name> {
  std::size_t operator()(const dnsttl::dns::Name& n) const noexcept {
    return static_cast<std::size_t>(n.hash());
  }
};

#endif  // DNSTTL_DNS_NAME_H
