#include "dns/name.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "check/audit.h"

namespace dnsttl::dns {

namespace {

constexpr std::size_t kMaxLabelLen = 63;
constexpr std::size_t kMaxWireLen = 255;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Wire budget caps a name at 127 single-octet labels, so label start
/// offsets into the flat buffer always fit this fixed array.
using LabelOffsets = std::array<std::uint8_t, 128>;

/// Fills @p offsets with the byte offset of each label's length octet and
/// returns the label count.
std::size_t collect_offsets(std::string_view data, LabelOffsets& offsets) {
  std::size_t count = 0;
  std::size_t pos = 0;
  while (pos < data.size()) {
    offsets[count++] = static_cast<std::uint8_t>(pos);
    pos += 1 + static_cast<unsigned char>(data[pos]);
  }
  return count;
}

std::string_view label_at(std::string_view data, std::size_t offset) {
  return data.substr(offset + 1, static_cast<unsigned char>(data[offset]));
}

/// Builds a name's flat buffer and hash on the stack, label by label, so
/// the Name made from it takes its storage in one step.  Every label is
/// checked even once the buffer is full, so a bad label is reported ahead
/// of the overall length, wherever it sits.
class LabelWriter {
 public:
  /// Validates, lowercases and appends one label, updating the hash.
  void append(std::string_view label) {
    if (label.empty()) {
      throw std::invalid_argument("DNS label must not be empty");
    }
    if (label.size() > kMaxLabelLen) {
      throw std::invalid_argument("DNS label exceeds 63 octets: " +
                                  std::string(label));
    }
    if (label.find('.') != std::string_view::npos) {
      throw std::invalid_argument("DNS label must not contain '.'");
    }
    const bool fits = size_ + 1 + label.size() <= buffer_.size();
    if (fits) {
      buffer_[size_] = static_cast<char>(label.size());
    }
    for (std::size_t i = 0; i < label.size(); ++i) {
      const char lowered = static_cast<char>(
          std::tolower(static_cast<unsigned char>(label[i])));
      if (fits) {
        buffer_[size_ + 1 + i] = lowered;
      }
      hash_ ^= static_cast<unsigned char>(lowered);
      hash_ *= kFnvPrime;
    }
    hash_ ^= 0xffULL;
    hash_ *= kFnvPrime;
    size_ += 1 + label.size();
    ++count_;
  }

  /// The labels written, as a view a Name copies; throws
  /// std::invalid_argument past the 255-octet wire limit.
  NameView finish() const {
    if (size_ + 1 > kMaxWireLen) {
      throw std::invalid_argument("DNS name exceeds 255 octets");
    }
    return NameView(std::string_view(buffer_.data(), size_), hash_, count_);
  }

 private:
  static constexpr std::uint64_t kHashBasis = 0xcbf29ce484222325ULL;

  std::array<char, kMaxWireLen - 1> buffer_;
  std::size_t size_ = 0;
  std::size_t count_ = 0;
  std::uint64_t hash_ = kHashBasis;
};

}  // namespace

Name::Name(const Name& other)
    : hash_(other.hash_), size_(other.size_), label_count_(other.label_count_) {
  if (on_heap()) {
    store(other.data());
  } else {
    // A fixed-size copy compiles to a few moves; most names take this path.
    std::memcpy(inline_, other.inline_, kInlineCapacity);
  }
}

Name::Name(Name&& other) noexcept { steal(other); }

Name& Name::operator=(const Name& other) {
  if (this != &other) {
    Name copy(other);
    release();
    steal(copy);
  }
  return *this;
}

Name& Name::operator=(Name&& other) noexcept {
  if (this != &other) {
    release();
    steal(other);
  }
  return *this;
}

void Name::steal(Name& other) noexcept {
  // The inline bytes are either the labels or the heap block's address;
  // copying them moves either one.
  std::memcpy(inline_, other.inline_, kInlineCapacity);
  hash_ = other.hash_;
  size_ = other.size_;
  label_count_ = other.label_count_;
  other.hash_ = kHashBasis;
  other.size_ = 0;
  other.label_count_ = 0;
}

void Name::store(std::string_view labels) {
  char* block = inline_;
  if (on_heap()) {
    block = std::allocator<char>().allocate(size_);
    std::memcpy(inline_, &block, sizeof block);
  }
  std::memcpy(block, labels.data(), size_);
}

void Name::release() noexcept {
  if (on_heap()) {
    std::allocator<char>().deallocate(heap_block(), size_);
  }
}

Name::Name(const std::vector<std::string>& labels) {
  LabelWriter writer;
  for (const auto& label : labels) {
    writer.append(label);
  }
  *this = Name(writer.finish());
}

Name Name::from_string(std::string_view text) {
  if (text.empty()) {
    throw std::invalid_argument("empty string is not a DNS name; use \".\"");
  }
  if (text == ".") {
    return Name{};
  }
  if (text.back() == '.') {
    text.remove_suffix(1);
  }
  LabelWriter writer;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t dot = text.find('.', start);
    if (dot == std::string_view::npos) {
      writer.append(text.substr(start));
      break;
    }
    writer.append(text.substr(start, dot - start));
    start = dot + 1;
  }
  return Name(writer.finish());
}

std::uint64_t Name::hash_labels(std::string_view labels) noexcept {
  std::uint64_t h = kHashBasis;
  std::size_t pos = 0;
  while (pos < labels.size()) {
    std::size_t len = static_cast<unsigned char>(labels[pos]);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= static_cast<unsigned char>(labels[pos + 1 + i]);
      h *= kFnvPrime;
    }
    h ^= 0xffULL;
    h *= kFnvPrime;
    pos += 1 + len;
  }
  return h;
}

Name::Name(NameView view)
    : hash_(view.hash()),
      size_(static_cast<std::uint8_t>(view.labels().size())),
      label_count_(static_cast<std::uint8_t>(view.label_count())) {
  store(view.labels());
  if constexpr (check::kAuditEnabled) {
    validate();
  }
}

void Name::validate() const {
  constexpr const char* kWhat = "dns::Name";
  const std::string_view flat = data();
  DNSTTL_AUDIT_CHECK(kWhat, wire_length() <= kMaxWireLen,
                     "wire length " + std::to_string(wire_length()) +
                         " exceeds 255 octets");
  std::uint64_t h = kHashBasis;
  std::size_t count = 0;
  std::size_t pos = 0;
  while (pos < flat.size()) {
    const std::size_t len = static_cast<unsigned char>(flat[pos]);
    DNSTTL_AUDIT_CHECK(kWhat, len >= 1 && len <= kMaxLabelLen,
                       "label length octet " + std::to_string(len) +
                           " out of range at offset " + std::to_string(pos));
    DNSTTL_AUDIT_CHECK(kWhat, pos + 1 + len <= flat.size(),
                       "label overruns the flat buffer at offset " +
                           std::to_string(pos));
    for (std::size_t i = 0; i < len; ++i) {
      const unsigned char c = static_cast<unsigned char>(flat[pos + 1 + i]);
      DNSTTL_AUDIT_CHECK(kWhat, c != '.',
                         "'.' inside a label at offset " +
                             std::to_string(pos + 1 + i));
      DNSTTL_AUDIT_CHECK(kWhat, !(c >= 'A' && c <= 'Z'),
                         "label byte not lowercased at offset " +
                             std::to_string(pos + 1 + i));
      h ^= c;
      h *= kFnvPrime;
    }
    h ^= 0xffULL;
    h *= kFnvPrime;
    pos += 1 + len;
    ++count;
  }
  DNSTTL_AUDIT_CHECK(kWhat, count == label_count_,
                     "label_count " + std::to_string(label_count_) +
                         " disagrees with buffer walk (" +
                         std::to_string(count) + ")");
  DNSTTL_AUDIT_CHECK(kWhat, h == hash_,
                     "incremental FNV hash disagrees with recomputation for " +
                         to_string());
  check::count_audit();
}

std::string Name::to_string() const {
  const std::string_view flat = data();
  if (flat.empty()) {
    return ".";
  }
  std::string out;
  out.reserve(flat.size());
  std::size_t pos = 0;
  while (pos < flat.size()) {
    std::string_view label = label_at(flat, pos);
    out.append(label);
    out.push_back('.');
    pos += 1 + label.size();
  }
  return out;
}

std::vector<std::string> Name::labels() const {
  const std::string_view flat = data();
  std::vector<std::string> out;
  out.reserve(label_count_);
  std::size_t pos = 0;
  while (pos < flat.size()) {
    std::string_view label = label_at(flat, pos);
    out.emplace_back(label);
    pos += 1 + label.size();
  }
  return out;
}

std::string_view Name::label(std::size_t i) const {
  if (i >= label_count_) {
    throw std::out_of_range("Name::label index out of range");
  }
  const std::string_view flat = data();
  std::size_t pos = 0;
  for (std::size_t k = 0; k < i; ++k) {
    pos += 1 + static_cast<unsigned char>(flat[pos]);
  }
  return label_at(flat, pos);
}

Name Name::parent() const {
  if (is_root()) {
    return Name{};
  }
  return suffix(label_count_ - 1u);
}

std::size_t Name::tail_offset(std::size_t count) const noexcept {
  const std::string_view flat = data();
  std::size_t pos = 0;
  for (std::size_t skip = label_count_ - count; skip > 0; --skip) {
    pos += 1 + static_cast<unsigned char>(flat[pos]);
  }
  return pos;
}

NameView Name::suffix_view(std::size_t count) const noexcept {
  if (count >= label_count_) {
    return view();
  }
  const std::string_view tail = data().substr(tail_offset(count));
  return NameView(tail, hash_labels(tail), count);
}

Name Name::prepend(std::string_view label) const {
  LabelWriter writer;
  writer.append(label);
  const std::string_view flat = data();
  for (std::size_t pos = 0; pos < flat.size();) {
    const std::string_view tail_label = label_at(flat, pos);
    writer.append(tail_label);
    pos += 1 + tail_label.size();
  }
  return Name(writer.finish());
}

bool Name::is_subdomain_of(const Name& ancestor) const noexcept {
  if (ancestor.label_count_ > label_count_) {
    return false;
  }
  // The trailing labels of the flat buffer are exactly the ancestor's whole
  // buffer when the relation holds; walking the length prefixes keeps the
  // comparison aligned on label boundaries.
  return data().substr(tail_offset(ancestor.label_count_)) == ancestor.data();
}

bool Name::is_strict_subdomain_of(const Name& ancestor) const noexcept {
  return label_count_ > ancestor.label_count_ && is_subdomain_of(ancestor);
}

std::size_t Name::common_suffix_labels(const Name& other) const noexcept {
  LabelOffsets mine;
  LabelOffsets theirs;
  const std::string_view flat = data();
  const std::string_view other_flat = other.data();
  std::size_t my_count = collect_offsets(flat, mine);
  std::size_t their_count = collect_offsets(other_flat, theirs);
  std::size_t n = std::min(my_count, their_count);
  std::size_t shared = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (label_at(flat, mine[my_count - 1 - i]) !=
        label_at(other_flat, theirs[their_count - 1 - i])) {
      break;
    }
    ++shared;
  }
  return shared;
}

std::strong_ordering Name::operator<=>(const Name& other) const noexcept {
  LabelOffsets mine;
  LabelOffsets theirs;
  const std::string_view flat = data();
  const std::string_view other_flat = other.data();
  std::size_t my_count = collect_offsets(flat, mine);
  std::size_t their_count = collect_offsets(other_flat, theirs);
  std::size_t n = std::min(my_count, their_count);
  for (std::size_t i = 0; i < n; ++i) {
    std::string_view a = label_at(flat, mine[my_count - 1 - i]);
    std::string_view b = label_at(other_flat, theirs[their_count - 1 - i]);
    if (auto cmp = a.compare(b); cmp != 0) {
      return cmp < 0 ? std::strong_ordering::less
                     : std::strong_ordering::greater;
    }
  }
  return my_count <=> their_count;
}

std::ostream& operator<<(std::ostream& os, const Name& name) {
  return os << name.to_string();
}

}  // namespace dnsttl::dns
