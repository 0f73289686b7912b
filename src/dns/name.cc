#include "dns/name.h"

#include <algorithm>
#include <array>
#include <cctype>
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

}  // namespace

void Name::append_label(std::string_view label) {
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
  data_.push_back(static_cast<char>(label.size()));
  for (char c : label) {
    char lowered =
        static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    data_.push_back(lowered);
    hash_ ^= static_cast<unsigned char>(lowered);
    hash_ *= kFnvPrime;
  }
  hash_ ^= 0xffULL;
  hash_ *= kFnvPrime;
  ++label_count_;
}

void Name::check_total_length() const {
  if (wire_length() > kMaxWireLen) {
    throw std::invalid_argument("DNS name exceeds 255 octets");
  }
}

Name::Name(const std::vector<std::string>& labels) {
  std::size_t total = 0;
  for (const auto& label : labels) {
    total += 1 + label.size();
  }
  data_.reserve(total);
  for (const auto& label : labels) {
    append_label(label);
  }
  check_total_length();
  if constexpr (check::kAuditEnabled) {
    validate();
  }
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
  Name name;
  name.data_.reserve(text.size() + 1);
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t dot = text.find('.', start);
    if (dot == std::string_view::npos) {
      name.append_label(text.substr(start));
      break;
    }
    name.append_label(text.substr(start, dot - start));
    start = dot + 1;
  }
  name.check_total_length();
  if constexpr (check::kAuditEnabled) {
    name.validate();
  }
  return name;
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
    : data_(view.labels()),
      hash_(view.hash()),
      label_count_(static_cast<std::uint8_t>(view.label_count())) {
  if constexpr (check::kAuditEnabled) {
    validate();
  }
}

void Name::validate() const {
  constexpr const char* kWhat = "dns::Name";
  DNSTTL_AUDIT_CHECK(kWhat, wire_length() <= kMaxWireLen,
                     "wire length " + std::to_string(wire_length()) +
                         " exceeds 255 octets");
  std::uint64_t h = kHashBasis;
  std::size_t count = 0;
  std::size_t pos = 0;
  while (pos < data_.size()) {
    const std::size_t len = static_cast<unsigned char>(data_[pos]);
    DNSTTL_AUDIT_CHECK(kWhat, len >= 1 && len <= kMaxLabelLen,
                       "label length octet " + std::to_string(len) +
                           " out of range at offset " + std::to_string(pos));
    DNSTTL_AUDIT_CHECK(kWhat, pos + 1 + len <= data_.size(),
                       "label overruns the flat buffer at offset " +
                           std::to_string(pos));
    for (std::size_t i = 0; i < len; ++i) {
      const unsigned char c = static_cast<unsigned char>(data_[pos + 1 + i]);
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
  if (data_.empty()) {
    return ".";
  }
  std::string out;
  out.reserve(data_.size());
  std::size_t pos = 0;
  while (pos < data_.size()) {
    std::string_view label = label_at(data_, pos);
    out.append(label);
    out.push_back('.');
    pos += 1 + label.size();
  }
  return out;
}

std::vector<std::string> Name::labels() const {
  std::vector<std::string> out;
  out.reserve(label_count_);
  std::size_t pos = 0;
  while (pos < data_.size()) {
    std::string_view label = label_at(data_, pos);
    out.emplace_back(label);
    pos += 1 + label.size();
  }
  return out;
}

std::string_view Name::label(std::size_t i) const {
  if (i >= label_count_) {
    throw std::out_of_range("Name::label index out of range");
  }
  std::size_t pos = 0;
  for (std::size_t k = 0; k < i; ++k) {
    pos += 1 + static_cast<unsigned char>(data_[pos]);
  }
  return label_at(data_, pos);
}

Name Name::parent() const {
  if (data_.empty()) {
    return Name{};
  }
  return suffix(label_count_ - 1u);
}

std::size_t Name::tail_offset(std::size_t count) const noexcept {
  std::size_t pos = 0;
  for (std::size_t skip = label_count_ - count; skip > 0; --skip) {
    pos += 1 + static_cast<unsigned char>(data_[pos]);
  }
  return pos;
}

NameView Name::suffix_view(std::size_t count) const noexcept {
  if (count >= label_count_) {
    return view();
  }
  const std::string_view tail =
      std::string_view(data_).substr(tail_offset(count));
  return NameView(tail, hash_labels(tail), count);
}

Name Name::prepend(std::string_view label) const {
  Name name;
  name.data_.reserve(1 + label.size() + data_.size());
  name.append_label(label);
  // Splice the existing flat buffer behind the new label and fold the
  // remaining labels into the running hash.
  std::size_t pos = 0;
  while (pos < data_.size()) {
    std::string_view tail_label = label_at(data_, pos);
    name.data_.push_back(static_cast<char>(tail_label.size()));
    name.data_.append(tail_label);
    for (char c : tail_label) {
      name.hash_ ^= static_cast<unsigned char>(c);
      name.hash_ *= kFnvPrime;
    }
    name.hash_ ^= 0xffULL;
    name.hash_ *= kFnvPrime;
    ++name.label_count_;
    pos += 1 + tail_label.size();
  }
  name.check_total_length();
  if constexpr (check::kAuditEnabled) {
    name.validate();
  }
  return name;
}

bool Name::is_subdomain_of(const Name& ancestor) const noexcept {
  if (ancestor.label_count_ > label_count_) {
    return false;
  }
  // The trailing labels of the flat buffer are exactly the ancestor's whole
  // buffer when the relation holds; walking the length prefixes keeps the
  // comparison aligned on label boundaries.
  return std::string_view(data_).substr(tail_offset(ancestor.label_count_)) ==
         ancestor.data_;
}

bool Name::is_strict_subdomain_of(const Name& ancestor) const noexcept {
  return label_count_ > ancestor.label_count_ && is_subdomain_of(ancestor);
}

std::size_t Name::common_suffix_labels(const Name& other) const noexcept {
  LabelOffsets mine;
  LabelOffsets theirs;
  std::size_t my_count = collect_offsets(data_, mine);
  std::size_t their_count = collect_offsets(other.data_, theirs);
  std::size_t n = std::min(my_count, their_count);
  std::size_t shared = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (label_at(data_, mine[my_count - 1 - i]) !=
        label_at(other.data_, theirs[their_count - 1 - i])) {
      break;
    }
    ++shared;
  }
  return shared;
}

std::strong_ordering Name::operator<=>(const Name& other) const noexcept {
  LabelOffsets mine;
  LabelOffsets theirs;
  std::size_t my_count = collect_offsets(data_, mine);
  std::size_t their_count = collect_offsets(other.data_, theirs);
  std::size_t n = std::min(my_count, their_count);
  for (std::size_t i = 0; i < n; ++i) {
    std::string_view a = label_at(data_, mine[my_count - 1 - i]);
    std::string_view b = label_at(other.data_, theirs[their_count - 1 - i]);
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
