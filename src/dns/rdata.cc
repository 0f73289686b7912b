#include "dns/rdata.h"

#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <vector>

namespace dnsttl::dns {

namespace {

std::uint32_t parse_decimal_octet(std::string_view part) {
  if (part.empty() || part.size() > 3) {
    throw std::invalid_argument("bad IPv4 octet");
  }
  std::uint32_t value = 0;
  auto [ptr, ec] =
      std::from_chars(part.data(), part.data() + part.size(), value);
  if (ec != std::errc{} || ptr != part.data() + part.size() || value > 255) {
    throw std::invalid_argument("bad IPv4 octet: " + std::string(part));
  }
  return value;
}

std::uint16_t parse_hex_group(std::string_view part) {
  if (part.empty() || part.size() > 4) {
    throw std::invalid_argument("bad IPv6 group");
  }
  std::uint16_t value = 0;
  auto [ptr, ec] =
      std::from_chars(part.data(), part.data() + part.size(), value, 16);
  if (ec != std::errc{} || ptr != part.data() + part.size()) {
    throw std::invalid_argument("bad IPv6 group: " + std::string(part));
  }
  return value;
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

}  // namespace

Ipv4 Ipv4::from_string(std::string_view text) {
  auto parts = split(text, '.');
  if (parts.size() != 4) {
    throw std::invalid_argument("bad IPv4 address: " + std::string(text));
  }
  std::uint32_t value = 0;
  for (auto part : parts) {
    value = (value << 8) | parse_decimal_octet(part);
  }
  return Ipv4{value};
}

std::string Ipv4::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (value_ >> 24) & 0xff,
                (value_ >> 16) & 0xff, (value_ >> 8) & 0xff, value_ & 0xff);
  return buf;
}

Ipv6 Ipv6::from_string(std::string_view text) {
  std::size_t dcolon = text.find("::");
  std::vector<std::uint16_t> head;
  std::vector<std::uint16_t> tail;

  auto parse_groups = [](std::string_view part, std::vector<std::uint16_t>& out) {
    if (part.empty()) {
      return;
    }
    for (auto group : split(part, ':')) {
      out.push_back(parse_hex_group(group));
    }
  };

  if (dcolon == std::string_view::npos) {
    parse_groups(text, head);
    if (head.size() != 8) {
      throw std::invalid_argument("bad IPv6 address: " + std::string(text));
    }
  } else {
    if (text.find("::", dcolon + 1) != std::string_view::npos) {
      throw std::invalid_argument("multiple '::' in IPv6 address");
    }
    parse_groups(text.substr(0, dcolon), head);
    parse_groups(text.substr(dcolon + 2), tail);
    if (head.size() + tail.size() >= 8) {
      throw std::invalid_argument("bad IPv6 address: " + std::string(text));
    }
  }

  std::array<std::uint16_t, 8> groups{};
  for (std::size_t i = 0; i < head.size(); ++i) {
    groups[i] = head[i];
  }
  for (std::size_t i = 0; i < tail.size(); ++i) {
    groups[8 - tail.size() + i] = tail[i];
  }

  std::array<std::uint8_t, 16> octets{};
  for (std::size_t i = 0; i < 8; ++i) {
    octets[2 * i] = static_cast<std::uint8_t>(groups[i] >> 8);
    octets[2 * i + 1] = static_cast<std::uint8_t>(groups[i] & 0xff);
  }
  return Ipv6{octets};
}

std::string Ipv6::to_string() const {
  std::array<std::uint16_t, 8> groups{};
  for (std::size_t i = 0; i < 8; ++i) {
    groups[i] = static_cast<std::uint16_t>((octets_[2 * i] << 8) |
                                           octets_[2 * i + 1]);
  }

  // Find the longest run of zero groups (length >= 2) for "::" compression.
  int best_start = -1;
  int best_len = 1;
  for (int i = 0; i < 8;) {
    if (groups[static_cast<std::size_t>(i)] != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && groups[static_cast<std::size_t>(j)] == 0) {
      ++j;
    }
    if (j - i > best_len) {
      best_start = i;
      best_len = j - i;
    }
    i = j;
  }

  std::string out;
  char buf[8];
  for (int i = 0; i < 8;) {
    if (i == best_start) {
      // The group before the run suppressed its separator, so "::" is
      // always the right join here.
      out += "::";
      i += best_len;
      if (i == 8) {
        return out;
      }
      continue;
    }
    std::snprintf(buf, sizeof(buf), "%x", groups[static_cast<std::size_t>(i)]);
    out += buf;
    ++i;
    if (i < 8 && i != best_start) {
      out += ':';
    }
  }
  return out;
}

RRType rdata_type(const Rdata& rdata) {
  return std::visit(
      [](const auto& value) -> RRType {
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, ARdata>) return RRType::kA;
        if constexpr (std::is_same_v<T, AaaaRdata>) return RRType::kAAAA;
        if constexpr (std::is_same_v<T, NsRdata>) return RRType::kNS;
        if constexpr (std::is_same_v<T, CnameRdata>) return RRType::kCNAME;
        if constexpr (std::is_same_v<T, Shared<SoaRdata>>) {
          return RRType::kSOA;
        }
        if constexpr (std::is_same_v<T, MxRdata>) return RRType::kMX;
        if constexpr (std::is_same_v<T, TxtRdata>) return RRType::kTXT;
        if constexpr (std::is_same_v<T, PtrRdata>) return RRType::kPTR;
        if constexpr (std::is_same_v<T, SrvRdata>) return RRType::kSRV;
        if constexpr (std::is_same_v<T, DnskeyRdata>) return RRType::kDNSKEY;
        if constexpr (std::is_same_v<T, Shared<RrsigRdata>>) {
          return RRType::kRRSIG;
        }
        if constexpr (std::is_same_v<T, OptRdata>) return RRType::kOPT;
      },
      rdata);
}

std::string rdata_to_string(const Rdata& rdata) {
  return std::visit(
      [](const auto& value) -> std::string {
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, ARdata>) {
          return value.address.to_string();
        } else if constexpr (std::is_same_v<T, AaaaRdata>) {
          return value.address.to_string();
        } else if constexpr (std::is_same_v<T, NsRdata>) {
          return value.nsdname.to_string();
        } else if constexpr (std::is_same_v<T, CnameRdata>) {
          return value.target.to_string();
        } else if constexpr (std::is_same_v<T, Shared<SoaRdata>>) {
          const SoaRdata& soa = *value;
          return soa.mname.to_string() + " " + soa.rname.to_string() + " " +
                 std::to_string(soa.serial) + " " +
                 std::to_string(soa.refresh.raw()) + " " +
                 std::to_string(soa.retry.raw()) + " " +
                 std::to_string(soa.expire.raw()) + " " +
                 std::to_string(soa.minimum.raw());
        } else if constexpr (std::is_same_v<T, MxRdata>) {
          return std::to_string(value.preference) + " " +
                 value.exchange.to_string();
        } else if constexpr (std::is_same_v<T, TxtRdata>) {
          return "\"" + value.text + "\"";
        } else if constexpr (std::is_same_v<T, PtrRdata>) {
          return value.target.to_string();
        } else if constexpr (std::is_same_v<T, SrvRdata>) {
          return std::to_string(value.priority) + " " +
                 std::to_string(value.weight) + " " +
                 std::to_string(value.port) + " " + value.target.to_string();
        } else if constexpr (std::is_same_v<T, DnskeyRdata>) {
          return std::to_string(value.flags) + " " +
                 std::to_string(value.protocol) + " " +
                 std::to_string(value.algorithm) + " " + value.public_key;
        } else if constexpr (std::is_same_v<T, Shared<RrsigRdata>>) {
          const RrsigRdata& sig = *value;
          return std::string(to_string(sig.type_covered)) + " " +
                 std::to_string(sig.algorithm) + " " +
                 std::to_string(sig.labels) + " " +
                 std::to_string(sig.original_ttl.raw()) + " " +
                 sig.signer.to_string();
        } else {
          return "";
        }
      },
      rdata);
}

}  // namespace dnsttl::dns
