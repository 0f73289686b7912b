// Replays every crasher the fuzz harnesses have found as an ordinary GTest,
// through the exact harness entry points the fuzzers use.  When a fuzzer
// finds a new crasher: fix it, then append its bytes here so the class of
// bug stays pinned forever (label: fuzz-regression).
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache.h"
#include "dns/name.h"
#include "dns/rr.h"
#include "harness.h"
#include "sim/time.h"

namespace {

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  std::uint8_t value = 0;
  int nibbles = 0;
  for (char ch : hex) {
    int digit;
    if (ch >= '0' && ch <= '9') {
      digit = ch - '0';
    } else if (ch >= 'a' && ch <= 'f') {
      digit = ch - 'a' + 10;
    } else {
      continue;  // whitespace and separators
    }
    value = static_cast<std::uint8_t>((value << 4) | digit);
    if (++nibbles == 2) {
      out.push_back(value);
      nibbles = 0;
      value = 0;
    }
  }
  return out;
}

void replay_message(const std::string& hex) {
  const std::vector<std::uint8_t> input = from_hex(hex);
  ASSERT_NO_THROW(
      dnsttl::fuzz::run_message_input(input.data(), input.size()));
}

// ---------------------------------------------------------------------------
// Crasher 1 (found by fuzz_message, driver seed 1): an RRSIG whose mutated
// RDLENGTH (7) is shorter than the 18-byte fixed RRSIG header.  decode's
// `end - offset` for the signature tail underflowed to ~SIZE_MAX, and
// require()'s `offset + count` overflow let the count through to a
// std::length_error from std::vector — the wrong error type, from two
// stacked integer wraps.  Now rejected as WireError.
TEST(FuzzRegression, RrsigRdlengthShorterThanFixedFields) {
  replay_message(
      "34 56 85 00 00 01 00 03 00 01 00 01 03 77 77 77 07 65 78 61 6d 70 6c"
      "65 03 63 6f 6d 00 00 01 00 01 c0 0c 00 2e 00 01 00 00 01 2c 00 07 04"
      "68 6f 73 74 c0 10 c0 2d 00 11 00 01 00 00 00 3c 00 04 c0 00 02 01 c0"
      "2d 00 01 00 01 00 00 00 3c 00 04 c0 00 02 02 c0 10 00 02 00 01 00 01"
      "51 80 00 06 03 6e 73 31 c0 10 c0 60 00 01 00 01 00 01 51 80 43 9f 0e"
      "41 85 26 00 04 ac 00 01 35");
}

// Minimal distillation of crasher 1: just the header plus the short RRSIG.
TEST(FuzzRegression, RrsigRdlengthShorterThanFixedFieldsMinimal) {
  replay_message(
      "00 01 00 00 00 00 00 01 00 00 00 00"
      "01 61 00 00 2e 00 01 00 00 01 2c 00 07 00 01 05 02 00 00 00");
}

// Crasher class 2 (found during harness bring-up): compression pointers can
// stitch labels into a name longer than 255 octets even though every hop is
// individually legal.  Name's constructor rejected it with
// std::invalid_argument, which escaped decode() — callers only contract for
// WireError.  decode() now enforces the length during wire traversal.
TEST(FuzzRegression, CompressionStitchedNameOver255Octets) {
  // Header: 1 question, 1 answer.  The question name (one 63-octet label at
  // offset 12) is the pointer target; the answer's owner stacks four direct
  // 63-octet labels before jumping to it — 321 stitched octets.
  std::string hex = "00 01 00 00 00 01 00 01 00 00 00 00 3f";
  for (int i = 0; i < 63; ++i) hex += " 78";
  hex += " 00 00 01 00 01";  // root, qtype, qclass
  for (int label = 0; label < 4; ++label) {
    hex += " 3f";
    for (int i = 0; i < 63; ++i) hex += " 79";
  }
  hex += " c0 0c 00 01 00 01 00 00 0e 10 00 04 c0 00 02 01";
  replay_message(hex);
}

// Crasher class 3 (found during harness bring-up): a '.' byte inside a wire
// label produced a Name that cannot round-trip through presentation form;
// std::invalid_argument escaped decode().  Now WireError.
TEST(FuzzRegression, DotByteInsideWireLabel) {
  replay_message(
      "00 01 00 00 00 01 00 00 00 00 00 00"
      "03 61 2e 62 00 00 01 00 01");
}

// RFC 2181 §8 overflow TTLs through the full fuzz harness: answers carrying
// 0x80000000 and 0xffffffff TTLs must decode (clamped to zero at the wire
// boundary by Ttl::from_wire), then survive the harness's re-encode /
// re-decode round trip without tripping its equality oracle.  Pins the
// clamp-once-at-ingest contract: if a second clamp or a raw uint32 path
// reappears anywhere in the codec, the round trip diverges and this fails.
TEST(FuzzRegression, OverflowTtlClampsAtWireBoundary) {
  // a. A/IN question; answer a. A 0x80000000 192.0.2.1
  replay_message(
      "12 34 81 00 00 01 00 01 00 00 00 00 01 61 00 00 01 00 01 c0 0c 00 01"
      "00 01 80 00 00 00 00 04 c0 00 02 01");
  // Same shape with TTL 0xffffffff.
  replay_message(
      "12 34 81 00 00 01 00 01 00 00 00 00 01 61 00 00 01 00 01 c0 0c 00 01"
      "00 01 ff ff ff ff 00 04 c0 00 02 01");
  // Boundary twin 0x7fffffff: legal maximum, must pass through unclamped.
  replay_message(
      "12 34 81 00 00 01 00 01 00 00 00 00 01 61 00 00 01 00 01 c0 0c 00 01"
      "00 01 7f ff ff ff 00 04 c0 00 02 01");
}

void replay_cache_snapshot(const std::vector<std::uint8_t>& image) {
  ASSERT_NO_THROW(
      dnsttl::fuzz::run_cache_snapshot_input(image.data(), image.size()));
}

std::vector<std::uint8_t> populated_snapshot_image() {
  using dnsttl::cache::Cache;
  using dnsttl::cache::Credibility;
  using dnsttl::dns::Name;
  namespace dns = dnsttl::dns;
  namespace sim = dnsttl::sim;
  Cache::Config config;
  config.max_entries = 8;
  config.policy = dnsttl::cache::EvictionPolicy::kTtlAware;
  Cache cache(config);
  dns::RRset glue(Name::from_string("ns.pin.example"), dns::RClass::kIN,
                  dns::Ttl{3600});
  glue.add(dns::ARdata{dns::Ipv4(203, 0, 113, 1)});
  cache.insert(glue, Credibility::kGlue, sim::Time{},
               Name::from_string("pin.example"));
  dns::RRset leaf(Name::from_string("a.pin.example"), dns::RClass::kIN,
                  dns::Ttl{60});
  leaf.add(dns::ARdata{dns::Ipv4(203, 0, 113, 2)});
  cache.insert(leaf, Credibility::kAuthAnswer, sim::at(1 * sim::kSecond));
  cache.insert_negative(Name::from_string("nx.pin.example"), dns::RRType::kA,
                        dns::Rcode::kNXDomain, dns::Ttl{300},
                        sim::at(2 * sim::kSecond));
  return cache.snapshot();
}

// Bug class found during restore() bring-up (not by the fuzzer — by the
// round-trip property test): restore built each entry, moved it into the
// table, then pushed its expiry record using a Name REFERENCE into the
// moved-from entry — a dangling read that corrupted the rebuilt heap for
// any image with positive entries.  Replaying a populated image through the
// harness (restore -> validate -> re-snapshot fixpoint) pins the class.
TEST(FuzzRegression, CacheSnapshotRestoreDoesNotDangleIntoMovedEntries) {
  replay_cache_snapshot(populated_snapshot_image());
}

// The snapshot fuzzer has produced no other crasher yet; hostile images
// must reject as SnapshotError (which the harness swallows), never any
// other way.  Truncations, bit flips, a version bump, and junk.
TEST(FuzzRegression, CacheSnapshotHostileImagesRejectCleanly) {
  const std::vector<std::uint8_t> image = populated_snapshot_image();
  for (std::size_t len = 0; len < image.size(); len += 7) {
    replay_cache_snapshot({image.begin(), image.begin() + len});
  }
  for (std::size_t i = 0; i < image.size(); i += 3) {
    std::vector<std::uint8_t> flipped = image;
    flipped[i] ^= 0xff;
    replay_cache_snapshot(flipped);
  }
  std::vector<std::uint8_t> bumped = image;
  bumped[4] = 0x02;  // version field
  replay_cache_snapshot(bumped);
  replay_cache_snapshot(std::vector<std::uint8_t>(4096, 0xa5));
  replay_cache_snapshot({});
}

}  // namespace
