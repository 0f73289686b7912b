// Adversarial wire-format inputs (PR 2).  Every case here is a shape an
// attacker (or a broken authoritative server) can actually emit; the codec
// must reject each through its single documented error channel, WireError —
// never std::invalid_argument, std::length_error, or a crash.
#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dns/message.h"
#include "dns/name.h"
#include "dns/rr.h"
#include "dns/wire.h"

namespace dnsttl::dns {
namespace {

using Bytes = std::vector<std::uint8_t>;

Bytes wire(std::initializer_list<unsigned> octets) {
  Bytes out;
  out.reserve(octets.size());
  for (unsigned value : octets) {
    out.push_back(static_cast<std::uint8_t>(value));
  }
  return out;
}

/// 12-byte header advertising @p qd/@p an/@p ns/@p ar entries.
Bytes header(unsigned qd, unsigned an = 0, unsigned ns = 0, unsigned ar = 0) {
  return wire({0x12, 0x34, 0x01, 0x00, 0, qd, 0, an, 0, ns, 0, ar});
}

void append(Bytes& out, const Bytes& tail) {
  out.insert(out.end(), tail.begin(), tail.end());
}

struct MalformedCase {
  const char* label;
  Bytes input;
};

// gtest prints a parameter into its ctest name; without this it prints the
// case's raw bytes, whose first bytes are the label's address, which ASLR
// and every relink move.  The label is stable.
void PrintTo(const MalformedCase& test_case, std::ostream* os) {
  *os << test_case.label;
}

class WireAdversarialTest : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(WireAdversarialTest, RejectedWithWireError) {
  const MalformedCase& test_case = GetParam();
  EXPECT_THROW(decode(test_case.input), WireError) << test_case.label;
}

// The shortest input the decoder must reject: no bytes at all.
TEST(WireAdversarial, EmptyInputRejectedWithWireError) {
  EXPECT_THROW(decode(Bytes{}), WireError);
}

std::vector<MalformedCase> malformed_cases() {
  std::vector<MalformedCase> cases;

  cases.push_back({"truncated header", wire({0x12, 0x34, 0x01})});
  cases.push_back({"header promises question, none present", header(1)});

  {  // Name label claims 5 octets, 3 remain.
    Bytes b = header(1);
    append(b, wire({0x05, 'a', 'b', 'c'}));
    cases.push_back({"label overruns message", std::move(b)});
  }

  {  // Self-referential compression pointer at offset 12.
    Bytes b = header(1);
    append(b, wire({0xc0, 0x0c, 0x00, 0x01, 0x00, 0x01}));
    cases.push_back({"pointer loop: self-reference", std::move(b)});
  }

  {  // Two pointers referencing each other (12 -> 14 -> 12).
    Bytes b = header(1);
    append(b, wire({0xc0, 0x0e, 0xc0, 0x0c, 0x00, 0x01, 0x00, 0x01}));
    cases.push_back({"pointer loop: mutual reference", std::move(b)});
  }

  {  // Forward pointer (targets must precede the pointer).
    Bytes b = header(1);
    append(b, wire({0xc0, 0x20, 0x00, 0x01, 0x00, 0x01}));
    cases.push_back({"forward compression pointer", std::move(b)});
  }

  {  // Pointer whose second octet is missing.
    Bytes b = header(1);
    append(b, wire({0xc0}));
    cases.push_back({"truncated compression pointer", std::move(b)});
  }

  {  // 0x40/0x80 label types are reserved (RFC 1035 §4.1.4).
    Bytes b = header(1);
    append(b, wire({0x41, 'a', 0x00, 0x00, 0x01, 0x00, 0x01}));
    cases.push_back({"reserved label type 0b01", std::move(b)});
  }
  {
    Bytes b = header(1);
    append(b, wire({0x81, 'a', 0x00, 0x00, 0x01, 0x00, 0x01}));
    cases.push_back({"reserved label type 0b10", std::move(b)});
  }

  {  // Question name fine, qtype/qclass missing.
    Bytes b = header(1);
    append(b, wire({0x01, 'a', 0x00, 0x00}));
    cases.push_back({"truncated question fields", std::move(b)});
  }

  {  // A record whose RDLENGTH (4) exceeds the remaining bytes (2).
    Bytes b = header(0, 1);
    append(b, wire({0x01, 'a', 0x00,              // owner "a."
                    0x00, 0x01, 0x00, 0x01,       // TYPE A, CLASS IN
                    0x00, 0x00, 0x0e, 0x10,       // TTL 3600
                    0x00, 0x04, 0xc0, 0x00}));    // RDLENGTH 4, 2 bytes left
    cases.push_back({"truncated RDATA", std::move(b)});
  }

  {  // A record with RDLENGTH 6 around a 4-byte address: trailing junk
     // inside the RDATA window must fail the RDLENGTH agreement check.
    Bytes b = header(0, 1);
    append(b, wire({0x01, 'a', 0x00,
                    0x00, 0x01, 0x00, 0x01,
                    0x00, 0x00, 0x0e, 0x10,
                    0x00, 0x06, 192, 0, 2, 1, 0xde, 0xad}));
    cases.push_back({"RDLENGTH larger than typed RDATA", std::move(b)});
  }

  {  // RRSIG whose RDLENGTH (7) is shorter than the 18-byte fixed header:
     // the remaining-signature computation must not underflow.  Regression
     // shape for the std::length_error crasher the fuzzer found.
    Bytes b = header(0, 1);
    append(b, wire({0x01, 'a', 0x00,
                    0x00, 0x2e, 0x00, 0x01,       // TYPE RRSIG, CLASS IN
                    0x00, 0x00, 0x01, 0x2c,       // TTL 300
                    0x00, 0x07,                   // RDLENGTH 7 (too short)
                    0x00, 0x01, 0x05, 0x02,       // covered/alg/labels
                    0x00, 0x00, 0x00}));          // part of original TTL
    cases.push_back({"RRSIG fixed fields overrun RDLENGTH", std::move(b)});
  }

  {  // DNSKEY analogue: RDLENGTH 2 < 4-byte fixed prefix.
    Bytes b = header(0, 1);
    append(b, wire({0x01, 'a', 0x00,
                    0x00, 0x30, 0x00, 0x01,       // TYPE DNSKEY
                    0x00, 0x00, 0x01, 0x2c,
                    0x00, 0x02, 0x01, 0x01}));
    cases.push_back({"DNSKEY fixed fields overrun RDLENGTH", std::move(b)});
  }

  {  // Labels stitched through compression into a >255-octet name.
     // Each hop is legal on its own; only the stitched total is not.  The
     // question name (a single 63-octet label, offset 12) is the pointer
     // target; the answer's owner adds four direct 63-octet labels before
     // jumping to it: 5*64 + 1 = 321 octets > 255.
    Bytes b = header(1, 1);
    append(b, wire({63}));
    for (int i = 0; i < 63; ++i) b.push_back('x');
    b.push_back(0x00);
    append(b, wire({0x00, 0x01, 0x00, 0x01}));  // qtype/qclass
    for (int label = 0; label < 4; ++label) {
      b.push_back(63);
      for (int i = 0; i < 63; ++i) b.push_back('y');
    }
    append(b, wire({0xc0, 0x0c,                  // jump to the question name
                    0x00, 0x01, 0x00, 0x01,      // TYPE A, CLASS IN
                    0x00, 0x00, 0x0e, 0x10,      // TTL
                    0x00, 0x04, 192, 0, 2, 1})); // RDATA
    cases.push_back({"compression-stitched name over 255 octets",
                     std::move(b)});
  }

  {  // A '.' byte inside a wire label has no presentation form our Name can
     // round-trip; it must surface as WireError, not std::invalid_argument.
    Bytes b = header(1);
    append(b, wire({0x03, 'a', '.', 'b', 0x00, 0x00, 0x01, 0x00, 0x01}));
    cases.push_back({"dot byte inside a label", std::move(b)});
  }

  {  // Unknown RR type: this codec decodes only the simulated types and
     // must reject the rest explicitly rather than misparse.
    Bytes b = header(0, 1);
    append(b, wire({0x01, 'a', 0x00,
                    0x00, 0x63, 0x00, 0x01,       // TYPE 99 (SPF)
                    0x00, 0x00, 0x0e, 0x10,
                    0x00, 0x01, 0x00}));
    cases.push_back({"undecodable RR type", std::move(b)});
  }

  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, WireAdversarialTest, ::testing::ValuesIn(malformed_cases()),
    [](const ::testing::TestParamInfo<MalformedCase>& param_info) {
      std::string name = param_info.param.label;
      for (char& ch : name) {
        if (!(std::isalnum(static_cast<unsigned char>(ch)))) {
          ch = '_';
        }
      }
      return name;
    });

TEST(WireEncodeLimits, RdataBeyondSixteenBitRdlengthIsRejected) {
  // RDLENGTH is 16 bits.  A TXT of n text octets takes n + ceil(n / 255)
  // RDATA octets, so 65279 text octets fill RDLENGTH exactly, while 70000
  // cannot be stated: the encoder once wrapped the length and emitted
  // bytes decode() rejects, and encoded_size() must refuse the same input.
  const Name owner = Name::from_string("big.example");
  Message fits = Message::make_response(
      Message::make_query(7, owner, RRType::kTXT, /*recursion_desired=*/false));
  Message too_big = fits;
  fits.answers.push_back(make_txt(owner, Ttl{60}, std::string(65279, 'x')));
  too_big.answers.push_back(make_txt(owner, Ttl{60}, std::string(70000, 'x')));

  EXPECT_EQ(decode(encode(fits)), fits);
  EXPECT_EQ(encoded_size(fits), encode(fits).size());
  EXPECT_THROW(encode(too_big), WireError);
  EXPECT_THROW(encoded_size(too_big), WireError);
}

// Out-of-bailiwick data is NOT a wire-format error: the codec must accept
// it (the bytes are well-formed) and hand the bailiwick decision to the
// resolver.  These tests pin that split of responsibilities.
TEST(WireBailiwick, OutOfBailiwickAdditionalDecodesButIsDetectable) {
  Message referral = Message::make_response(
      Message::make_query(1, Name::from_string("www.example.com."),
                          RRType::kA));
  referral.authorities.push_back(
      make_ns(Name::from_string("example.com."), dns::Ttl{3600},
              Name::from_string("ns.example.com.")));
  // Classic Kaminsky-style payload: glue for a name the answering zone has
  // no authority over.
  referral.additionals.push_back(
      make_a(Name::from_string("victim.bank.test."), dns::Ttl{3600}, Ipv4(192, 0, 2, 66)));

  const Message decoded = decode(encode(referral));
  ASSERT_EQ(decoded.additionals.size(), 1u);
  const Name zone = Name::from_string("example.com.");
  EXPECT_FALSE(decoded.additionals[0].name.in_bailiwick_of(zone));
  EXPECT_TRUE(decoded.authorities[0].name.in_bailiwick_of(zone));
}

// RFC 2181 §8: a TTL with the most-significant bit set "should be treated
// as having a value of zero".  That clamp happens exactly once, at the wire
// boundary (Ttl::from_wire) — an attacker-supplied 0x80000000 must come out
// of decode() as TTL 0, never as a huge unsigned value that a cache would
// hold for 68 years.
TEST(WireTtlClamp, MsbSetTtlDecodesAsZero) {
  Bytes b = header(1, 1);
  append(b, wire({1, 'a', 0, 0x00, 0x01, 0x00, 0x01}));  // question a./A/IN
  append(b, wire({0xc0, 0x0c, 0x00, 0x01, 0x00, 0x01,    // answer, same name
                  0x80, 0x00, 0x00, 0x00,                // TTL: MSB set
                  0x00, 0x04, 192, 0, 2, 1}));
  const Message decoded = decode(b);
  ASSERT_EQ(decoded.answers.size(), 1u);
  EXPECT_EQ(decoded.answers[0].ttl, Ttl{0});
}

TEST(WireTtlClamp, MaximumPositiveTtlSurvivesUnchanged) {
  // Boundary twin: 0x7fffffff is the largest legal TTL and must NOT clamp.
  Bytes b = header(1, 1);
  append(b, wire({1, 'a', 0, 0x00, 0x01, 0x00, 0x01}));
  append(b, wire({0xc0, 0x0c, 0x00, 0x01, 0x00, 0x01,
                  0x7f, 0xff, 0xff, 0xff,                // TTL: 2^31 - 1
                  0x00, 0x04, 192, 0, 2, 1}));
  const Message decoded = decode(b);
  ASSERT_EQ(decoded.answers.size(), 1u);
  EXPECT_EQ(decoded.answers[0].ttl, kMaxTtl);
  // And it round-trips: re-encoding emits the same four TTL octets.
  EXPECT_EQ(decode(encode(decoded)).answers[0].ttl, kMaxTtl);
}

TEST(WireTtlClamp, AllOnesTtlDecodesAsZero) {
  // 0xffffffff — the other adversarial spelling of "MSB set".
  Bytes b = header(1, 1);
  append(b, wire({1, 'a', 0, 0x00, 0x01, 0x00, 0x01}));
  append(b, wire({0xc0, 0x0c, 0x00, 0x01, 0x00, 0x01,
                  0xff, 0xff, 0xff, 0xff,
                  0x00, 0x04, 192, 0, 2, 1}));
  EXPECT_EQ(decode(b).answers[0].ttl, Ttl{0});
}

TEST(WireBailiwick, MaximumLegalNameRoundTrips) {
  // 255-octet limit boundary from the accepting side: a name of exactly
  // 255 wire octets (including root) must encode and decode unchanged.
  std::vector<std::string> labels(4, std::string(62, 'm'));  // 4*63 = 252
  labels.push_back("n");                                     // +2, +root = 255
  const Name max_name{labels};
  ASSERT_EQ(max_name.wire_length(), 255u);

  Message query = Message::make_query(7, max_name, RRType::kA);
  const Message decoded = decode(encode(query));
  EXPECT_EQ(decoded.question().qname, max_name);
}

}  // namespace
}  // namespace dnsttl::dns
