#include "dns/rdata.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "dns/rr.h"

namespace dnsttl::dns {
namespace {

TEST(Ipv4Test, ParsesDottedQuad) {
  Ipv4 addr = Ipv4::from_string("190.124.27.10");
  EXPECT_EQ(addr.to_string(), "190.124.27.10");
  EXPECT_EQ(addr.value(), 0xbe7c1b0au);
}

TEST(Ipv4Test, ComponentConstructor) {
  EXPECT_EQ(Ipv4(10, 0, 0, 1).to_string(), "10.0.0.1");
}

TEST(Ipv4Test, RejectsMalformed) {
  EXPECT_THROW(Ipv4::from_string("1.2.3"), std::invalid_argument);
  EXPECT_THROW(Ipv4::from_string("1.2.3.4.5"), std::invalid_argument);
  EXPECT_THROW(Ipv4::from_string("256.0.0.1"), std::invalid_argument);
  EXPECT_THROW(Ipv4::from_string("a.b.c.d"), std::invalid_argument);
  EXPECT_THROW(Ipv4::from_string(""), std::invalid_argument);
}

TEST(Ipv6Test, ParsesFullForm) {
  Ipv6 addr = Ipv6::from_string("2001:0db8:0000:0000:0000:0000:0000:0001");
  EXPECT_EQ(addr.to_string(), "2001:db8::1");
}

TEST(Ipv6Test, ParsesCompressedForm) {
  Ipv6 addr = Ipv6::from_string("2001:db8::1");
  EXPECT_EQ(addr.octets()[0], 0x20);
  EXPECT_EQ(addr.octets()[1], 0x01);
  EXPECT_EQ(addr.octets()[15], 0x01);
}

TEST(Ipv6Test, RoundTripsLoopbackAndAny) {
  EXPECT_EQ(Ipv6::from_string("::1").to_string(), "::1");
  EXPECT_EQ(Ipv6::from_string("::").to_string(), "::");
}

TEST(Ipv6Test, CompressesLongestZeroRun) {
  EXPECT_EQ(Ipv6::from_string("1:0:0:2:0:0:0:3").to_string(), "1:0:0:2::3");
}

TEST(Ipv6Test, RejectsMalformed) {
  EXPECT_THROW(Ipv6::from_string("1:2:3"), std::invalid_argument);
  EXPECT_THROW(Ipv6::from_string("::1::2"), std::invalid_argument);
  EXPECT_THROW(Ipv6::from_string("1:2:3:4:5:6:7:8:9"), std::invalid_argument);
  EXPECT_THROW(Ipv6::from_string("xyzw::"), std::invalid_argument);
}

TEST(RdataTest, TypeOfEachAlternative) {
  EXPECT_EQ(rdata_type(ARdata{}), RRType::kA);
  EXPECT_EQ(rdata_type(AaaaRdata{}), RRType::kAAAA);
  EXPECT_EQ(rdata_type(NsRdata{}), RRType::kNS);
  EXPECT_EQ(rdata_type(CnameRdata{}), RRType::kCNAME);
  EXPECT_EQ(rdata_type(SoaRdata{}), RRType::kSOA);
  EXPECT_EQ(rdata_type(MxRdata{}), RRType::kMX);
  EXPECT_EQ(rdata_type(TxtRdata{}), RRType::kTXT);
  EXPECT_EQ(rdata_type(DnskeyRdata{}), RRType::kDNSKEY);
  EXPECT_EQ(rdata_type(RrsigRdata{}), RRType::kRRSIG);
  EXPECT_EQ(rdata_type(OptRdata{}), RRType::kOPT);
}

// SOA and RRSIG payloads live out of line, one block per payload that
// every copy shares.  Payloads built separately with equal fields are
// equal values and order by value, so an RRset keeps one of them.
TEST(RdataTest, SharedPayloadsCompareByValue) {
  const auto soa = [](std::uint32_t serial) {
    SoaRdata fields;
    fields.mname = Name::from_string("ns1.example");
    fields.rname = Name::from_string("hostmaster.example");
    fields.serial = serial;
    return Rdata{fields};
  };
  const auto shared = [](const Rdata& rdata) {
    return std::get<Shared<SoaRdata>>(rdata);
  };
  const Rdata first = soa(7);
  const Rdata second = soa(7);
  EXPECT_NE(&*shared(first), &*shared(second));
  EXPECT_EQ(first, second);
  EXPECT_LT(shared(soa(7)), shared(soa(8)));
  const Rdata copy = first;
  EXPECT_EQ(&*shared(copy), &*shared(first));

  RRset set(Name::from_string("example"), RClass::kIN, Ttl{3600});
  set.add(first);
  set.add(second);
  EXPECT_EQ(set.size(), 1u);
  set.add(soa(8));
  EXPECT_EQ(set.size(), 2u);

  RrsigRdata sig;
  sig.signer = Name::from_string("example");
  sig.signature = "sig";
  EXPECT_EQ(Rdata{sig}, Rdata{sig});
  RrsigRdata other = sig;
  other.signature = "gis";
  EXPECT_NE(Rdata{sig}, Rdata{other});
}

TEST(RdataTest, PresentationFormats) {
  EXPECT_EQ(rdata_to_string(ARdata{Ipv4(1, 2, 3, 4)}), "1.2.3.4");
  EXPECT_EQ(rdata_to_string(NsRdata{Name::from_string("a.nic.cl")}),
            "a.nic.cl.");
  EXPECT_EQ(rdata_to_string(MxRdata{5, Name::from_string("mx.example.org")}),
            "5 mx.example.org.");
  EXPECT_EQ(rdata_to_string(TxtRdata{"hello"}), "\"hello\"");
}

TEST(RRsetTest, FromRecordsUsesMinimumTtl) {
  // RFC 2181 §5.2: differing TTLs in one set resolve to the minimum.
  Name owner = Name::from_string("example.org");
  std::vector<ResourceRecord> records = {
      make_a(owner, dns::Ttl{3600}, Ipv4(1, 1, 1, 1)),
      make_a(owner, dns::Ttl{300}, Ipv4(2, 2, 2, 2)),
  };
  RRset set = RRset::from_records(records);
  EXPECT_EQ(set.ttl(), Ttl{300});
  EXPECT_EQ(set.size(), 2u);
}

TEST(RRsetTest, FromRecordsRejectsMixedKeys) {
  std::vector<ResourceRecord> mixed = {
      make_a(Name::from_string("a.org"), dns::Ttl{60}, Ipv4(1, 1, 1, 1)),
      make_a(Name::from_string("b.org"), dns::Ttl{60}, Ipv4(1, 1, 1, 1)),
  };
  EXPECT_THROW(RRset::from_records(mixed), std::invalid_argument);
  EXPECT_THROW(RRset::from_records({}), std::invalid_argument);
}

TEST(RRsetTest, ToRecordsCarriesSetTtl) {
  Name owner = Name::from_string("example.org");
  RRset set(owner, RClass::kIN, dns::Ttl{120});
  set.add(ARdata{Ipv4(9, 9, 9, 9)});
  set.add(ARdata{Ipv4(8, 8, 8, 8)});
  auto records = set.to_records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].ttl, Ttl{120});
  EXPECT_EQ(records[1].ttl, Ttl{120});
}

TEST(ResourceRecordTest, ZoneFilePresentation) {
  auto rr = make_ns(Name::from_string("cl"), dns::Ttl{172800},
                    Name::from_string("a.nic.cl"));
  EXPECT_EQ(rr.to_string(), "cl. 172800 IN NS a.nic.cl.");
}

}  // namespace
}  // namespace dnsttl::dns
