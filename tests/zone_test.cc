#include "dns/zone.h"

#include <gtest/gtest.h>

#include "dns/rr.h"

namespace dnsttl::dns {
namespace {

using Kind = LookupResult::Kind;

/// Builds the paper's Table 1 setup: the root zone delegating .cl with
/// 172800 s records, and the .cl child zone with 3600/43200 s TTLs.
Zone make_root_with_cl() {
  Zone root{Name{}};
  root.add(make_soa(Name{}, dns::Ttl{86400}, Name::from_string("a.root-servers.net"), 1));
  root.add(make_ns(Name::from_string("cl"), dns::Ttl{172800},
                   Name::from_string("a.nic.cl")));
  root.add(make_a(Name::from_string("a.nic.cl"), dns::Ttl{172800},
                  Ipv4::from_string("190.124.27.10")));
  root.add(make_aaaa(Name::from_string("a.nic.cl"), dns::Ttl{172800},
                     Ipv6::from_string("2001:1398:1::6002")));
  return root;
}

Zone make_cl_child() {
  Zone cl{Name::from_string("cl")};
  cl.add(make_soa(Name::from_string("cl"), dns::Ttl{3600},
                  Name::from_string("a.nic.cl"), 2019));
  cl.add(make_ns(Name::from_string("cl"), dns::Ttl{3600}, Name::from_string("a.nic.cl")));
  cl.add(make_a(Name::from_string("a.nic.cl"), dns::Ttl{43200},
                Ipv4::from_string("190.124.27.10")));
  return cl;
}

TEST(ZoneTest, RejectsRecordsOutsideOrigin) {
  Zone zone{Name::from_string("example.org")};
  EXPECT_THROW(zone.add(make_a(Name::from_string("example.com"), dns::Ttl{60},
                               Ipv4(1, 2, 3, 4))),
               std::invalid_argument);
}

TEST(ZoneTest, DelegationReturnsReferralWithGlue) {
  Zone root = make_root_with_cl();
  auto result = root.lookup(Name::from_string("example.cl"), RRType::kA);
  EXPECT_EQ(result.kind, Kind::kDelegation);
  EXPECT_FALSE(result.authoritative);
  ASSERT_EQ(result.authorities.size(), 1u);
  EXPECT_EQ(result.authorities[0].type(), RRType::kNS);
  EXPECT_EQ(result.authorities[0].ttl, Ttl{172800});
  // Glue: both A and AAAA of a.nic.cl ride along (Table 1 "Add." rows).
  ASSERT_EQ(result.additionals.size(), 2u);
  EXPECT_EQ(result.additionals[0].ttl, Ttl{172800});
}

TEST(ZoneTest, QueryForTldNsAtParentIsReferralNotAnswer) {
  Zone root = make_root_with_cl();
  auto result = root.lookup(Name::from_string("cl"), RRType::kNS);
  // The root is not authoritative for .cl: it returns a referral.
  EXPECT_EQ(result.kind, Kind::kDelegation);
}

TEST(ZoneTest, ChildAnswersApexNsAuthoritatively) {
  Zone cl = make_cl_child();
  auto result = cl.lookup(Name::from_string("cl"), RRType::kNS);
  EXPECT_EQ(result.kind, Kind::kAnswer);
  EXPECT_TRUE(result.authoritative);
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0].ttl, Ttl{3600});
  // Additional carries the child's own 43200 s address (Table 1 row 2).
  ASSERT_EQ(result.additionals.size(), 1u);
  EXPECT_EQ(result.additionals[0].ttl, Ttl{43200});
}

TEST(ZoneTest, ChildAnswersNameServerAddress) {
  Zone cl = make_cl_child();
  auto result = cl.lookup(Name::from_string("a.nic.cl"), RRType::kA);
  EXPECT_EQ(result.kind, Kind::kAnswer);
  EXPECT_EQ(result.answers[0].ttl, Ttl{43200});
}

TEST(ZoneTest, GlueOmittedForOutOfBailiwickNs) {
  Zone net{Name::from_string("net")};
  net.add(make_soa(Name::from_string("net"), dns::Ttl{3600},
                   Name::from_string("a.gtld-servers.net"), 1));
  net.add(make_ns(Name::from_string("cachetest.net"), dns::Ttl{172800},
                  Name::from_string("ns1.zurroundeddu.com")));
  auto result =
      net.lookup(Name::from_string("www.cachetest.net"), RRType::kA);
  EXPECT_EQ(result.kind, Kind::kDelegation);
  EXPECT_TRUE(result.additionals.empty());
}

TEST(ZoneTest, NxDomainCarriesSoa) {
  Zone cl = make_cl_child();
  auto result = cl.lookup(Name::from_string("missing.cl"), RRType::kA);
  EXPECT_EQ(result.kind, Kind::kNxDomain);
  ASSERT_EQ(result.authorities.size(), 1u);
  EXPECT_EQ(result.authorities[0].type(), RRType::kSOA);
}

TEST(ZoneTest, NoDataForExistingNameWrongType) {
  Zone cl = make_cl_child();
  auto result = cl.lookup(Name::from_string("a.nic.cl"), RRType::kMX);
  EXPECT_EQ(result.kind, Kind::kNoData);
}

TEST(ZoneTest, EmptyNonTerminalIsNoDataNotNxDomain) {
  Zone zone{Name::from_string("example.org")};
  zone.add(make_soa(Name::from_string("example.org"), dns::Ttl{3600},
                    Name::from_string("ns.example.org"), 1));
  zone.add(make_a(Name::from_string("a.b.example.org"), dns::Ttl{60}, Ipv4(1, 1, 1, 1)));
  auto result = zone.lookup(Name::from_string("b.example.org"), RRType::kA);
  EXPECT_EQ(result.kind, Kind::kNoData);
}

TEST(ZoneTest, EmptyNonTerminalVanishesWhenLastChildRemoved) {
  Zone zone{Name::from_string("example.org")};
  zone.add(make_soa(Name::from_string("example.org"), dns::Ttl{3600},
                    Name::from_string("ns.example.org"), 1));
  const Name left = Name::from_string("a.b.example.org");
  const Name right = Name::from_string("c.b.example.org");
  const Name b = Name::from_string("b.example.org");
  zone.add(make_a(left, dns::Ttl{60}, Ipv4(1, 1, 1, 1)));
  zone.add(make_a(right, dns::Ttl{60}, Ipv4(2, 2, 2, 2)));

  EXPECT_TRUE(zone.remove(left, RRType::kA));
  EXPECT_EQ(zone.lookup(b, RRType::kA).kind, Kind::kNoData);  // c.b remains
  EXPECT_TRUE(zone.remove(right, RRType::kA));
  auto result = zone.lookup(b, RRType::kA);
  EXPECT_EQ(result.kind, Kind::kNxDomain);
  ASSERT_EQ(result.authorities.size(), 1u);
  EXPECT_EQ(result.authorities[0].type(), RRType::kSOA);
  EXPECT_EQ(zone.lookup(Name::from_string("example.org"), RRType::kA).kind,
            Kind::kNoData);
  EXPECT_NO_THROW(zone.validate());
}

TEST(ZoneTest, NotInZoneForForeignName) {
  Zone cl = make_cl_child();
  auto result = cl.lookup(Name::from_string("example.org"), RRType::kA);
  EXPECT_EQ(result.kind, Kind::kNotInZone);
}

TEST(ZoneTest, CnameAnswersAndChasesInZone) {
  Zone zone{Name::from_string("example.org")};
  zone.add(make_cname(Name::from_string("www.example.org"), dns::Ttl{300},
                      Name::from_string("web.example.org")));
  zone.add(make_a(Name::from_string("web.example.org"), dns::Ttl{600}, Ipv4(5, 5, 5, 5)));
  auto result = zone.lookup(Name::from_string("www.example.org"), RRType::kA);
  EXPECT_EQ(result.kind, Kind::kAnswer);
  ASSERT_EQ(result.answers.size(), 2u);
  EXPECT_EQ(result.answers[0].type(), RRType::kCNAME);
  EXPECT_EQ(result.answers[1].type(), RRType::kA);
}

TEST(ZoneTest, CnameQueryReturnsCnameItself) {
  Zone zone{Name::from_string("example.org")};
  zone.add(make_cname(Name::from_string("www.example.org"), dns::Ttl{300},
                      Name::from_string("web.example.org")));
  auto result =
      zone.lookup(Name::from_string("www.example.org"), RRType::kCNAME);
  EXPECT_EQ(result.kind, Kind::kAnswer);
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0].type(), RRType::kCNAME);
}

TEST(ZoneTest, AnyQueryReturnsAllTypes) {
  Zone cl = make_cl_child();
  auto result = cl.lookup(Name::from_string("cl"), RRType::kANY);
  EXPECT_EQ(result.kind, Kind::kAnswer);
  EXPECT_EQ(result.answers.size(), 2u);  // SOA + NS
}

TEST(ZoneTest, RenumberReplacesAddress) {
  Zone cl = make_cl_child();
  EXPECT_TRUE(cl.renumber_a(Name::from_string("a.nic.cl"),
                            Ipv4::from_string("10.9.9.9")));
  auto rrset = cl.find(Name::from_string("a.nic.cl"), RRType::kA);
  ASSERT_TRUE(rrset.has_value());
  EXPECT_EQ(rrset->ttl(), Ttl{43200});  // TTL preserved across renumbering
  EXPECT_EQ(std::get<ARdata>(rrset->rdatas()[0]).address.to_string(),
            "10.9.9.9");
  EXPECT_FALSE(cl.renumber_a(Name::from_string("absent.cl"), Ipv4{}));
}

TEST(ZoneTest, SetTtlChangesExistingSet) {
  // The .uy natural experiment: child NS TTL raised from 300 to 86400.
  Zone uy{Name::from_string("uy")};
  uy.add(make_ns(Name::from_string("uy"), dns::Ttl{300}, Name::from_string("a.nic.uy")));
  EXPECT_TRUE(uy.set_ttl(Name::from_string("uy"), RRType::kNS, dns::Ttl{86400}));
  EXPECT_EQ(uy.find(Name::from_string("uy"), RRType::kNS)->ttl(), Ttl{86400});
  EXPECT_FALSE(uy.set_ttl(Name::from_string("uy"), RRType::kMX, dns::Ttl{60}));
}

TEST(ZoneTest, RemoveDropsRrsetAndNode) {
  Zone cl = make_cl_child();
  EXPECT_TRUE(cl.remove(Name::from_string("a.nic.cl"), RRType::kA));
  EXPECT_FALSE(cl.remove(Name::from_string("a.nic.cl"), RRType::kA));
  EXPECT_FALSE(cl.has_node(Name::from_string("a.nic.cl")));
}

TEST(ZoneTest, IsDelegatedDetectsZoneCut) {
  Zone root = make_root_with_cl();
  EXPECT_TRUE(root.is_delegated(Name::from_string("a.nic.cl")));
  EXPECT_TRUE(root.is_delegated(Name::from_string("cl")));
  EXPECT_FALSE(root.is_delegated(Name{}));
}

TEST(ZoneTest, ShallowestCutEndsAuthority) {
  Zone zone{Name::from_string("net")};
  zone.add(make_ns(Name::from_string("cachetest.net"), dns::Ttl{3600},
                   Name::from_string("ns1.cachetest.net")));
  zone.add(make_ns(Name::from_string("sub.cachetest.net"), dns::Ttl{600},
                   Name::from_string("ns1.sub.cachetest.net")));
  // Lookup below the shallower cut must return the *shallower* cut first:
  // queries leave this zone's authority at cachetest.net.
  auto result =
      zone.lookup(Name::from_string("x.sub.cachetest.net"), RRType::kA);
  EXPECT_EQ(result.kind, Kind::kDelegation);
  EXPECT_EQ(result.authorities[0].name, Name::from_string("cachetest.net"));
}

TEST(ZoneTest, RrsetCountAndEnumeration) {
  Zone cl = make_cl_child();
  EXPECT_EQ(cl.rrset_count(), 3u);
  EXPECT_EQ(cl.all_rrsets().size(), 3u);
  ASSERT_TRUE(cl.soa().has_value());
  EXPECT_EQ(cl.soa()->type(), RRType::kSOA);
}

}  // namespace
}  // namespace dnsttl::dns
