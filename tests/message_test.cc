#include "dns/message.h"

#include <gtest/gtest.h>

#include "dns/rr.h"

namespace dnsttl::dns {
namespace {

Message referral_for_uy() {
  auto query = Message::make_query(9, Name::from_string("www.gub.uy"),
                                   RRType::kA);
  auto response = Message::make_response(query);
  response.authorities.push_back(
      make_ns(Name::from_string("uy"), dns::Ttl{172800}, Name::from_string("a.nic.uy")));
  response.additionals.push_back(
      make_a(Name::from_string("a.nic.uy"), dns::Ttl{172800}, Ipv4(10, 0, 0, 1)));
  return response;
}

TEST(MessageTest, MakeQuerySetsQuestionAndFlags) {
  auto query = Message::make_query(7, Name::from_string("uy"), RRType::kNS);
  EXPECT_EQ(query.id, 7);
  EXPECT_FALSE(query.flags.qr);
  EXPECT_TRUE(query.flags.rd);
  ASSERT_EQ(query.questions.size(), 1u);
  EXPECT_EQ(query.question().qtype, RRType::kNS);

  auto iterative =
      Message::make_query(8, Name::from_string("uy"), RRType::kNS, false);
  EXPECT_FALSE(iterative.flags.rd);
}

TEST(MessageTest, MakeResponseEchoesIdAndQuestion) {
  auto query = Message::make_query(0xabcd, Name::from_string("uy"),
                                   RRType::kNS);
  auto response = Message::make_response(query);
  EXPECT_EQ(response.id, 0xabcd);
  EXPECT_TRUE(response.flags.qr);
  EXPECT_EQ(response.questions, query.questions);
}

TEST(MessageTest, InPlaceRewritesMatchTheFactories) {
  Message used = referral_for_uy();
  used.id = 99;
  used.flags.aa = true;
  used.flags.tc = true;
  used.flags.rcode = Rcode::kServFail;
  used.add_edns();
  const auto query =
      Message::make_query(7, Name::from_string("uy"), RRType::kNS, false);

  Message rewritten = used;
  rewritten.set_query(7, Name::from_string("uy"), RRType::kNS, false);
  EXPECT_EQ(rewritten, query);
  rewritten = used;
  rewritten.set_response(query);
  EXPECT_EQ(rewritten, Message::make_response(query));
  rewritten = used;
  rewritten.clear();
  EXPECT_EQ(rewritten, Message{});
  EXPECT_GE(rewritten.authorities.capacity(), 1u);
}

TEST(MessageTest, SectionAccessors) {
  auto message = referral_for_uy();
  EXPECT_EQ(message.section(Section::kAuthority).size(), 1u);
  EXPECT_EQ(message.section(Section::kAdditional).size(), 1u);
  EXPECT_EQ(message.section(Section::kAnswer).size(), 0u);
  EXPECT_THROW(message.section(Section::kQuestion), std::invalid_argument);
}

TEST(MessageTest, AnswerRrsetGroupsMatchingRecords) {
  auto query = Message::make_query(1, Name::from_string("uy"), RRType::kNS);
  auto response = Message::make_response(query);
  response.answers.push_back(
      make_ns(Name::from_string("uy"), dns::Ttl{300}, Name::from_string("a.nic.uy")));
  response.answers.push_back(
      make_ns(Name::from_string("uy"), dns::Ttl{300}, Name::from_string("b.nic.uy")));
  response.answers.push_back(
      make_a(Name::from_string("a.nic.uy"), dns::Ttl{120}, Ipv4(10, 0, 0, 1)));

  auto rrset = response.answer_rrset(Name::from_string("uy"), RRType::kNS);
  ASSERT_TRUE(rrset.has_value());
  EXPECT_EQ(rrset->size(), 2u);
  EXPECT_FALSE(response.answer_rrset(Name::from_string("uy"), RRType::kMX)
                   .has_value());
}

TEST(MessageTest, FirstAnswerFindsByType) {
  auto query = Message::make_query(1, Name::from_string("x.uy"), RRType::kA);
  auto response = Message::make_response(query);
  response.answers.push_back(make_cname(Name::from_string("x.uy"), dns::Ttl{60},
                                        Name::from_string("y.uy")));
  response.answers.push_back(
      make_a(Name::from_string("y.uy"), dns::Ttl{60}, Ipv4(10, 0, 0, 2)));
  EXPECT_EQ(response.first_answer(Name::from_string("y.uy"), RRType::kA),
            &response.answers[1]);
  EXPECT_EQ(response.first_answer(Name::from_string("x.uy"), RRType::kA),
            nullptr);
  EXPECT_EQ(response.first_answer(Name::from_string("y.uy"), RRType::kMX),
            nullptr);
}

TEST(MessageTest, ReferralDetection) {
  EXPECT_TRUE(referral_for_uy().is_referral());

  auto answer = referral_for_uy();
  answer.answers.push_back(
      make_a(Name::from_string("www.gub.uy"), dns::Ttl{60}, Ipv4(1, 1, 1, 1)));
  EXPECT_FALSE(answer.is_referral());

  auto aa = referral_for_uy();
  aa.flags.aa = true;
  EXPECT_FALSE(aa.is_referral());

  auto nx = referral_for_uy();
  nx.flags.rcode = Rcode::kNXDomain;
  EXPECT_FALSE(nx.is_referral());
}

TEST(MessageTest, ToStringShowsAllSections) {
  auto message = referral_for_uy();
  message.answers.push_back(
      make_a(Name::from_string("www.gub.uy"), dns::Ttl{60}, Ipv4(1, 1, 1, 1)));
  std::string text = message.to_string();
  EXPECT_NE(text.find("QUESTION"), std::string::npos);
  EXPECT_NE(text.find("ANSWER"), std::string::npos);
  EXPECT_NE(text.find("AUTHORITY"), std::string::npos);
  EXPECT_NE(text.find("ADDITIONAL"), std::string::npos);
  EXPECT_NE(text.find("a.nic.uy."), std::string::npos);
}

TEST(MessageTest, QuestionToString) {
  Question q{Name::from_string("uy"), RRType::kNS, RClass::kIN};
  EXPECT_EQ(q.to_string(), "uy. IN NS");
}

TEST(TypesTest, MnemonicsRoundTrip) {
  for (RRType type : {RRType::kA, RRType::kNS, RRType::kCNAME, RRType::kSOA,
                      RRType::kMX, RRType::kTXT, RRType::kAAAA, RRType::kOPT,
                      RRType::kRRSIG, RRType::kDNSKEY, RRType::kANY}) {
    EXPECT_EQ(rrtype_from_string(std::string(to_string(type))), type);
  }
  EXPECT_THROW(rrtype_from_string("NOPE"), std::invalid_argument);
}

TEST(TypesTest, RcodeAndSectionNames) {
  EXPECT_EQ(to_string(Rcode::kNoError), "NOERROR");
  EXPECT_EQ(to_string(Rcode::kNXDomain), "NXDOMAIN");
  EXPECT_EQ(to_string(Rcode::kServFail), "SERVFAIL");
  EXPECT_EQ(to_string(Section::kAdditional), "additional");
  EXPECT_EQ(to_string(RClass::kIN), "IN");
}

}  // namespace
}  // namespace dnsttl::dns
