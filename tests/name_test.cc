#include "dns/name.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace dnsttl::dns {
namespace {

TEST(NameTest, RootParsesFromDot) {
  Name root = Name::from_string(".");
  EXPECT_TRUE(root.is_root());
  EXPECT_EQ(root.label_count(), 0u);
  EXPECT_EQ(root.to_string(), ".");
}

TEST(NameTest, ParsesWithAndWithoutTrailingDot) {
  EXPECT_EQ(Name::from_string("a.nic.cl"), Name::from_string("a.nic.cl."));
  EXPECT_EQ(Name::from_string("a.nic.cl").label_count(), 3u);
}

TEST(NameTest, ToStringAppendsTrailingDot) {
  EXPECT_EQ(Name::from_string("www.example.org").to_string(),
            "www.example.org.");
}

TEST(NameTest, CanonicalizesToLowerCase) {
  EXPECT_EQ(Name::from_string("WWW.Example.ORG"),
            Name::from_string("www.example.org"));
}

TEST(NameTest, RejectsEmptyString) {
  EXPECT_THROW(Name::from_string(""), std::invalid_argument);
}

TEST(NameTest, RejectsEmptyLabel) {
  EXPECT_THROW(Name::from_string("a..b"), std::invalid_argument);
}

TEST(NameTest, RejectsOversizedLabel) {
  std::string big(64, 'x');
  EXPECT_THROW(Name::from_string(big + ".com"), std::invalid_argument);
}

TEST(NameTest, AcceptsMaxLengthLabel) {
  std::string label(63, 'x');
  EXPECT_NO_THROW(Name::from_string(label + ".com"));
}

TEST(NameTest, RejectsOversizedName) {
  // Four 63-byte labels == 4*64 + 1 = 257 wire bytes: too long.
  std::string label(63, 'a');
  std::string name = label + "." + label + "." + label + "." + label;
  EXPECT_THROW(Name::from_string(name), std::invalid_argument);
}

TEST(NameTest, ParentWalksUpTheTree) {
  Name name = Name::from_string("a.nic.cl");
  EXPECT_EQ(name.parent(), Name::from_string("nic.cl"));
  EXPECT_EQ(name.parent().parent(), Name::from_string("cl"));
  EXPECT_TRUE(name.parent().parent().parent().is_root());
  EXPECT_TRUE(Name{}.parent().is_root());
}

TEST(NameTest, PrependBuildsChildName) {
  Name zone = Name::from_string("cachetest.net");
  EXPECT_EQ(zone.prepend("sub"), Name::from_string("sub.cachetest.net"));
}

TEST(NameTest, SubdomainIncludesSelf) {
  Name zone = Name::from_string("example.org");
  EXPECT_TRUE(zone.is_subdomain_of(zone));
  EXPECT_FALSE(zone.is_strict_subdomain_of(zone));
}

TEST(NameTest, SubdomainRelation) {
  Name zone = Name::from_string("example.org");
  Name host = Name::from_string("ns1.example.org");
  EXPECT_TRUE(host.is_subdomain_of(zone));
  EXPECT_TRUE(host.is_strict_subdomain_of(zone));
  EXPECT_FALSE(zone.is_subdomain_of(host));
  EXPECT_TRUE(host.is_subdomain_of(Name{}));  // everything under the root
}

TEST(NameTest, LabelBoundaryRespectedInSubdomainCheck) {
  // "badexample.org" is NOT a subdomain of "example.org".
  EXPECT_FALSE(Name::from_string("badexample.org")
                   .is_subdomain_of(Name::from_string("example.org")));
}

TEST(NameTest, BailiwickMatchesPaperExamples) {
  // From the paper's §2: ns.example.org is in bailiwick of example.org;
  // ns.example.com is not.
  Name zone = Name::from_string("example.org");
  EXPECT_TRUE(
      Name::from_string("ns.example.org").in_bailiwick_of(zone));
  EXPECT_FALSE(
      Name::from_string("ns.example.com").in_bailiwick_of(zone));
}

TEST(NameTest, CommonSuffixLabels) {
  Name a = Name::from_string("a.nic.cl");
  Name b = Name::from_string("b.nic.cl");
  EXPECT_EQ(a.common_suffix_labels(b), 2u);
  EXPECT_EQ(a.common_suffix_labels(a), 3u);
  EXPECT_EQ(a.common_suffix_labels(Name{}), 0u);
}

TEST(NameTest, WireLength) {
  EXPECT_EQ(Name{}.wire_length(), 1u);
  // "a.nic.cl" -> 1+1 + 1+3 + 1+2 + 1 = 10
  EXPECT_EQ(Name::from_string("a.nic.cl").wire_length(), 10u);
}

TEST(NameTest, CanonicalOrderingComparesFromRightmostLabel) {
  // RFC 4034 §6.1 ordering: example < a.example < yljkjljk.a.example.
  Name example = Name::from_string("example");
  Name a_example = Name::from_string("a.example");
  Name deep = Name::from_string("yljkjljk.a.example");
  EXPECT_LT(example, a_example);
  EXPECT_LT(a_example, deep);
  EXPECT_LT(example, deep);
}

TEST(NameTest, SubdomainsSortContiguouslyAfterAncestor) {
  Name zone = Name::from_string("example.org");
  Name sub = Name::from_string("a.example.org");
  Name sibling = Name::from_string("examplf.org");
  EXPECT_LT(zone, sub);
  EXPECT_LT(sub, sibling);
}

TEST(NameTest, HashConsistentWithEquality) {
  std::hash<Name> hasher;
  EXPECT_EQ(hasher(Name::from_string("WWW.org")),
            hasher(Name::from_string("www.org")));
}

// ------------------------------------------- inline / heap storage boundary

/// "<first>.<15 x 'b'>.org": label octets 1 + first + 16 + 4.
std::string name_text(std::size_t first) {
  return std::string(first, 'a') + "." + std::string(15, 'b') + ".org";
}

/// Names whose labels take 37 octets (the most a Name holds in place), 38
/// (the fewest it keeps on the heap) and 254 (the 255-octet wire maximum).
std::vector<Name> boundary_names() {
  return {Name::from_string(name_text(16)), Name::from_string(name_text(17)),
          Name::from_string(std::string(63, 'x') + "." +
                            std::string(63, 'y') + "." +
                            std::string(63, 'z') + "." +
                            std::string(61, 'w'))};
}

TEST(NameStorageTest, BoundaryNamesHaveTheirSizes) {
  const auto names = boundary_names();
  EXPECT_EQ(names[0].wire_length(), Name::kInlineCapacity + 1);
  EXPECT_EQ(names[1].wire_length(), Name::kInlineCapacity + 2);
  EXPECT_EQ(names[2].wire_length(), 255u);
  EXPECT_THROW(Name::from_string("v." + names[2].to_string()),
               std::invalid_argument);
  for (const auto& name : names) {
    EXPECT_NO_THROW(name.validate()) << name;
  }
}

TEST(NameStorageTest, CopyMoveAndSelfAssignmentKeepTheName) {
  for (const auto& original : boundary_names()) {
    const std::string text = original.to_string();
    Name copy(original);
    EXPECT_EQ(copy, original);
    EXPECT_EQ(copy.hash(), original.hash());
    EXPECT_EQ(copy.to_string(), text);

    Name assigned = Name::from_string("x.y");
    assigned = original;
    EXPECT_EQ(assigned, original);
    EXPECT_EQ(assigned.to_string(), text);

    Name& alias = assigned;
    assigned = alias;
    EXPECT_EQ(assigned.to_string(), text);
    assigned = std::move(alias);
    EXPECT_EQ(assigned.to_string(), text);
    EXPECT_NO_THROW(assigned.validate());

    Name moved(std::move(copy));
    EXPECT_EQ(moved, original);
    EXPECT_EQ(moved.to_string(), text);
    Name move_assigned = Name::from_string("x.y");
    move_assigned = std::move(moved);
    EXPECT_EQ(move_assigned, original);
    EXPECT_EQ(move_assigned.label_count(), original.label_count());
  }
}

TEST(NameStorageTest, MovedFromNameIsTheRoot) {
  for (const auto& original : boundary_names()) {
    Name source(original);
    Name target(std::move(source));
    // The moved-from name is a valid name, the root, and stays usable.
    EXPECT_TRUE(source.is_root());
    EXPECT_EQ(source, Name{});
    EXPECT_EQ(source.hash(), Name{}.hash());
    EXPECT_EQ(source.to_string(), ".");
    EXPECT_NO_THROW(source.validate());
    source = target;
    EXPECT_EQ(source, original);

    Name assigned = Name::from_string("x.y");
    assigned = std::move(target);
    EXPECT_TRUE(target.is_root());
    EXPECT_NO_THROW(target.validate());
  }
}

TEST(NameStorageTest, ComparisonsAgreeAcrossTheBoundary) {
  const Name in_place = Name::from_string(name_text(16));  // 37 octets
  const Name on_heap = Name::from_string(name_text(17));   // 38 octets
  // One label longer, the same name built four ways.
  const std::vector<Name> builds = {
      on_heap, in_place.suffix(2).prepend(std::string(17, 'a')),
      Name(on_heap.view()), Name(on_heap.labels())};
  for (const auto& build : builds) {
    EXPECT_EQ(build, on_heap);
    EXPECT_EQ(build.hash(), on_heap.hash());
    EXPECT_EQ(build <=> on_heap, std::strong_ordering::equal);
    EXPECT_EQ(std::hash<Name>{}(build), std::hash<Name>{}(on_heap));
  }
  EXPECT_NE(in_place, on_heap);
  // "aaa...a" (16) sorts before "aaa...a" (17) under the shared parent.
  EXPECT_EQ(in_place <=> on_heap, std::strong_ordering::less);
  EXPECT_EQ(on_heap <=> in_place, std::strong_ordering::greater);

  // Suffix views of the heap name equal the in-place names they spell.
  const Name parent = Name::from_string(std::string(15, 'b') + ".org");
  EXPECT_TRUE(parent == on_heap.suffix_view(2));
  EXPECT_TRUE(parent == in_place.suffix_view(2));
  EXPECT_EQ(on_heap.suffix_view(2).hash(), parent.hash());
  EXPECT_EQ(Name(on_heap.suffix_view(2)), Name(in_place.suffix_view(2)));
  EXPECT_EQ(on_heap.parent(), in_place.parent());

  EXPECT_TRUE(on_heap.is_subdomain_of(parent));
  EXPECT_TRUE(in_place.is_subdomain_of(parent));
  EXPECT_FALSE(on_heap.is_subdomain_of(in_place));
  EXPECT_FALSE(in_place.is_subdomain_of(on_heap));
  const Name deeper = on_heap.prepend("www");
  EXPECT_TRUE(deeper.is_strict_subdomain_of(on_heap));
  EXPECT_EQ(deeper.common_suffix_labels(in_place), 2u);

  const Name longest = boundary_names()[2];
  EXPECT_TRUE(longest.is_subdomain_of(Name(longest.suffix_view(1))));
  EXPECT_EQ(Name(longest.suffix_view(3)).wire_length(), 255u - 64u);
  EXPECT_LT(in_place, longest);
}

}  // namespace
}  // namespace dnsttl::dns
