/// Regenerates the committed seed corpus under fuzz/corpus/.
///
/// Usage: gen_corpus <corpus-root>
///
/// Seeds are built through the project's own wire encoder and cache
/// snapshot writer so they stay valid as the codecs evolve; rerun this tool
/// and re-commit the output whenever the wire or snapshot format changes.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "dns/message.h"
#include "dns/rr.h"
#include "dns/wire.h"
#include "sim/time.h"

namespace {

using dnsttl::dns::Message;
using dnsttl::dns::Name;
using dnsttl::dns::RRType;

void write_file(const std::filesystem::path& path,
                const std::vector<std::uint8_t>& data) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

std::vector<Message> message_seeds() {
  using namespace dnsttl::dns;
  std::vector<Message> seeds;

  seeds.push_back(Message::make_query(0x1234, Name::from_string("example.com."),
                                      RRType::kA));

  Message edns = Message::make_query(0x2345, Name::from_string("www.example.org."),
                                     RRType::kAAAA);
  edns.add_edns(4096);
  seeds.push_back(edns);

  // A full answer: CNAME chain plus the target address records, with
  // shared suffixes so the encoder emits compression pointers.
  Message answer = Message::make_response(
      Message::make_query(0x3456, Name::from_string("www.example.com."),
                          RRType::kA));
  answer.flags.aa = true;
  answer.answers.push_back(make_cname(Name::from_string("www.example.com."),
                                      dnsttl::dns::Ttl{300}, Name::from_string("host.example.com.")));
  answer.answers.push_back(make_a(Name::from_string("host.example.com."), dnsttl::dns::Ttl{60},
                                  Ipv4(192, 0, 2, 1)));
  answer.answers.push_back(make_a(Name::from_string("host.example.com."), dnsttl::dns::Ttl{60},
                                  Ipv4(192, 0, 2, 2)));
  answer.authorities.push_back(make_ns(Name::from_string("example.com."), dnsttl::dns::Ttl{86400},
                                       Name::from_string("ns1.example.com.")));
  answer.additionals.push_back(make_a(Name::from_string("ns1.example.com."),
                                      dnsttl::dns::Ttl{86400}, Ipv4(192, 0, 1, 53)));
  seeds.push_back(answer);

  // A referral: empty answer, NS + glue — the shape resolvers chase.
  Message referral = Message::make_response(
      Message::make_query(0x4567, Name::from_string("a.b.c.example.net."),
                          RRType::kA));
  referral.authorities.push_back(make_ns(Name::from_string("example.net."),
                                         dnsttl::dns::Ttl{172800},
                                         Name::from_string("ns.example.net.")));
  referral.additionals.push_back(make_a(Name::from_string("ns.example.net."),
                                        dnsttl::dns::Ttl{172800}, Ipv4(198, 51, 100, 1)));
  seeds.push_back(referral);

  // Negative answer with SOA (RFC 2308 negative-TTL source).
  Message negative = Message::make_response(
      Message::make_query(0x5678, Name::from_string("missing.example.com."),
                          RRType::kTXT));
  negative.flags.rcode = Rcode::kNXDomain;
  negative.authorities.push_back(make_soa(Name::from_string("example.com."),
                                          dnsttl::dns::Ttl{3600},
                                          Name::from_string("ns1.example.com."),
                                          2024010101,
                                          dnsttl::dns::WireTtl{900}));
  seeds.push_back(negative);

  // Mixed RDATA types, including MX (compressible exchange) and TXT.
  Message mixed = Message::make_response(
      Message::make_query(0x6789, Name::from_string("example.org."),
                          RRType::kMX));
  mixed.answers.push_back(make_mx(Name::from_string("example.org."), dnsttl::dns::Ttl{7200}, 10,
                                  Name::from_string("mail.example.org.")));
  mixed.answers.push_back(make_txt(Name::from_string("example.org."), dnsttl::dns::Ttl{7200},
                                   "v=spf1 -all"));
  seeds.push_back(mixed);

  return seeds;
}

std::vector<std::vector<std::uint8_t>> cache_snapshot_seeds() {
  using namespace dnsttl;
  using cache::Cache;
  using cache::Credibility;
  using dnsttl::dns::Rcode;
  using dnsttl::dns::Ttl;
  std::vector<std::vector<std::uint8_t>> seeds;

  const auto a_set = [](const std::string& owner, Ttl ttl,
                        std::uint8_t last) {
    dns::RRset set(Name::from_string(owner), dns::RClass::kIN, ttl);
    set.add(dns::ARdata{dns::Ipv4(192, 0, 2, last)});
    return set;
  };
  const auto ns_set = [](const std::string& owner, Ttl ttl,
                         const std::string& target) {
    dns::RRset set(Name::from_string(owner), dns::RClass::kIN, ttl);
    set.add(dns::NsRdata{Name::from_string(target)});
    return set;
  };

  // Seed 0: the empty image — header + checksum only, the minimal accept.
  seeds.push_back(Cache{}.snapshot());

  // Seed 1: a bounded LFU cache exercising every record shape the format
  // has: NS-linked glue, positives at distinct credibilities, negatives of
  // both RFC 2308 types, and a non-trivial recency chain.
  {
    Cache::Config config;
    config.max_entries = 64;
    config.policy = cache::EvictionPolicy::kLfu;
    config.serve_stale = true;
    config.stale_window = 2 * sim::kDay;
    config.min_ttl = Ttl{5};
    Cache cache(config);
    cache.insert(ns_set("seed.example", Ttl{86400}, "ns1.seed.example"),
                 Credibility::kGlue, sim::Time{});
    cache.insert(a_set("ns1.seed.example", Ttl{3600}, 1), Credibility::kGlue,
                 sim::Time{}, Name::from_string("seed.example"));
    cache.insert(a_set("x.org", Ttl{300}, 2), Credibility::kAuthAnswer,
                 sim::at(1 * sim::kSecond));
    cache.insert(a_set("y.org", Ttl{30}, 3), Credibility::kNonAuthAnswer,
                 sim::at(2 * sim::kSecond));
    cache.insert_negative(Name::from_string("nx.org"), RRType::kAAAA,
                          Rcode::kNXDomain, Ttl{900},
                          sim::at(3 * sim::kSecond));
    cache.insert_negative(Name::from_string("nodata.org"), RRType::kA,
                          Rcode::kNoError, Ttl{60}, sim::at(4 * sim::kSecond));
    cache.lookup(Name::from_string("x.org"), RRType::kA,
                 sim::at(5 * sim::kSecond));
    cache.lookup_negative(Name::from_string("nx.org"), RRType::kAAAA,
                          sim::at(6 * sim::kSecond));
    seeds.push_back(cache.snapshot());
  }

  // Seed 2: a tight LRU cache that has already evicted, so the image
  // carries a mid-churn tick and a full table.
  {
    Cache::Config config;
    config.max_entries = 4;
    config.policy = cache::EvictionPolicy::kLru;
    Cache cache(config);
    for (int i = 0; i < 8; ++i) {
      cache.insert(a_set("lru" + std::to_string(i) + ".example", Ttl{120},
                         static_cast<std::uint8_t>(10 + i)),
                   Credibility::kAuthAnswer, sim::at(i * sim::kSecond));
    }
    cache.lookup(Name::from_string("lru4.example"), RRType::kA,
                 sim::at(9 * sim::kSecond));
    seeds.push_back(cache.snapshot());
  }

  return seeds;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path root(argv[1]);
  const std::filesystem::path messages = root / "message";
  const std::filesystem::path snapshots = root / "cache_snapshot";
  std::filesystem::create_directories(messages);
  std::filesystem::create_directories(snapshots);

  int index = 0;
  for (const Message& message : message_seeds()) {
    char stem[32];
    std::snprintf(stem, sizeof stem, "seed%02d.bin", index++);
    write_file(messages / stem, dnsttl::dns::encode(message));
  }

  index = 0;
  for (const std::vector<std::uint8_t>& image : cache_snapshot_seeds()) {
    char stem[32];
    std::snprintf(stem, sizeof stem, "seed%02d.bin", index++);
    write_file(snapshots / stem, image);
  }

  std::fprintf(stderr, "corpus written under %s\n", root.c_str());
  return 0;
}
