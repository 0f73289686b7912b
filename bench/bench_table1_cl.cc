// Reproduces Table 1: the TTLs of a.nic.cl as seen in parent and child —
// 172800 s in the root's delegation, 3600 s (NS, authoritative) and 43200 s
// (A) at the .cl child servers.

#include "bench_common.h"
#include "dns/rr.h"
#include "stats/table.h"

using namespace dnsttl;

namespace {

void print_rows(stats::TablePrinter& table, const std::string& query,
                const std::string& server, const dns::Message& response) {
  bool first = true;
  auto add = [&](const dns::ResourceRecord& rr, const char* section,
                 bool authoritative) {
    table.add_row({first ? query : "", first ? server : "",
                   rr.name.to_string() + "/" +
                       std::string(dns::to_string(rr.type())),
                   std::to_string(rr.ttl.value()) + (authoritative ? "*" : ""),
                   section});
    first = false;
  };
  for (const auto& rr : response.answers) {
    add(rr, "Ans.", response.flags.aa);
  }
  for (const auto& rr : response.authorities) {
    if (rr.type() == dns::RRType::kNS) add(rr, "Auth.", false);
  }
  for (const auto& rr : response.additionals) {
    add(rr, "Add.", false);
  }
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  bench::JsonReport json("table1_cl", args);
  bench::print_header("Table 1", "a.nic.cl TTLs in parent and child");

  core::World world{core::World::Options{args.seed, 0.0, {}}};
  auto cl_zone = world.add_tld("cl", "a.nic", dns::kTtl2Days, dns::kTtl1Hour,
                               dns::kTtl12Hours,
                               net::Location{net::Region::kSA, 1.0});
  cl_zone->add(dns::make_aaaa(dns::Name::from_string("a.nic.cl"),
                              dns::kTtl12Hours,
                              dns::Ipv6::from_string("2001:1398:1::6002")));
  // The root's additional AAAA glue for a.nic.cl.
  world.root_zone()->add(dns::make_aaaa(
      dns::Name::from_string("a.nic.cl"), dns::kTtl2Days,
      dns::Ipv6::from_string("2001:1398:1::6002")));

  net::NodeRef client{dns::Ipv4(10, 200, 0, 1),
                      net::Location{net::Region::kEU, 1.0}};
  auto ask = [&](const std::string& server_ident, const std::string& qname,
                 dns::RRType qtype) {
    auto query = dns::Message::make_query(
        1, dns::Name::from_string(qname), qtype, false);
    auto outcome = world.network().query(client,
                                         world.address_of(server_ident),
                                         query, sim::Time{});
    return *outcome.response;
  };

  stats::TablePrinter table({"Q / Type", "Server", "Response", "TTL", "Sec."});
  print_rows(table, ".cl / NS", "k.root-servers.net",
             ask("k.root-servers.net", "cl", dns::RRType::kNS));
  print_rows(table, ".cl / NS", "a.nic.cl",
             ask("a.nic.cl.", "cl", dns::RRType::kNS));
  print_rows(table, "a.nic.cl/A", "a.nic.cl",
             ask("a.nic.cl.", "a.nic.cl", dns::RRType::kA));
  std::printf("%s\n", table.render().c_str());
  std::printf("(* = authoritative answer)\n\n");

  // The headline comparisons.
  auto root_response = ask("k.root-servers.net", "cl", dns::RRType::kNS);
  auto child_ns = ask("a.nic.cl.", "cl", dns::RRType::kNS);
  auto child_a = ask("a.nic.cl.", "a.nic.cl", dns::RRType::kA);
  std::printf("%s", stats::compare_line(
                        "root-side NS TTL", "172800",
                        std::to_string(root_response.authorities[0].ttl.value()))
                        .c_str());
  std::printf("%s", stats::compare_line(
                        "child NS TTL (AA)", "3600",
                        std::to_string(child_ns.answers[0].ttl.value()))
                        .c_str());
  std::printf("%s", stats::compare_line(
                        "child A TTL (AA)", "43200",
                        std::to_string(child_a.answers[0].ttl.value()))
                        .c_str());
  return json.finish();
}
