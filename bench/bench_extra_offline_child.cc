// Reproduces the paper's zurrundedu-offline confirmation experiment (§4.4
// and dataset list [43]): VPs query NS of a domain whose child
// authoritative servers are offline.  OpenDNS-style resolvers (parent-
// centric, RFC 7706 mirrors, or with glue still cached) return a valid
// answer from the parent's copy; most others time out or SERVFAIL — the
// definitive proof that part of the resolver population never consults the
// child.

#include <map>

#include "bench_common.h"
#include "atlas/measurement.h"
#include "stats/table.h"

using namespace dnsttl;

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  bench::JsonReport json("extra_offline_child", args);
  bench::print_header("§4.4 confirmation (zurrundedu-offline)",
                      "NS queries with the child authoritatives offline");

  core::World world{core::World::Options{args.seed, 0.002, {}}};
  // The test domain: delegated from .com with standard 2-day NS+glue, but
  // its (self-hosted) authoritative server is dark from the start.
  auto com_zone = world.add_tld("com", "a.gtld", dns::kTtl2Days,
                                dns::kTtl1Day, dns::kTtl1Day,
                                net::Location{net::Region::kNA, 1.0});
  const auto domain = dns::Name::from_string("zurrundedu.com");
  const auto ns_name = domain.prepend("ns1");
  auto zone = world.create_zone("zurrundedu.com", dns::kTtl2Days);
  auto& server = world.add_server("zu-auth",
                                  net::Location{net::Region::kEU, 1.0});
  server.add_zone(zone);
  auto address = world.address_of("zu-auth");
  zone->add(dns::make_ns(domain, dns::kTtl2Days, ns_name));
  zone->add(dns::make_a(ns_name, dns::kTtl2Hours, address));
  world.delegate(*com_zone, domain, {{ns_name, address}}, dns::kTtl2Days,
                 dns::kTtl2Days);
  server.set_online(false);  // the child is dark for the whole experiment

  auto platform = atlas::Platform::build(world.network(), world.hints(),
                                         world.root_zone(),
                                         args.platform_spec(), world.rng());

  atlas::MeasurementSpec spec;
  spec.name = "zurrundedu-offline";
  spec.qname = domain;
  spec.qtype = dns::RRType::kNS;
  spec.duration = sim::kHour;
  auto run = atlas::MeasurementRun::execute(world.simulation(),
                                            world.network(), platform, spec,
                                            world.rng());

  // Classify per profile: who still answers?
  std::map<std::string, std::pair<std::size_t, std::size_t>> by_profile;
  for (const auto& sample : run.samples()) {
    auto& bucket = by_profile[platform.profile_of(sample.resolver)];
    ++bucket.first;
    if (!sample.timeout && sample.has_answer) {
      ++bucket.second;
    }
  }

  stats::TablePrinter table({"resolver profile", "queries", "answered",
                             "answered %"});
  std::size_t parentish_answered = 0;
  std::size_t parentish_total = 0;
  std::size_t childish_answered = 0;
  std::size_t childish_total = 0;
  for (const auto& [profile, counts] : by_profile) {
    table.add_row({profile, std::to_string(counts.first),
                   std::to_string(counts.second),
                   stats::fmt("%.0f%%",
                              counts.first == 0
                                  ? 0.0
                                  : 100.0 * static_cast<double>(counts.second) /
                                        static_cast<double>(counts.first))});
    bool parentish = profile == "parent" || profile == "opendns" ||
                     profile == "public-opendns";
    (parentish ? parentish_answered : childish_answered) += counts.second;
    (parentish ? parentish_total : childish_total) += counts.first;
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("%s",
              stats::compare_line(
                  "parent-centric/OpenDNS VPs answer with the child dark",
                  "valid answers (paper §4.4)",
                  stats::fmt("%.0f%% answered",
                             parentish_total == 0
                                 ? 0.0
                                 : 100.0 * static_cast<double>(
                                               parentish_answered) /
                                       static_cast<double>(parentish_total)))
                  .c_str());
  std::printf("%s",
              stats::compare_line(
                  "everyone else times out or SERVFAILs",
                  "timeouts/SERVFAIL",
                  stats::fmt("%.0f%% answered",
                             childish_total == 0
                                 ? 0.0
                                 : 100.0 * static_cast<double>(
                                               childish_answered) /
                                       static_cast<double>(childish_total)))
                  .c_str());
  return json.finish();
}
