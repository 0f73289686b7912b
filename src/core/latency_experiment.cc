#include "core/latency_experiment.h"

#include <algorithm>
#include <cctype>
#include <set>

namespace dnsttl::core {

namespace {

/// Sites of the anycast variant: Route53's 45 (§6.2).
constexpr std::size_t kAnycastSites = 45;

/// Ensures the .co TLD exists (one server, standard registry TTLs).
void ensure_co(World& world) {
  if (!world.has_server("a.nic.co.")) {
    world.add_tld("co", "a.nic", dns::kTtl2Days, dns::kTtl1Day,
                  dns::kTtl1Day, net::Location{net::Region::kSA, 1.0});
  }
}

std::string sanitize(const std::string& name) {
  std::string out;
  for (char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0)
               ? static_cast<char>(std::tolower(static_cast<unsigned char>(c)))
               : '-';
  }
  return out;
}

}  // namespace

ControlledTtlResult run_controlled_ttl(World& world,
                                       atlas::Platform& platform,
                                       const ControlledTtlConfig& config) {
  ensure_co(world);
  auto co_zone_server = &world.server("a.nic.co.");
  auto co_zone = co_zone_server->zones().back();

  // One dedicated test domain per configuration keeps runs independent,
  // like the paper's distinct query names per experiment column.
  const std::string domain = "mapache-" + sanitize(config.name) + ".co";
  const auto origin = dns::Name::from_string(domain);
  const auto ns_name = origin.prepend("ns1");

  auto zone = world.create_zone(domain, dns::Ttl{3600});
  zone->add(dns::make_ns(origin, dns::Ttl{3600}, ns_name));

  const auto answer = dns::Ipv6::from_string("2001:db8:77::1");
  dns::Name qname;
  if (config.unique_qnames) {
    qname = origin;  // per-probe prefix added by the measurement
    for (const auto& probe : platform.probes()) {
      zone->add(dns::make_aaaa(
          origin.prepend("p" + std::to_string(probe.id)), config.answer_ttl,
          answer));
    }
  } else {
    qname = origin.prepend(config.shared_label);
    zone->add(dns::make_aaaa(qname, config.answer_ttl, answer));
  }

  // Stand up the service: EC2-Frankfurt unicast, or a Route53-style
  // anycast cloud spread over every region.
  net::Address service;
  std::vector<std::string> log_idents;
  const std::string prefix = "auth-" + sanitize(config.name);
  if (config.anycast) {
    std::vector<net::Location> sites;
    for (std::size_t i = 0; i < kAnycastSites; ++i) {
      sites.push_back(net::Location{
          net::kAllRegions[i % net::kAllRegions.size()], 1.0});
    }
    service = world.add_anycast_service(prefix, zone, sites, true);
    for (std::size_t i = 0; i < kAnycastSites; ++i) {
      log_idents.push_back(prefix + "-" + std::to_string(i));
    }
  } else {
    auto& server =
        world.add_server(prefix, net::Location{net::Region::kEU, 1.0});
    server.add_zone(zone);
    server.set_logging(true);
    service = world.address_of(prefix);
    log_idents.push_back(prefix);
  }
  zone->add(dns::make_a(ns_name, dns::Ttl{3600}, service));
  world.delegate(*co_zone, origin, {{ns_name, service}}, dns::kTtl1Day,
                 dns::kTtl1Day);

  atlas::MeasurementSpec spec;
  spec.name = config.name;
  spec.qname = qname;
  spec.per_probe_qname = config.unique_qnames;
  spec.qtype = dns::RRType::kAAAA;
  spec.duration = config.duration;
  spec.start = world.simulation().now();

  ControlledTtlResult result;
  result.run = atlas::MeasurementRun::execute(
      world.simulation(), world.network(), platform, spec, world.rng());

  std::set<std::uint32_t> sources;
  for (const auto& ident : log_idents) {
    const auto& log = world.server(ident).log();
    result.auth_queries += log.size();
    for (const auto& entry : log.entries()) {
      sources.insert(entry.client.value());
    }
  }
  result.auth_unique_ips = sources.size();
  auto rtt = result.run.rtt_cdf_ms();
  result.median_rtt_ms = rtt.empty() ? 0.0 : rtt.median();
  return result;
}

atlas::MeasurementRun run_uy_rtt(World& world, atlas::Platform& platform,
                                 sim::Time start, sim::Duration duration,
                                 std::size_t shard_count,
                                 std::size_t shard_index) {
  atlas::MeasurementSpec spec;
  spec.name = "uy-NS-rtt";
  spec.qname = dns::Name::from_string("uy");
  spec.qtype = dns::RRType::kNS;
  spec.duration = duration;
  spec.start = start;
  spec.shard_count = shard_count;
  spec.shard_index = shard_index;
  return atlas::MeasurementRun::execute(world.simulation(), world.network(),
                                        platform, spec, world.rng());
}

}  // namespace dnsttl::core
