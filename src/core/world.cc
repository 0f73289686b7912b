#include "core/world.h"

#include <stdexcept>

namespace dnsttl::core {

World::World(Options options)
    : rng_(options.seed),
      network_(rng_.fork(0xfeed),
               net::LatencyModel{options.latency},
               net::Network::Params{options.loss_rate}) {
  root_zone_ = std::make_shared<dns::Zone>(dns::Name{});
  root_zone_->add(dns::make_soa(
      dns::Name{}, dns::Ttl{86400}, dns::Name::from_string("a.root-servers.net"), 1));

  struct RootSpec {
    const char* name;
    net::Region region;
  };
  const RootSpec roots[] = {
      {"a.root-servers.net", net::Region::kNA},
      {"k.root-servers.net", net::Region::kEU},
      {"m.root-servers.net", net::Region::kAS},
  };
  for (const auto& spec : roots) {
    auto name = dns::Name::from_string(spec.name);
    auto& server = add_server(spec.name, net::Location{spec.region, 1.0});
    server.add_zone(root_zone_);
    net::Address address = address_of(spec.name);
    root_zone_->add(dns::make_ns(dns::Name{}, dns::Ttl{518400}, name));
    root_zone_->add(dns::make_a(name, dns::Ttl{518400}, address));
    hints_.servers.push_back({name, address});
  }
}

auth::AuthServer& World::add_server(const std::string& ident,
                                    net::Location location,
                                    std::optional<net::Address> fixed) {
  if (servers_.contains(ident)) {
    throw std::invalid_argument("server ident already used: " + ident);
  }
  auto server = std::make_unique<auth::AuthServer>(ident);
  net::Address address = network_.attach(*server, location, fixed);
  auto& ref = *server;
  servers_.emplace(ident, std::move(server));
  addresses_.emplace(ident, address);
  return ref;
}

auth::AuthServer& World::server(const std::string& ident) {
  auto it = servers_.find(ident);
  if (it == servers_.end()) {
    throw std::out_of_range("unknown server: " + ident);
  }
  return *it->second;
}

net::Address World::address_of(const std::string& ident) const {
  auto it = addresses_.find(ident);
  if (it == addresses_.end()) {
    throw std::out_of_range("unknown server: " + ident);
  }
  return it->second;
}

net::Address World::add_anycast_service(
    const std::string& prefix, std::shared_ptr<dns::Zone> zone,
    const std::vector<net::Location>& sites, bool logging) {
  if (sites.empty()) {
    throw std::invalid_argument("anycast service needs at least one site");
  }
  std::vector<std::pair<net::DnsNode*, net::Location>> attachments;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    std::string ident = prefix + "-" + std::to_string(i);
    if (servers_.contains(ident)) {
      throw std::invalid_argument("server ident already used: " + ident);
    }
    auto server = std::make_unique<auth::AuthServer>(ident);
    server->add_zone(zone);
    server->set_logging(logging);
    attachments.emplace_back(server.get(), sites[i]);
    servers_.emplace(ident, std::move(server));
  }
  net::Address address = network_.attach_anycast(attachments);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    addresses_.emplace(prefix + "-" + std::to_string(i), address);
  }
  return address;
}

std::shared_ptr<dns::Zone> World::create_zone(const std::string& origin,
                                              dns::Ttl soa_ttl) {
  auto name = dns::Name::from_string(origin);
  auto zone = std::make_shared<dns::Zone>(name);
  zone->add(dns::make_soa(name, soa_ttl, name.prepend("ns1"), 1));
  return zone;
}

void World::delegate(
    dns::Zone& parent, const dns::Name& child,
    const std::vector<std::pair<dns::Name, net::Address>>& servers,
    dns::Ttl ns_ttl, dns::Ttl glue_ttl) {
  for (const auto& [ns_name, address] : servers) {
    parent.add(dns::make_ns(child, ns_ttl, ns_name));
    if (ns_name.in_bailiwick_of(child)) {
      parent.add(dns::make_a(ns_name, glue_ttl, address));
    }
  }
}

std::shared_ptr<dns::Zone> World::add_tld(const std::string& tld,
                                          const std::string& ns_label,
                                          dns::Ttl parent_ttl,
                                          dns::Ttl child_ns_ttl,
                                          dns::Ttl child_a_ttl,
                                          net::Location location) {
  auto origin = dns::Name::from_string(tld);
  auto ns_name = dns::Name::from_string(ns_label + "." + tld);

  auto zone = create_zone(tld, child_ns_ttl);
  auto& server = add_server(ns_name.to_string(), location);
  server.add_zone(zone);
  net::Address address = address_of(ns_name.to_string());

  zone->add(dns::make_ns(origin, child_ns_ttl, ns_name));
  zone->add(dns::make_a(ns_name, child_a_ttl, address));

  delegate(*root_zone_, origin, {{ns_name, address}}, parent_ttl, parent_ttl);
  return zone;
}

}  // namespace dnsttl::core
