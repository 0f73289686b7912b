#include "atlas/platform.h"

#include <stdexcept>
#include <unordered_map>

namespace dnsttl::atlas {

namespace {

/// Probability a probe lists a second resolver (drives VPs/probe ≈ 1.7).
constexpr double kSecondResolverFraction = 0.7;

/// Recursive backends behind each caching-free forwarder.
constexpr std::size_t kForwarderBackends = 2;

/// Share of public-resolver VP slots on the Google-like service (the rest
/// use the OpenDNS-like one).
constexpr double kPublicGoogleShare = 0.8;

/// Independent recursive backends behind each public anycast site (cache
/// fragmentation; drives the fresh-cap plateau of Figure 2).
constexpr std::size_t kPublicBackendsPerSite = 6;

/// Builds one public anycast resolver service, mirroring how Google and
/// OpenDNS deploy: a site per region, each site a load-balanced pool of
/// independent recursive backends.  The per-site pool is what fragments
/// caches — successive queries from one client hit different backends and
/// often see freshly-capped TTLs (the paper's 21599 s plateau in Figure 2
/// and the mixed answers of §4.4).
net::Address build_public_service(
    net::Network& network, const resolver::RootHints& hints,
    std::shared_ptr<const dns::Zone> root_mirror,
    const resolver::ResolverConfig& config, const std::string& ident,
    std::vector<std::shared_ptr<resolver::RecursiveResolver>>& out_backends,
    std::vector<std::shared_ptr<resolver::Forwarder>>& out_frontends) {
  std::vector<std::pair<net::DnsNode*, net::Location>> sites;
  std::vector<std::shared_ptr<resolver::Forwarder>> frontends;
  for (net::Region region : net::kAllRegions) {
    net::Location site_location{region, 0.5};
    std::vector<net::Address> backend_addrs;
    for (std::size_t b = 0; b < kPublicBackendsPerSite; ++b) {
      auto backend = std::make_shared<resolver::RecursiveResolver>(
          ident + "-" + std::string(net::to_string(region)) + "-" +
              std::to_string(b),
          config, network, hints);
      if (config.local_root && root_mirror) {
        backend->set_local_root_zone(root_mirror);
      }
      net::Address addr = network.attach(*backend, site_location);
      backend->set_node_ref(net::NodeRef{addr, site_location});
      backend_addrs.push_back(addr);
      out_backends.push_back(std::move(backend));
    }
    auto frontend = std::make_shared<resolver::Forwarder>(
        ident + "-" + std::string(net::to_string(region)) + "-lb", network,
        std::move(backend_addrs));
    sites.emplace_back(frontend.get(), site_location);
    frontends.push_back(std::move(frontend));
  }
  net::Address anycast = network.attach_anycast(sites);
  for (std::size_t i = 0; i < frontends.size(); ++i) {
    frontends[i]->set_node_ref(net::NodeRef{anycast, sites[i].second});
    out_frontends.push_back(frontends[i]);
  }
  return anycast;
}

}  // namespace

Platform Platform::build(net::Network& network,
                         const resolver::RootHints& hints,
                         std::shared_ptr<const dns::Zone> root_mirror,
                         const PlatformSpec& spec, sim::Rng& rng) {
  if (spec.resolver_count == 0) {
    throw std::invalid_argument("platform needs at least one resolver");
  }
  Platform platform;
  // Probes and resolvers share the Atlas EU-skewed region mix.
  const std::vector<double> region_weights = resolver::atlas_region_weights();

  platform.population_ = resolver::ResolverPopulation::build(
      network, hints, root_mirror, spec.profiles, spec.resolver_count,
      region_weights, rng);

  platform.google_anycast_ = build_public_service(
      network, hints, root_mirror, resolver::google_like_config(),
      "google-public", platform.public_sites_, platform.public_frontends_);
  platform.opendns_anycast_ = build_public_service(
      network, hints, root_mirror, resolver::opendns_like_config(),
      "opendns-public", platform.public_sites_, platform.public_frontends_);

  // Bucket resolver indices per region so probes pick nearby resolvers.
  std::unordered_map<int, std::vector<std::size_t>> by_region;
  auto& members = platform.population_.members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    by_region[static_cast<int>(members[i].location.region)].push_back(i);
  }

  std::uint32_t probe_net = 0x0b000001;  // 11.0.0.x: probe address space
  platform.probes_.reserve(spec.probe_count);

  for (std::size_t p = 0; p < spec.probe_count; ++p) {
    net::Region region =
        net::kAllRegions[rng.weighted_index(region_weights)];
    auto& bucket = by_region[static_cast<int>(region)];

    Probe probe;
    probe.id = static_cast<int>(p);

    auto pick_local = [&]() -> const resolver::ResolverPopulation::Member& {
      std::size_t idx = bucket.empty()
                            ? rng.uniform_int(0, members.size() - 1)
                            : bucket[rng.uniform_int(0, bucket.size() - 1)];
      return members[idx];
    };

    // The probe sits in the same metro (PoP) as its first local resolver:
    // this is what makes cache hits ~8 ms instead of intra-region tens of
    // ms (Figure 10a / 11).
    const auto& home = pick_local();
    probe.ref = net::NodeRef{
        net::Address{probe_net++},
        net::Location{region, rng.uniform(0.2, 1.5), home.location.pop_id}};

    std::size_t slots = 1 + (rng.chance(kSecondResolverFraction) ? 1 : 0);
    for (std::size_t s = 0; s < slots; ++s) {
      double roll = rng.uniform();
      if (roll < spec.public_resolver_fraction) {
        probe.resolvers.push_back(rng.chance(kPublicGoogleShare)
                                      ? platform.google_anycast_
                                      : platform.opendns_anycast_);
      } else if (roll < spec.public_resolver_fraction +
                            spec.forwarder_fraction) {
        std::vector<net::Address> backends;
        for (std::size_t b = 0; b < kForwarderBackends; ++b) {
          backends.push_back(pick_local().address);
        }
        auto forwarder = std::make_shared<resolver::Forwarder>(
            "fw-" + std::to_string(p) + "-" + std::to_string(s), network,
            std::move(backends));
        net::Location location{region, rng.uniform(0.2, 1.0),
                               probe.ref.location.pop_id};
        net::Address address = network.attach(*forwarder, location);
        forwarder->set_node_ref(net::NodeRef{address, location});
        platform.forwarders_.push_back(forwarder);
        probe.resolvers.push_back(address);
      } else if (s == 0) {
        probe.resolvers.push_back(home.address);
      } else {
        // Second resolver: usually another recursive in the same metro PoP
        // (same ISP), otherwise a random same-region one.
        const resolver::ResolverPopulation::Member* second = nullptr;
        for (std::size_t i = 0; i < bucket.size(); ++i) {
          const auto& candidate = members[bucket[i]];
          if (candidate.location.pop_id == home.location.pop_id &&
              candidate.address != home.address) {
            second = &candidate;
            break;
          }
        }
        if (second == nullptr || rng.chance(0.3)) {
          second = &pick_local();
        }
        probe.resolvers.push_back(second->address);
      }
    }
    platform.probes_.push_back(std::move(probe));
  }
  return platform;
}

std::size_t Platform::vp_count() const {
  std::size_t count = 0;
  for (const Probe& probe : probes_) {
    count += probe.resolvers.size();
  }
  return count;
}

std::string Platform::profile_of(net::Address address) const {
  if (address == google_anycast_) return "public-google";
  if (address == opendns_anycast_) return "public-opendns";
  for (const auto& member : population_.members()) {
    if (member.address == address) return member.profile;
  }
  for (const auto& forwarder : forwarders_) {
    if (forwarder->node_ref().address == address) return "forwarder";
  }
  return "?";
}

void Platform::flush_all() {
  population_.flush_all();
  for (auto& site : public_sites_) {
    site->flush();
  }
}

}  // namespace dnsttl::atlas
