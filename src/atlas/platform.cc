#include "atlas/platform.h"

#include <stdexcept>
#include <unordered_map>

#include "check/audit.h"

namespace dnsttl::atlas {

namespace {

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
    std::size_t backends_per_site,
    std::vector<std::shared_ptr<resolver::RecursiveResolver>>& out_backends,
    std::vector<std::shared_ptr<resolver::Forwarder>>& out_frontends) {
  std::vector<std::pair<net::DnsNode*, net::Location>> sites;
  std::vector<std::shared_ptr<resolver::Forwarder>> frontends;
  for (net::Region region : net::kAllRegions) {
    net::Location site_location{region, 0.5};
    std::vector<net::Address> backend_addrs;
    for (std::size_t b = 0; b < backends_per_site; ++b) {
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

  platform.population_ = resolver::ResolverPopulation::build(
      network, hints, root_mirror, spec.profiles, spec.resolver_count,
      spec.region_weights, rng);

  platform.google_anycast_ = build_public_service(
      network, hints, root_mirror, resolver::google_like_config(),
      "google-public", spec.public_backends_per_site, platform.public_sites_,
      platform.public_frontends_);
  platform.opendns_anycast_ = build_public_service(
      network, hints, root_mirror, resolver::opendns_like_config(),
      "opendns-public", spec.public_backends_per_site, platform.public_sites_,
      platform.public_frontends_);

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
        net::kAllRegions[rng.weighted_index(spec.region_weights)];
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

    std::size_t slots = 1 + (rng.chance(spec.second_resolver_fraction) ? 1 : 0);
    for (std::size_t s = 0; s < slots; ++s) {
      double roll = rng.uniform();
      if (roll < spec.public_resolver_fraction) {
        probe.resolvers.push_back(rng.chance(spec.public_google_share)
                                      ? platform.google_anycast_
                                      : platform.opendns_anycast_);
      } else if (roll < spec.public_resolver_fraction +
                            spec.forwarder_fraction) {
        std::vector<net::Address> backends;
        for (std::size_t b = 0; b < spec.forwarder_backends; ++b) {
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
  platform.vp_pool_.rebuild(platform.probes_);
  return platform;
}

void VpPool::rebuild(const std::vector<Probe>& probes) {
  probe_index_.clear();
  resolver_.clear();
  for (std::size_t p = 0; p < probes.size(); ++p) {
    for (const net::Address resolver : probes[p].resolvers) {
      probe_index_.push_back(static_cast<std::uint32_t>(p));
      resolver_.push_back(resolver);
    }
  }
}

void VpPool::validate(std::size_t probe_count) const {
  constexpr const char* kWhat = "atlas::VpPool";
  DNSTTL_AUDIT_CHECK(kWhat, probe_index_.size() == resolver_.size(),
                     "SoA arrays out of step: " +
                         std::to_string(probe_index_.size()) +
                         " probe indices vs " +
                         std::to_string(resolver_.size()) + " resolvers");
  std::uint32_t last = 0;
  for (std::size_t vp = 0; vp < probe_index_.size(); ++vp) {
    DNSTTL_AUDIT_CHECK(kWhat, probe_index_[vp] < probe_count,
                       "orphaned VP row " + std::to_string(vp) +
                           ": probe index out of range");
    DNSTTL_AUDIT_CHECK(kWhat, probe_index_[vp] >= last,
                       "VP rows not probe-major at row " + std::to_string(vp));
    last = probe_index_[vp];
  }
  check::count_audit();
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
