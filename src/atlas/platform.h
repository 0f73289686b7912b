#ifndef DNSTTL_ATLAS_PLATFORM_H
#define DNSTTL_ATLAS_PLATFORM_H

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "dns/zone.h"
#include "net/network.h"
#include "resolver/forwarder.h"
#include "resolver/population.h"
#include "resolver/root_hints.h"
#include "sim/rng.h"

namespace dnsttl::atlas {

/// How the probe fleet and its resolver infrastructure are built.
/// Defaults approximate RIPE Atlas as the paper used it: ~9k probes, ~15k
/// VPs (probe × resolver), ~6k client-facing resolvers, a slice of VPs on
/// public anycast resolvers, and a slice behind forwarders.
struct PlatformSpec {
  std::size_t probe_count = 9000;
  std::size_t resolver_count = 6000;

  /// Probability a VP slot points at a public anycast resolver service.
  double public_resolver_fraction = 0.10;

  /// Probability a VP slot is a caching-free forwarder in front of
  /// recursive backends (infrastructure fragmentation, §4.4).
  double forwarder_fraction = 0.10;

  /// Resolver behavior mixture; defaults to the paper calibration.
  std::vector<resolver::Profile> profiles = resolver::paper_profiles();
};

/// One measurement probe: a stub client somewhere in the world with one or
/// two recursive resolvers configured.  Each (probe, resolver) pair is a
/// vantage point, the unit the paper reports.
struct Probe {
  int id = 0;
  net::NodeRef ref;
  std::vector<net::Address> resolvers;
};

/// The built platform: probes, the resolver population, forwarders and two
/// public anycast resolver services (a Google-like capped child-centric one
/// and an OpenDNS-like parent-centric/local-root one).
class Platform {
 public:
  /// Throws std::invalid_argument when spec.resolver_count is 0: every
  /// probe needs a local resolver to pick.
  static Platform build(net::Network& network,
                        const resolver::RootHints& hints,
                        std::shared_ptr<const dns::Zone> root_mirror,
                        const PlatformSpec& spec, sim::Rng& rng);

  std::vector<Probe>& probes() noexcept { return probes_; }
  const std::vector<Probe>& probes() const noexcept { return probes_; }

  resolver::ResolverPopulation& resolver_population() noexcept {
    return population_;
  }

  /// Total vantage points (sum of per-probe resolver lists).
  std::size_t vp_count() const;

  net::Address google_anycast() const noexcept { return google_anycast_; }
  net::Address opendns_anycast() const noexcept { return opendns_anycast_; }

  /// True if the VP resolver address is one of the public anycast services.
  bool is_public(net::Address address) const noexcept {
    return address == google_anycast_ || address == opendns_anycast_;
  }

  /// The per-site resolver instances behind the public services.
  const std::vector<std::shared_ptr<resolver::RecursiveResolver>>&
  public_site_resolvers() const noexcept {
    return public_sites_;
  }

  /// Flushes every cache on the platform (fresh experiment).
  void flush_all();

  /// Behavior profile tag of the resolver at @p address ("child-bind",
  /// "parent", ..., "public-google", "public-opendns", "forwarder"), or
  /// "?" if unknown.
  std::string profile_of(net::Address address) const;

 private:
  std::vector<Probe> probes_;
  resolver::ResolverPopulation population_;
  std::vector<std::shared_ptr<resolver::Forwarder>> forwarders_;
  std::vector<std::shared_ptr<resolver::RecursiveResolver>> public_sites_;
  std::vector<std::shared_ptr<resolver::Forwarder>> public_frontends_;
  net::Address google_anycast_;
  net::Address opendns_anycast_;
};

}  // namespace dnsttl::atlas

#endif  // DNSTTL_ATLAS_PLATFORM_H
