#ifndef DNSTTL_ATLAS_PLATFORM_H
#define DNSTTL_ATLAS_PLATFORM_H

#include <cstddef>
#include <cstdint>
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

  /// Probability a probe lists a second resolver (drives VPs/probe ≈ 1.7).
  double second_resolver_fraction = 0.7;

  /// Probability a VP slot points at a public anycast resolver service.
  double public_resolver_fraction = 0.10;

  /// Probability a VP slot is a caching-free forwarder in front of
  /// recursive backends (infrastructure fragmentation, §4.4).
  double forwarder_fraction = 0.10;

  std::size_t forwarder_backends = 2;

  /// Share of public-resolver VP slots on the Google-like service (the
  /// rest use the OpenDNS-like one).
  double public_google_share = 0.8;

  /// Independent recursive backends behind each public anycast site (cache
  /// fragmentation; drives the fresh-cap plateau of Figure 2).
  std::size_t public_backends_per_site = 6;

  /// Region mix of probes; defaults to the Atlas EU-skew.
  std::vector<double> region_weights = resolver::atlas_region_weights();

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

/// Structure-of-arrays view of the vantage points (probe × resolver
/// pairs), flattened in probe-major, resolver-minor order — the iteration
/// order every measurement uses.  Cohort engines (see docs/architecture.md
/// §Workload engine) address a VP by its position in these parallel arrays
/// instead of walking the nested Probe objects, so batch iteration over a
/// wheel cohort touches contiguous memory.
class VpPool {
 public:
  /// Flattens @p probes; called once at the end of Platform::build.
  void rebuild(const std::vector<Probe>& probes);

  [[nodiscard]] std::size_t size() const noexcept {
    return probe_index_.size();
  }
  /// Index into Platform::probes() of the probe owning VP @p vp.
  [[nodiscard]] std::size_t probe_index(std::size_t vp) const {
    return probe_index_[vp];
  }
  [[nodiscard]] net::Address resolver(std::size_t vp) const {
    return resolver_[vp];
  }

  /// Deep audit: parallel arrays in step, probe indices in range and
  /// probe-major monotone (no orphaned VP rows).  Throws check::AuditError.
  void validate(std::size_t probe_count) const;

 private:
  std::vector<std::uint32_t> probe_index_;
  std::vector<net::Address> resolver_;
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
  std::size_t vp_count() const { return vp_pool_.size(); }

  /// SoA view of the vantage points, probe-major.
  const VpPool& vp_pool() const noexcept { return vp_pool_; }

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
  VpPool vp_pool_;
  resolver::ResolverPopulation population_;
  std::vector<std::shared_ptr<resolver::Forwarder>> forwarders_;
  std::vector<std::shared_ptr<resolver::RecursiveResolver>> public_sites_;
  std::vector<std::shared_ptr<resolver::Forwarder>> public_frontends_;
  net::Address google_anycast_;
  net::Address opendns_anycast_;
};

}  // namespace dnsttl::atlas

#endif  // DNSTTL_ATLAS_PLATFORM_H
