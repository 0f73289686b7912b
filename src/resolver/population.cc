#include "resolver/population.h"

#include <array>

namespace dnsttl::resolver {

std::vector<Profile> paper_profiles() {
  std::vector<Profile> profiles;

  // Mainstream child-centric resolvers (BIND/Unbound/Knot defaults):
  // the §3 majority that re-queries the child and honours its TTLs.
  profiles.push_back({"child-bind", child_centric_config(), 0.60});

  // Public-resolver style with a 21599 s cache cap — the Figure 2 plateau.
  profiles.push_back({"child-google", google_like_config(), 0.12});

  // Child-centric but trusting cached glue to its own TTL (the §4.2
  // minority that rides a still-valid A record past its NS expiry).
  {
    ResolverConfig config = child_centric_config();
    config.link_glue_to_ns = false;
    profiles.push_back({"child-unlinked", config, 0.08});
  }

  // Parent-centric resolvers: referral TTLs rule (§3's 10-48% slice).
  profiles.push_back({"parent", parent_centric_config(), 0.09});

  // Parent-centric with an RFC 7706 local root mirror — the VPs that
  // report the full 172800 s root-zone TTL (§3.2) and keep answering when
  // the child's servers are offline (§4.4).
  profiles.push_back({"opendns", opendns_like_config(), 0.01});

  // Sticky resolvers (§4.4): pin the first server that answers.
  profiles.push_back({"sticky", sticky_config(), 0.035});

  // Aggressively low cache caps (some ISP/enterprise resolvers clamp
  // cached TTLs to minutes for agility).
  {
    ResolverConfig config = child_centric_config();
    config.max_ttl = dns::Ttl{600};
    profiles.push_back({"child-lowcap", config, 0.05});
  }

  // Serve-stale deployments (RFC 8767, §3.1 discussion).
  {
    ResolverConfig config = child_centric_config();
    config.serve_stale = true;
    profiles.push_back({"child-stale", config, 0.05});
  }

  return profiles;
}

std::vector<double> atlas_region_weights() {
  // Order: AF, AS, EU, NA, OC, SA.  RIPE Atlas is strongly EU-biased.
  return {0.03, 0.10, 0.60, 0.18, 0.04, 0.05};
}

ResolverPopulation ResolverPopulation::build(
    net::Network& network, const RootHints& hints,
    std::shared_ptr<const dns::Zone> local_root_zone,
    const std::vector<Profile>& profiles, std::size_t count,
    const std::vector<double>& region_weights, sim::Rng& rng) {
  std::vector<double> weights;
  weights.reserve(profiles.size());
  for (const auto& profile : profiles) {
    weights.push_back(profile.weight);
  }

  ResolverPopulation population;
  population.members_.reserve(count);
  // Resolvers cluster into metro PoPs of ~3 (ISPs run several recursives
  // per metro); probes co-located with one resolver of a PoP are close to
  // its siblings too.
  std::array<int, 6> pop_counter{};
  for (std::size_t i = 0; i < count; ++i) {
    const Profile& profile = profiles[rng.weighted_index(weights)];
    auto region = net::kAllRegions[rng.weighted_index(region_weights)];
    int pop = 1000000 * (static_cast<int>(region) + 1) +
              pop_counter[static_cast<std::size_t>(region)]++ / 3;
    net::Location location{region, rng.uniform(0.3, 2.0), pop};

    auto resolver = std::make_shared<RecursiveResolver>(
        profile.tag + "-" + std::to_string(i), profile.config, network,
        hints);
    if (profile.config.local_root && local_root_zone) {
      resolver->set_local_root_zone(local_root_zone);
    }
    net::Address address = network.attach(*resolver, location);
    resolver->set_node_ref(net::NodeRef{address, location});
    population.members_.push_back(
        Member{std::move(resolver), address, location, profile.tag});
  }
  return population;
}

std::vector<const ResolverPopulation::Member*>
ResolverPopulation::with_profile(const std::string& tag) const {
  std::vector<const Member*> out;
  for (const auto& member : members_) {
    if (member.profile == tag) {
      out.push_back(&member);
    }
  }
  return out;
}

void ResolverPopulation::flush_all() {
  for (auto& member : members_) {
    member.resolver->flush();
  }
}

}  // namespace dnsttl::resolver
