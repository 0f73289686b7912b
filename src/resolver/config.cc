#include "resolver/config.h"

namespace dnsttl::resolver {

std::string_view to_string(Centricity centricity) {
  switch (centricity) {
    case Centricity::kChildCentric:
      return "child-centric";
    case Centricity::kParentCentric:
      return "parent-centric";
  }
  return "centricity?";
}

std::string ResolverConfig::describe() const {
  std::string out{to_string(centricity)};
  out += " max_ttl=" + std::to_string(max_ttl.value());
  if (min_ttl > dns::Ttl{}) {
    out += " min_ttl=" + std::to_string(min_ttl.value());
  }
  if (link_glue_to_ns) out += " linked-glue";
  if (sticky) out += " sticky";
  if (serve_stale) out += " serve-stale";
  if (local_root) out += " local-root";
  return out;
}

ResolverConfig child_centric_config() { return ResolverConfig{}; }

ResolverConfig parent_centric_config() {
  ResolverConfig config;
  config.centricity = Centricity::kParentCentric;
  config.fetch_authoritative_ns_addresses = false;
  return config;
}

ResolverConfig google_like_config() {
  ResolverConfig config;
  config.max_ttl = dns::Ttl{21599};
  return config;
}

ResolverConfig opendns_like_config() {
  ResolverConfig config;
  config.centricity = Centricity::kParentCentric;
  config.local_root = true;
  config.fetch_authoritative_ns_addresses = false;
  return config;
}

ResolverConfig sticky_config() {
  ResolverConfig config;
  config.sticky = true;
  return config;
}

}  // namespace dnsttl::resolver
