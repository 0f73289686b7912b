// analyze-as: src/dns/std_map_hot_ok.cc
// Pure true-negative: std-map-hot is scoped to src/cache and src/sim, so
// an ordered map elsewhere in src/ is fine.

namespace dnsttl::dns {

struct ZoneNodes {
  std::map<Name, std::map<RRType, RRset>> nodes;
};

}  // namespace dnsttl::dns
