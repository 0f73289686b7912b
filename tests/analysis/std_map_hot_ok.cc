// analyze-as: src/auth/std_map_hot_ok.cc
// Pure true-negative: std-map-hot is scoped to src/cache, src/dns and
// src/sim, so an ordered map elsewhere in src/ (the ENTRADA analysis keys
// its per-resolver query times by name) is fine.

namespace dnsttl::auth {

struct QueryTimes {
  std::map<std::pair<std::uint32_t, dns::Name>, std::vector<sim::Time>> by_key;
};

}  // namespace dnsttl::auth
