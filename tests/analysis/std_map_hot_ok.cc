// analyze-as: src/crawl/std_map_hot_ok.cc
// Pure true-negative: std-map-hot is scoped to src/auth, src/cache, src/dns
// and src/sim, so an ordered map elsewhere in src/ (the §3.4 passive
// analysis groups query times by resolver and name once per run) is fine.

namespace dnsttl::crawl {

struct QueryTimes {
  std::map<std::pair<std::uint32_t, std::string>, std::vector<sim::Time>>
      group_times;
};

}  // namespace dnsttl::crawl
