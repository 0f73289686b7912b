// analyze-as: src/cache/std_map_hot.cc
// True positive: the cache and the simulator core are the hot paths, and
// they use the open-addressing table and std heaps by design.

namespace dnsttl::cache {

struct Shelf {
  std::map<dns::Name, Entry> entries;  // expect: std-map-hot
  std::multimap<int, int> by_ttl;  // expect: std-map-hot
  std::unordered_map<int, int> index;
};

}  // namespace dnsttl::cache
