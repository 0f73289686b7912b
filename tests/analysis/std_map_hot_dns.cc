// analyze-as: src/dns/std_map_hot_dns.cc
// True positive: the zone indexes its owner names in dns::NameTable, so
// the ordered maps it once kept its nodes in are the hot-path shape the
// rule rejects in src/dns.

namespace dnsttl::dns {

struct ZoneNodes {
  using ByType = std::map<RRType, RRset>;  // expect: std-map-hot
  std::map<Name, ByType> nodes;  // expect: std-map-hot
};

}  // namespace dnsttl::dns
