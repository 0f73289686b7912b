// analyze-as: src/auth/std_map_hot_auth.cc
// True positive: AuthServer::handle_query answers every query of the
// renumbering experiments, so an ordered zone index there is the hot-path
// shape the rule rejects in src/auth.

namespace dnsttl::auth {

struct ZoneIndex {
  std::map<dns::Name, std::shared_ptr<dns::Zone>> by_origin;  // expect: std-map-hot
};

}  // namespace dnsttl::auth
