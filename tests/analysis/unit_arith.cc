// analyze-as: src/core/unit_arith.cc
// True positive: `ttl.value()` is whole seconds and `d.count()` is
// microseconds; once both are raw integers the compiler happily adds them.

namespace dnsttl::core {

std::int64_t deadline(dns::Ttl ttl, sim::Duration d) {
  return ttl.value() + d.count();  // expect: unit-arith
}

std::int64_t age(sim::SimTime now, dns::Ttl ttl) {
  return now.ticks() - ttl.value();  // expect: unit-arith
}

// True negatives: same-unit escapes, and an explicit conversion first.
std::int64_t span(sim::Duration d, sim::Duration e) {
  return d.count() + e.count();
}

std::int64_t total(dns::Ttl ttl, sim::Duration d) {
  return sim::seconds(ttl.value()).count() + d.count();
}

}  // namespace dnsttl::core
