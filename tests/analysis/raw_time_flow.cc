// analyze-as: src/core/raw_time_flow.cc
// Interprocedural raw-time-flow: arm_refresh() launders its raw integer
// into a Duration, so raw-time-param does not flag its signature — but a
// bare literal (or raw-int local) at the ORIGIN call site still carries
// unlabeled units.  The taint also rides through the relay() forwarder;
// relay's own call is a parameter pass-through, so only the origins fire.

namespace dnsttl::core {

void arm_refresh(sim::TimerWheel& wheel, std::uint64_t delay_us) {
  wheel.schedule_after(sim::Duration::micros(delay_us));
}

void relay(sim::TimerWheel& wheel, std::uint64_t lease_us) {
  arm_refresh(wheel, lease_us);
}

void configure(sim::TimerWheel& wheel) {
  std::uint64_t lease = 30'000'000;
  relay(wheel, lease);            // expect: raw-time-flow
  arm_refresh(wheel, 1'500'000);  // expect: raw-time-flow
  arm_refresh(wheel, lease);      // expect: raw-time-flow
}

}  // namespace dnsttl::core
