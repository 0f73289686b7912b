// analyze-as: src/crawl/task_state_escape.h
// Task-state purity: both structs are resumable tasks (phase-tagged, so
// a batch scheduler parks them between its waves) and both stash a
// raw alias into an SoA pool.  The pool compacts whenever a sibling task
// retires, so the alias dangles across the suspension point — the member
// must be an index into the pool, re-derived each step.

namespace dnsttl::crawl {

struct HarvestTask {
  enum class Phase : std::uint8_t { kNsProbe, kHarvest, kDone };

  Phase phase = Phase::kNsProbe;
  std::size_t cursor = 0;
  const DomainPool* domains = nullptr;  // expect: task-state-escape
};

struct ProbeTask {
  int phase = 0;  // suspension marker by name, not by Phase type
  sim::TimerWheel& wheel;  // expect: task-state-escape
};

}  // namespace dnsttl::crawl
