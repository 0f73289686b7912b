#ifndef DNSTTL_SIM_SIMULATION_H
#define DNSTTL_SIM_SIMULATION_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "check/audit.h"
#include "sim/time.h"
#include "sim/timer_wheel.h"

namespace dnsttl::sim {

/// Discrete-event simulation core: a virtual clock plus an event queue.
///
/// All network transmission, cache expiry and measurement scheduling in the
/// library run on one Simulation instance; nothing reads wall-clock time.
/// Events at equal timestamps run in scheduling (FIFO) order, which makes
/// every experiment deterministic given a fixed Rng seed.
///
/// Dense cohorts (VP re-queries, passive demand) fire from a TimerWheel
/// through run_until(deadline, wheel, fire); the queue here carries the few
/// one-off protocol events (a renumber, secondary refresh timers).  It is a
/// binary heap of plain (at, seq, handler index) records; handlers sit in
/// a side vector whose freed slots are reused.
class Simulation {
 public:
  Time now() const noexcept { return now_; }

  /// Schedules @p handler at absolute virtual time @p at (>= now).
  void schedule_at(Time at, std::function<void()> handler);

  /// Schedules @p handler @p delay after the current time.
  void schedule_after(Duration delay, std::function<void()> handler) {
    schedule_at(now_ + delay, std::move(handler));
  }

  /// Runs until the queue is empty.
  void run();

  /// Runs events with time <= @p deadline, then sets now to the deadline.
  void run_until(Time deadline);

  /// Runs queued events and @p wheel's entries with time <= @p deadline in
  /// one strict (time, seq) order, then sets now to the deadline.  Wheel
  /// entries carry seqs drawn from allocate_seq / allocate_seq_block, so the
  /// two kinds interleave deterministically.  The next event is picked again
  /// after every one, because either kind may schedule into the queue or
  /// back into the wheel.  The clock moves to an entry's time before
  /// @p fire(entry) runs.  Wheel fires count toward the periodic audit but
  /// not toward events_processed().
  template <typename Fire>
  void run_until(Time deadline, TimerWheel& wheel, Fire&& fire) {
    for (;;) {
      const bool queue_ready =
          !queue_.empty() && queue_.front().at <= deadline;
      if (!wheel.empty()) {
        const TimerWheel::Entry& head = wheel.head();
        if (head.at <= deadline &&
            (!queue_ready ||
             later(queue_.front(), Event{head.at, head.seq, 0}))) {
          const TimerWheel::Entry entry = wheel.pop_head();
          if (entry.at < now_) {
            throw_clock_backwards();
          }
          now_ = entry.at;
          fire(entry);
          count_toward_audit();
          continue;
        }
      }
      if (!queue_ready) {
        break;
      }
      step();
    }
    if (now_ < deadline) {
      now_ = deadline;
    }
  }

  /// Allocates one sequence number from the global schedule-order counter.
  /// Timer-wheel engines stamp their entries with these so they interleave
  /// with queued events deterministically.
  std::uint64_t allocate_seq() noexcept { return next_seq_++; }

  /// Reserves @p n consecutive sequence numbers, returning the first.
  /// Engines that pre-plan an actor's whole firing series (one entry live
  /// at a time) reserve its block up front and address it by round index.
  std::uint64_t allocate_seq_block(std::uint64_t n) noexcept {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }

  /// Pending queued events (timer-wheel entries are counted by their
  /// owning engines, not here).
  std::size_t pending() const noexcept { return queue_.size(); }
  /// Queued events run so far; timer-wheel fires are not counted.
  std::uint64_t events_processed() const noexcept { return processed_; }

  /// Deep structural audit: heap order, no event before now or from a seq
  /// not yet drawn, and live records plus free slots partitioning the
  /// handler vector.  Throws check::AuditError on violation.  Compiled in
  /// every build (tests call it directly); automatic periodic invocation
  /// happens only when built with DNSTTL_AUDIT=ON.
  void validate() const;

  /// Registers a hook run with every periodic audit (audit builds only;
  /// a no-op invocation-wise otherwise).  Experiments register the caches
  /// of their resolver populations here so cross-structure state is audited
  /// while the simulation runs, not just at test boundaries.  Returns an id
  /// for remove_audit_hook — engines whose pools outlive a single run must
  /// deregister before the pool is destroyed.
  std::size_t add_audit_hook(std::function<void()> hook) {
    audit_hooks_.push_back(std::move(hook));
    return audit_hooks_.size() - 1;
  }

  /// Deregisters a hook returned by add_audit_hook (slot is retired, not
  /// reused; ids stay stable).
  void remove_audit_hook(std::size_t id) {
    if (id < audit_hooks_.size()) {
      audit_hooks_[id] = nullptr;
    }
  }

  /// Sets how many fired events (queued events and wheel entries) elapse
  /// between periodic audits.
  void set_audit_interval(std::uint64_t events) {
    audit_interval_ = events > 0 ? events : 1;
    audit_countdown_ = audit_interval_;
  }

 private:
  struct Event {
    Time at;
    std::uint64_t seq;  ///< global schedule order; FIFO tiebreak at equal at
    std::uint32_t handler;  ///< index into handlers_
  };

  /// Heap comparator: the strict (at, seq) total order, reversed so the
  /// std heap keeps the earliest event at front().  No two events compare
  /// equal, so every heap pops the same sequence.
  static bool later(const Event& a, const Event& b) noexcept {
    return a.at > b.at || (a.at == b.at && a.seq > b.seq);
  }

  [[noreturn]] static void throw_clock_backwards();

  /// Pops the earliest queued event and runs it; requires a non-empty queue.
  void step();
  /// Counts one fired queued event or wheel entry; in audit builds every
  /// audit_interval_-th one runs the periodic audit.
  void count_toward_audit() {
    if constexpr (check::kAuditEnabled) {
      if (--audit_countdown_ == 0) {
        audit_countdown_ = audit_interval_;
        run_audit();
      }
    }
  }
  /// Self-validate plus registered hooks.
  void run_audit() const;

  Time now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::vector<Event> queue_;
  std::vector<std::function<void()>> handlers_;
  /// Indices of handlers_ slots no queued event holds.
  std::vector<std::uint32_t> free_handlers_;

  static constexpr std::uint64_t kDefaultAuditInterval = 1024;
  std::vector<std::function<void()>> audit_hooks_;
  // lint:allow(raw-time-param) event count, not a time value.
  std::uint64_t audit_interval_ = kDefaultAuditInterval;
  std::uint64_t audit_countdown_ = kDefaultAuditInterval;
};

}  // namespace dnsttl::sim

#endif  // DNSTTL_SIM_SIMULATION_H
