#ifndef DNSTTL_SIM_TIMER_WHEEL_H
#define DNSTTL_SIM_TIMER_WHEEL_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace dnsttl::sim {

/// Hierarchical timer wheel: batched scheduling for dense cohorts of
/// homogeneous actors (see docs/architecture.md §Workload engine).
///
/// sim::Simulation's queue pays one heap record and one std::function per
/// pending event.  That is the right shape for the protocol layer (sparse,
/// heterogeneous timers), but a million stubs that all hold exactly one
/// pending "next query" timer want the inverse layout: the *engine* owns a
/// SoA pool of per-actor state, and the scheduler only needs to answer
/// "which actor indices are due in this tick".  A wheel slot therefore
/// stores a cohort of (time, seq, payload) entries — payload is an index
/// into the caller's pool, not a callable — and firing a slot hands the
/// whole cohort back in one batch.
///
/// Layout: two levels of 1024 slots over a one-second tick, plus a far
/// heap.  Level 0 covers the next 1024 ticks exactly (one slot per tick),
/// level 1 the next ~2^20 ticks at 1024-tick granularity, and anything
/// beyond that (~12 days out) waits in a binary min-heap ordered by
/// (time, seq).  Entries cascade toward level 0 as the wheel turns and are
/// never scanned while they sit in a far level.
///
/// Ordering contract: the wheel fires entries in exactly the strict
/// (time, seq) total order that Simulation's queue uses.  Sequence numbers
/// are supplied by the caller — cohort engines draw them from
/// Simulation::allocate_seq() — so wheel entries and queued events
/// interleave into one global deterministic order when
/// Simulation::run_until(deadline, wheel, fire) drains them together; the
/// differential oracle test in tests/sim_test.cc pins the equivalence over
/// fuzzed traces.  Within a slot, the cohort is materialized (sorted) once
/// when the slot comes due; entries scheduled *into the active slot while
/// it fires* (zero-gap reschedules) are merged at their correct (time, seq)
/// position.
///
/// Monotonicity: schedule() rejects an entry whose tick precedes the last
/// fired entry's (the start tick before any fire), as Simulation::schedule_at
/// rejects `at < now()`, and `seq` values must be unique.  Peeking fires
/// nothing: an entry scheduled after head() but due before the peeked
/// cohort is merged into that materialized cohort at its (time, seq)
/// position, as zero-gap reschedules are.  So when run_until peeks the
/// wheel and then runs an earlier queued event, that event may schedule
/// back into the wheel at any time not before now().
class TimerWheel {
 public:
  struct Entry {
    Time at;
    std::uint64_t seq = 0;
    /// Caller-owned meaning; cohort engines store a pool index here.
    std::uint64_t payload = 0;
  };

  explicit TimerWheel(Time start = Time{});

  /// Enqueues (at, seq, payload).  Throws std::invalid_argument when `at`'s
  /// tick precedes the last fired entry's (see Monotonicity above).
  void schedule(Time at, std::uint64_t seq, std::uint64_t payload);

  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }
  [[nodiscard]] bool empty() const noexcept { return pending_ == 0; }
  [[nodiscard]] std::uint64_t fired() const noexcept { return fired_; }

  /// The earliest pending entry under the strict (time, seq) order.
  /// Requires !empty().  Amortized O(1): materializing the head cohort
  /// sorts one slot; subsequent peeks and pops walk the sorted batch.
  [[nodiscard]] const Entry& head();

  /// Pops and returns the earliest pending entry.  Requires !empty().
  Entry pop_head();

  /// Deep structural audit: slot-residency invariants on both levels,
  /// occupancy-bitmap agreement, far-heap order, active-cohort sort order,
  /// pending-count accounting and (time, seq) consistency.  Throws
  /// check::AuditError on violation.  Compiled in every build; cohort
  /// engines call it from DNSTTL_AUDIT mutation-boundary hooks.
  void validate() const;

 private:
  static constexpr Duration kTick = kSecond;
  static constexpr std::size_t kSlots = 1024;           // per level
  static constexpr std::size_t kSlotMask = kSlots - 1;  // tick -> slot
  static constexpr unsigned kLevelShift = 10;           // log2(kSlots)

  [[nodiscard]] static std::int64_t tick_of(Time t) noexcept {
    return t.since_epoch() / kTick;
  }
  static bool entry_before(const Entry& a, const Entry& b) noexcept {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  }
  /// Far-heap comparator: entry_before reversed, so the std heap keeps the
  /// earliest entry at far_.front().
  static bool entry_after(const Entry& a, const Entry& b) noexcept {
    return entry_before(b, a);
  }

  /// Tick of the last fired entry (the start tick before any fire): the
  /// earliest tick schedule() accepts.
  [[nodiscard]] std::int64_t fired_tick() const noexcept;
  void place(const Entry& entry);
  /// Moves far-heap entries that now fit the two wheel levels in-window.
  void pull_far();
  /// Positions cur_tick_ on the lowest tick with a level-0 cohort,
  /// cascading level-1 slots and the far heap as boundaries are crossed.
  /// Requires pending entries outside the active cohort.
  void advance_to_cohort();
  /// Sorts the due cohort into scratch_; requires !empty().
  void materialize();

  std::int64_t cur_tick_ = 0;  ///< lowest tick that may still hold entries

  std::array<std::vector<Entry>, kSlots> level0_;
  std::array<std::vector<Entry>, kSlots> level1_;
  /// Occupancy bitmaps (one bit per slot) so the advance scan skips empty
  /// runs a word at a time.
  std::array<std::uint64_t, kSlots / 64> level0_bits_{};
  std::array<std::uint64_t, kSlots / 64> level1_bits_{};
  /// Min-heap by (time, seq) for entries beyond the wheel span.
  std::vector<Entry> far_;

  /// Materialized head cohort, sorted ascending by (time, seq).
  std::vector<Entry> scratch_;
  std::size_t scratch_idx_ = 0;
  /// cur_tick_ before the active cohort was materialized: the last fired
  /// entry's tick (or the start tick) until the cohort's first pop.
  std::int64_t prev_tick_ = 0;
  bool active_ = false;

  std::size_t pending_ = 0;
  std::uint64_t fired_ = 0;
};

}  // namespace dnsttl::sim

#endif  // DNSTTL_SIM_TIMER_WHEEL_H
