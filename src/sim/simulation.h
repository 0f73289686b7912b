#ifndef DNSTTL_SIM_SIMULATION_H
#define DNSTTL_SIM_SIMULATION_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/audit.h"
#include "sim/time.h"
#include "sim/timer_wheel.h"

namespace dnsttl::sim {

/// Move-only `void()` callable with a small-buffer optimization: captures up
/// to kInlineSize bytes live inside the object, so scheduling the common
/// event lambda performs no heap allocation (std::function allocated for
/// anything beyond two pointers of capture on most ABIs).
class EventFn {
 public:
  static constexpr std::size_t kInlineSize = 48;

  EventFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors
                    // std::function's converting constructor.
    emplace(std::forward<F>(f));
  }

  /// Destroys the current callable (if any) and constructs @p f in place.
  /// Inlined at call sites, this compiles down to a plain member copy for
  /// small captures — no virtual dispatch on the scheduling path.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void emplace(F&& f) {
    reset();
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = &inline_vtable<Fn>;
    } else {
      // lint:allow(raw-new) EventFn IS the owner: oversized callables spill
      // to the heap and the vtable below is the matching deleter.
      heap_ = new Fn(std::forward<F>(f));
      vt_ = &heap_vtable<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void operator()() { vt_->invoke(storage()); }

  /// Invokes the callable and destroys it in one virtual dispatch; the
  /// object is empty afterwards.  The event loop's fire path uses this to
  /// save an indirect call over operator() followed by the destructor.
  void invoke_consume() {
    const VTable* vt = vt_;
    vt_ = nullptr;
    vt->invoke_destroy(storage_for(vt));
  }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(storage());
      vt_ = nullptr;
    }
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    /// invoke() followed by destroy(), fused.
    void (*invoke_destroy)(void*);
    /// Move-constructs into @p dst from @p src and destroys @p src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
    bool stores_inline;
  };

  template <typename Fn>
  static constexpr VTable inline_vtable = {
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* p) {
        Fn* fn = static_cast<Fn*>(p);
        (*fn)();
        fn->~Fn();
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
      true,
  };

  template <typename Fn>
  static constexpr VTable heap_vtable = {
      [](void* p) { (**static_cast<Fn**>(p))(); },
      [](void* p) {
        Fn* fn = *static_cast<Fn**>(p);
        (*fn)();
        delete fn;  // lint:allow(raw-new) deleter half of EventFn's heap path
      },
      [](void* dst, void* src) noexcept {
        *static_cast<Fn**>(dst) = *static_cast<Fn**>(src);
      },
      // lint:allow(raw-new) deleter half of EventFn's heap path
      [](void* p) noexcept { delete *static_cast<Fn**>(p); },
      false,
  };

  void* storage_for(const VTable* vt) noexcept {
    return !vt->stores_inline ? static_cast<void*>(&heap_)
                              : static_cast<void*>(buf_);
  }

  void* storage() noexcept {
    return vt_ != nullptr ? storage_for(vt_) : static_cast<void*>(buf_);
  }

  void move_from(EventFn& other) noexcept {
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      vt_->relocate(storage(), other.storage());
      other.vt_ = nullptr;
    }
  }

  const VTable* vt_ = nullptr;
  union {
    void* heap_;
    alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  };
};

/// Discrete-event simulation core: a virtual clock plus an event queue.
///
/// All network transmission, cache expiry and measurement scheduling in the
/// library run on one Simulation instance; nothing reads wall-clock time.
/// Events at equal timestamps run in scheduling (FIFO) order, which makes
/// every experiment deterministic given a fixed Rng seed.
///
/// Handlers live in a slab with an intrusive free list: scheduling reuses a
/// slot instead of hitting the allocator, and cancel() stays O(1) through
/// per-slot generation counters (an event id embeds slot index + generation,
/// so a recycled slot cannot be cancelled through a stale id).
class Simulation {
 public:
  using Handler = EventFn;

  Time now() const noexcept { return now_; }

  /// Schedules @p handler at absolute virtual time @p at (>= now).
  /// Returns an event id usable with cancel().
  std::uint64_t schedule_at(Time at, Handler handler);

  /// Schedules @p handler @p delay after the current time.
  std::uint64_t schedule_after(Duration delay, Handler handler);

  /// Callable overloads: construct the handler directly inside its slab
  /// slot.  Fully inlined, the schedule path performs no virtual dispatch
  /// and (for captures within EventFn::kInlineSize) no allocation.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  std::uint64_t schedule_at(Time at, F&& f) {
    if (at < now_) {
      throw_scheduled_in_past();
    }
    std::uint32_t index = acquire_slot();
    Slot& slot = slots_[index];
    slot.fn.emplace(std::forward<F>(f));
    heap_push(Event{at, next_seq_++, index, slot.generation});
    return (static_cast<std::uint64_t>(slot.generation) << 32) | index;
  }

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  std::uint64_t schedule_after(Duration delay, F&& f) {
    return schedule_at(now_ + delay, std::forward<F>(f));
  }

  /// Cancels a pending event; returns false if it already ran or is unknown.
  bool cancel(std::uint64_t event_id);

  /// Runs until the queue is empty.
  void run();

  /// Runs events with time <= @p deadline, then sets now to the deadline.
  void run_until(Time deadline);

  /// Runs slab-heap events and @p wheel's entries with time <= @p deadline
  /// in one strict (time, seq) order, then sets now to the deadline.  Wheel
  /// entries carry seqs drawn from allocate_seq / allocate_seq_block, so the
  /// two kinds interleave deterministically.  The next event is picked again
  /// after every one, because either kind may schedule into the heap or
  /// back into the wheel.  The clock moves to an entry's time before
  /// @p fire(entry) runs.  Wheel fires count toward the periodic audit but
  /// not toward events_processed().
  template <typename Fire>
  void run_until(Time deadline, TimerWheel& wheel, Fire&& fire) {
    for (;;) {
      prune_stale_front();
      const bool heap_ready = !heap_.empty() && heap_.front().at <= deadline;
      if (!wheel.empty()) {
        const TimerWheel::Entry& head = wheel.head();
        if (head.at <= deadline &&
            (!heap_ready ||
             before(Event{head.at, head.seq, 0, 0}, heap_.front()))) {
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
      if (!heap_ready) {
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
  /// with slab-heap events deterministically.
  std::uint64_t allocate_seq() noexcept { return next_seq_++; }

  /// Reserves @p n consecutive sequence numbers, returning the first.
  /// Engines that pre-plan an actor's whole firing series (one entry live
  /// at a time) reserve its block up front and address it by round index.
  std::uint64_t allocate_seq_block(std::uint64_t n) noexcept {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }

  /// Pending slab-heap events (timer-wheel entries are counted by their
  /// owning engines, not here).
  std::size_t pending() const noexcept { return heap_.size() - cancelled_; }
  /// Slab-heap events run so far; timer-wheel fires are not counted.
  std::uint64_t events_processed() const noexcept { return processed_; }

  /// Deep structural audit: 4-ary heap order, slab free-list consistency,
  /// generation-counter agreement between heap events and slots, and
  /// cancelled-event accounting.  Throws check::AuditError on violation.
  /// Compiled in every build (tests call it directly); automatic periodic
  /// invocation happens only when built with DNSTTL_AUDIT=ON.
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

  /// Sets how many fired events (heap events and wheel entries) elapse
  /// between periodic audits.
  void set_audit_interval(std::uint64_t events) {
    audit_interval_ = events > 0 ? events : 1;
    audit_countdown_ = audit_interval_;
  }

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  struct Slot {
    EventFn fn;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNilSlot;
    bool occupied = false;
  };
  struct Event {
    Time at;
    std::uint64_t seq;  ///< global schedule order; FIFO tiebreak at equal at
    std::uint32_t slot;
    std::uint32_t generation;
  };

  /// Strict total order on (at, seq): no two events compare equal, so any
  /// min-heap pops the same sequence — heap arity is a pure perf knob.
  static bool before(const Event& a, const Event& b) noexcept {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  }

  void heap_push(const Event& ev) {
    std::size_t i = heap_.size();
    heap_.emplace_back();  // hole; filled below after sift-up
    while (i > 0) {
      std::size_t parent = (i - 1) >> 2;
      if (!before(ev, heap_[parent])) {
        break;
      }
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = ev;
  }

  Event heap_pop();

  std::uint32_t acquire_slot() {
    if (free_head_ != kNilSlot) {
      std::uint32_t index = free_head_;
      free_head_ = slots_[index].next_free;
      slots_[index].occupied = true;
      return index;
    }
    slots_.emplace_back();
    slots_.back().occupied = true;
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  [[noreturn]] static void throw_scheduled_in_past();
  [[noreturn]] static void throw_clock_backwards();

  bool step();
  /// Pops cancelled leftovers off the heap front so (time, seq)
  /// comparisons against a timer wheel's head see a live event.
  void prune_stale_front() {
    while (!heap_.empty()) {
      const Event& ev = heap_.front();
      const Slot& slot = slots_[ev.slot];
      if (slot.occupied && slot.generation == ev.generation) {
        break;
      }
      heap_pop();
      --cancelled_;
    }
  }
  void release_slot(std::uint32_t index);
  /// Counts one fired heap event or wheel entry; in audit builds every
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
  std::size_t cancelled_ = 0;
  /// 4-ary min-heap: children of i are 4i+1..4i+4.  Half the levels of a
  /// binary heap, and sifting writes one hole instead of swapping pairs.
  std::vector<Event> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;

  static constexpr std::uint64_t kDefaultAuditInterval = 1024;
  std::vector<std::function<void()>> audit_hooks_;
  // lint:allow(raw-time-param) event count, not a time value.
  std::uint64_t audit_interval_ = kDefaultAuditInterval;
  std::uint64_t audit_countdown_ = kDefaultAuditInterval;
};

}  // namespace dnsttl::sim

#endif  // DNSTTL_SIM_SIMULATION_H
