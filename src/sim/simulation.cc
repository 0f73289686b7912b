#include "sim/simulation.h"

#include <cstdio>
#include <stdexcept>
#include <string>

namespace dnsttl::sim {

std::string format_time(Time t) {
  std::int64_t total_seconds = t.since_epoch() / kSecond;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld:%02lld:%02lld",
                static_cast<long long>(total_seconds / 3600),
                static_cast<long long>((total_seconds / 60) % 60),
                static_cast<long long>(total_seconds % 60));
  return buf;
}

void Simulation::throw_scheduled_in_past() {
  throw std::invalid_argument("cannot schedule an event in the past");
}

void Simulation::throw_clock_backwards() {
  throw std::invalid_argument("timer wheel entry precedes the clock");
}

void Simulation::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.fn.reset();
  slot.occupied = false;
  ++slot.generation;  // invalidates every outstanding id for this slot
  slot.next_free = free_head_;
  free_head_ = index;
}

Simulation::Event Simulation::heap_pop() {
  Event min = heap_.front();
  Event last = heap_.back();
  heap_.pop_back();
  std::size_t n = heap_.size();
  if (n > 0) {
    std::size_t i = 0;
    for (;;) {
      std::size_t first = (i << 2) + 1;
      if (first >= n) {
        break;
      }
      std::size_t best = first;
      std::size_t end = first + 4 < n ? first + 4 : n;
      for (std::size_t child = first + 1; child < end; ++child) {
        if (before(heap_[child], heap_[best])) {
          best = child;
        }
      }
      if (!before(heap_[best], last)) {
        break;
      }
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return min;
}

std::uint64_t Simulation::schedule_at(Time at, Handler handler) {
  if (at < now_) {
    throw_scheduled_in_past();
  }
  std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.fn = std::move(handler);
  heap_push(Event{at, next_seq_++, index, slot.generation});
  return (static_cast<std::uint64_t>(slot.generation) << 32) | index;
}

std::uint64_t Simulation::schedule_after(Duration delay, Handler handler) {
  return schedule_at(now_ + delay, std::move(handler));
}

bool Simulation::cancel(std::uint64_t event_id) {
  std::uint32_t index = static_cast<std::uint32_t>(event_id & 0xffffffffu);
  std::uint32_t generation = static_cast<std::uint32_t>(event_id >> 32);
  if (index >= slots_.size() || !slots_[index].occupied ||
      slots_[index].generation != generation) {
    return false;
  }
  release_slot(index);
  ++cancelled_;
  return true;
}

bool Simulation::step() {
  while (!heap_.empty()) {
    Event ev = heap_pop();
    Slot& slot = slots_[ev.slot];
    if (!slot.occupied || slot.generation != ev.generation) {
      --cancelled_;  // was cancelled; skip
      continue;
    }
    now_ = ev.at;
    EventFn handler = std::move(slot.fn);
    // Free the slot before running: the handler may schedule new events and
    // reuse it (under a new generation).
    release_slot(ev.slot);
    ++processed_;
    handler.invoke_consume();
    count_toward_audit();
    return true;
  }
  return false;
}

void Simulation::run_audit() const {
  validate();
  for (const auto& hook : audit_hooks_) {
    if (hook) {
      hook();
    }
  }
}

void Simulation::validate() const {
  constexpr const char* kWhat = "sim::Simulation";
  const std::size_t n = heap_.size();

  // 4-ary min-heap order under the strict (at, seq) total order, and no
  // event scheduled before the current virtual time.
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t parent = (i - 1) >> 2;
    DNSTTL_AUDIT_CHECK(kWhat, !before(heap_[i], heap_[parent]),
                       "heap order violated at index " + std::to_string(i));
  }
  for (std::size_t i = 0; i < n; ++i) {
    DNSTTL_AUDIT_CHECK(kWhat, heap_[i].at >= now_,
                       "pending event at index " + std::to_string(i) +
                           " is scheduled before now");
    DNSTTL_AUDIT_CHECK(kWhat, heap_[i].seq < next_seq_,
                       "event sequence number from the future at index " +
                           std::to_string(i));
  }

  // Slab free list: every reachable slot is unoccupied, the walk terminates
  // (no cycle), and together occupied + free cover the slab exactly.
  std::size_t occupied = 0;
  for (const Slot& slot : slots_) {
    if (slot.occupied) {
      ++occupied;
      DNSTTL_AUDIT_CHECK(kWhat, static_cast<bool>(slot.fn),
                         "occupied slot holds an empty handler");
    }
  }
  std::vector<bool> on_free_list(slots_.size(), false);
  std::size_t free_count = 0;
  for (std::uint32_t index = free_head_; index != kNilSlot;
       index = slots_[index].next_free) {
    DNSTTL_AUDIT_CHECK(kWhat, index < slots_.size(),
                       "free-list index out of range: " +
                           std::to_string(index));
    DNSTTL_AUDIT_CHECK(kWhat, !on_free_list[index],
                       "free-list cycle through slot " + std::to_string(index));
    DNSTTL_AUDIT_CHECK(kWhat, !slots_[index].occupied,
                       "occupied slot " + std::to_string(index) +
                           " reachable from the free list");
    on_free_list[index] = true;
    ++free_count;
  }
  DNSTTL_AUDIT_CHECK(kWhat, occupied + free_count == slots_.size(),
                     "slot leak: " + std::to_string(occupied) + " occupied + " +
                         std::to_string(free_count) + " free != " +
                         std::to_string(slots_.size()) + " slots");

  // Generation agreement: every occupied slot is referenced by exactly one
  // live heap event, and every other heap event is a cancelled leftover
  // accounted for by cancelled_.
  std::vector<std::uint32_t> refs(slots_.size(), 0);
  std::size_t stale = 0;
  for (const Event& ev : heap_) {
    DNSTTL_AUDIT_CHECK(kWhat, ev.slot < slots_.size(),
                       "heap event references slot out of range");
    const Slot& slot = slots_[ev.slot];
    if (slot.occupied && slot.generation == ev.generation) {
      ++refs[ev.slot];
    } else {
      ++stale;
    }
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].occupied) {
      DNSTTL_AUDIT_CHECK(kWhat, refs[i] == 1,
                         "occupied slot " + std::to_string(i) +
                             " referenced by " + std::to_string(refs[i]) +
                             " live events (want exactly 1)");
    }
  }
  DNSTTL_AUDIT_CHECK(kWhat, stale == cancelled_,
                     "cancelled-event accounting: " + std::to_string(stale) +
                         " stale heap events vs cancelled_ = " +
                         std::to_string(cancelled_));
  check::count_audit();
}

void Simulation::run() {
  while (step()) {
  }
}

void Simulation::run_until(Time deadline) {
  // Prune first: a cancelled leftover at or before the deadline must not
  // let step() run the next live event past it.
  prune_stale_front();
  while (!heap_.empty() && heap_.front().at <= deadline) {
    step();
    prune_stale_front();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace dnsttl::sim
