#include "sim/simulation.h"

#include <algorithm>
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

void Simulation::throw_clock_backwards() {
  throw std::invalid_argument("timer wheel entry precedes the clock");
}

void Simulation::schedule_at(Time at, std::function<void()> handler) {
  if (at < now_) {
    throw std::invalid_argument("cannot schedule an event in the past");
  }
  std::uint32_t index = 0;
  if (free_handlers_.empty()) {
    index = static_cast<std::uint32_t>(handlers_.size());
    handlers_.push_back(std::move(handler));
  } else {
    index = free_handlers_.back();
    free_handlers_.pop_back();
    handlers_[index] = std::move(handler);
  }
  queue_.push_back(Event{at, next_seq_++, index});
  std::push_heap(queue_.begin(), queue_.end(), later);
}

void Simulation::step() {
  std::pop_heap(queue_.begin(), queue_.end(), later);
  const Event ev = queue_.back();
  queue_.pop_back();
  now_ = ev.at;
  // Free the slot before running: the handler may schedule into it.
  std::function<void()> handler =
      std::exchange(handlers_[ev.handler], nullptr);
  free_handlers_.push_back(ev.handler);
  ++processed_;
  handler();
  count_toward_audit();
}

void Simulation::run() {
  while (!queue_.empty()) {
    step();
  }
}

void Simulation::run_until(Time deadline) {
  while (!queue_.empty() && queue_.front().at <= deadline) {
    step();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
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
  const auto unordered =
      std::is_heap_until(queue_.begin(), queue_.end(), later);
  DNSTTL_AUDIT_CHECK(kWhat, unordered == queue_.end(),
                     "heap order violated at index " +
                         std::to_string(unordered - queue_.begin()));

  // Every handler slot is held by exactly one live record or sits on the
  // free list exactly once, never both.
  std::vector<bool> held(handlers_.size(), false);
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Event& ev = queue_[i];
    const auto at_index = [i] { return " at index " + std::to_string(i); };
    DNSTTL_AUDIT_CHECK(kWhat, ev.at >= now_,
                       "pending event scheduled before now" + at_index());
    DNSTTL_AUDIT_CHECK(kWhat, ev.seq < next_seq_,
                       "event sequence number from the future" + at_index());
    DNSTTL_AUDIT_CHECK(kWhat, ev.handler < handlers_.size(),
                       "handler index out of range" + at_index());
    DNSTTL_AUDIT_CHECK(kWhat, !held[ev.handler],
                       "handler slot shared by two events" + at_index());
    DNSTTL_AUDIT_CHECK(kWhat, static_cast<bool>(handlers_[ev.handler]),
                       "event holds an empty handler" + at_index());
    held[ev.handler] = true;
  }
  for (const std::uint32_t index : free_handlers_) {
    const auto slot = [index] {
      return "free slot " + std::to_string(index);
    };
    DNSTTL_AUDIT_CHECK(kWhat, index < handlers_.size(),
                       slot() + " is out of range");
    DNSTTL_AUDIT_CHECK(kWhat, !held[index],
                       slot() + " is held by an event or listed twice");
    DNSTTL_AUDIT_CHECK(kWhat, !handlers_[index], slot() + " is not empty");
    held[index] = true;
  }
  DNSTTL_AUDIT_CHECK(kWhat,
                     queue_.size() + free_handlers_.size() == handlers_.size(),
                     "slot leak: " + std::to_string(queue_.size()) +
                         " events + " + std::to_string(free_handlers_.size()) +
                         " free != " + std::to_string(handlers_.size()) +
                         " handler slots");
  check::count_audit();
}

}  // namespace dnsttl::sim
