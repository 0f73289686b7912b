#include "sim/timer_wheel.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "check/audit.h"

namespace dnsttl::sim {

TimerWheel::TimerWheel(Time start) {
  if (start.since_epoch().count() < 0) {
    throw std::invalid_argument("TimerWheel start must not precede the epoch");
  }
  cur_tick_ = tick_of(start);
}

void TimerWheel::schedule(Time at, std::uint64_t seq, std::uint64_t payload) {
  const std::int64_t at_tick = tick_of(at);
  if (at_tick <= cur_tick_) {
    if (at_tick < fired_tick()) {
      throw std::invalid_argument("cannot schedule into a fired wheel tick");
    }
    if (active_) {
      // The cohort at cur_tick_ is materialized (its vector already moved
      // into scratch_) but not drained: merge the entry at its (time, seq)
      // position among the not-yet-fired tail.  That covers zero-gap
      // reschedules and entries due before a peeked cohort alike.
      const Entry entry{at, seq, payload};
      auto pos = std::upper_bound(
          scratch_.begin() + static_cast<std::ptrdiff_t>(scratch_idx_),
          scratch_.end(), entry, entry_before);
      scratch_.insert(pos, entry);
      ++pending_;
      return;
    }
  }
  place(Entry{at, seq, payload});
  ++pending_;
}

std::int64_t TimerWheel::fired_tick() const noexcept {
  if (!active_) {
    return cur_tick_;  // pop_head leaves the position on the drained tick
  }
  return scratch_idx_ > 0 ? tick_of(scratch_[scratch_idx_ - 1].at)
                          : prev_tick_;
}

void TimerWheel::place(const Entry& entry) {
  const std::int64_t at_tick = tick_of(entry.at);
  const std::int64_t delta = at_tick - cur_tick_;
  if (delta < static_cast<std::int64_t>(kSlots)) {
    const auto slot = static_cast<std::size_t>(at_tick) & kSlotMask;
    level0_[slot].push_back(entry);
    level0_bits_[slot >> 6] |= std::uint64_t{1} << (slot & 63u);
    return;
  }
  const std::int64_t coarse_delta =
      (at_tick >> kLevelShift) - (cur_tick_ >> kLevelShift);
  if (coarse_delta < static_cast<std::int64_t>(kSlots)) {
    const auto slot =
        static_cast<std::size_t>(at_tick >> kLevelShift) & kSlotMask;
    level1_[slot].push_back(entry);
    level1_bits_[slot >> 6] |= std::uint64_t{1} << (slot & 63u);
    return;
  }
  far_.push_back(entry);
  std::push_heap(far_.begin(), far_.end(), entry_after);
}

void TimerWheel::pull_far() {
  while (!far_.empty()) {
    const std::int64_t min_tick = tick_of(far_.front().at);
    const std::int64_t coarse_delta =
        (min_tick >> kLevelShift) - (cur_tick_ >> kLevelShift);
    if (coarse_delta >= static_cast<std::int64_t>(kSlots)) {
      break;
    }
    std::pop_heap(far_.begin(), far_.end(), entry_after);
    const Entry entry = far_.back();
    far_.pop_back();
    place(entry);
  }
}

void TimerWheel::advance_to_cohort() {
  for (;;) {
    pull_far();
    // Within one coarse window the level-0 range [cur_tick_, boundary) maps
    // to the contiguous slot run [cur & mask, kSlots): no ring wrap, so the
    // occupancy bitmap scan is a straight word walk.
    const std::size_t first_slot = static_cast<std::size_t>(cur_tick_) &
                                   kSlotMask;
    const std::int64_t window_base =
        (cur_tick_ >> kLevelShift) << kLevelShift;
    std::size_t word = first_slot >> 6;
    std::uint64_t bits = level0_bits_[word] &
                         (~std::uint64_t{0} << (first_slot & 63u));
    for (;;) {
      if (bits != 0) {
        const std::size_t slot =
            (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
        cur_tick_ = window_base + static_cast<std::int64_t>(slot);
        return;
      }
      if (++word == level0_bits_.size()) {
        break;
      }
      bits = level0_bits_[word];
    }
    // Nothing due before the coarse boundary: cross it and cascade the
    // level-1 slot that just came into level-0 range.
    cur_tick_ = window_base + static_cast<std::int64_t>(kSlots);
    bool level1_empty = true;
    for (const std::uint64_t w : level1_bits_) {
      level1_empty = level1_empty && w == 0;
    }
    if (level1_empty) {
      bool level0_empty = true;
      for (const std::uint64_t w : level0_bits_) {
        level0_empty = level0_empty && w == 0;
      }
      if (level0_empty) {
        if (far_.empty()) {
          throw check::AuditError(
              "sim::TimerWheel: advance_to_cohort on an empty wheel");
        }
        // Only far entries remain: jump straight to the window holding the
        // earliest one instead of cranking empty coarse slots.
        const std::int64_t min_tick = tick_of(far_.front().at);
        cur_tick_ = (min_tick >> kLevelShift) << kLevelShift;
        if (cur_tick_ < window_base + static_cast<std::int64_t>(kSlots)) {
          cur_tick_ = window_base + static_cast<std::int64_t>(kSlots);
        }
        continue;
      }
    }
    const auto slot =
        static_cast<std::size_t>(cur_tick_ >> kLevelShift) & kSlotMask;
    std::vector<Entry>& coarse = level1_[slot];
    if (!coarse.empty()) {
      level1_bits_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63u));
      for (const Entry& entry : coarse) {
        place(entry);  // coarse window now within level-0 range
      }
      coarse.clear();
    }
  }
}

void TimerWheel::materialize() {
  if (active_ && scratch_idx_ < scratch_.size()) {
    return;
  }
  prev_tick_ = cur_tick_;
  advance_to_cohort();
  const std::size_t slot = static_cast<std::size_t>(cur_tick_) & kSlotMask;
  scratch_.clear();
  scratch_.swap(level0_[slot]);
  level0_bits_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63u));
  std::sort(scratch_.begin(), scratch_.end(), entry_before);
  scratch_idx_ = 0;
  active_ = true;
}

const TimerWheel::Entry& TimerWheel::head() {
  materialize();
  return scratch_[scratch_idx_];
}

TimerWheel::Entry TimerWheel::pop_head() {
  materialize();
  const Entry entry = scratch_[scratch_idx_++];
  --pending_;
  ++fired_;
  if (scratch_idx_ == scratch_.size()) {
    // Leave cur_tick_ on the drained tick: a zero-gap reschedule lands back
    // in this tick's level-0 slot and the next materialize picks it up.
    active_ = false;
    scratch_.clear();
    scratch_idx_ = 0;
  }
  return entry;
}

void TimerWheel::validate() const {
  constexpr const char* kWhat = "sim::TimerWheel";
  std::size_t counted = 0;
  std::vector<std::uint64_t> seqs;
  seqs.reserve(pending_);

  for (std::size_t slot = 0; slot < kSlots; ++slot) {
    const bool bit =
        (level0_bits_[slot >> 6] >> (slot & 63u) & 1u) != 0;
    DNSTTL_AUDIT_CHECK(kWhat, bit == !level0_[slot].empty(),
                       "level-0 occupancy bit disagrees with slot " +
                           std::to_string(slot));
    for (const Entry& entry : level0_[slot]) {
      const std::int64_t at_tick = tick_of(entry.at);
      DNSTTL_AUDIT_CHECK(kWhat,
                         at_tick >= cur_tick_ &&
                             at_tick - cur_tick_ <
                                 static_cast<std::int64_t>(kSlots),
                         "level-0 entry outside the live window in slot " +
                             std::to_string(slot));
      DNSTTL_AUDIT_CHECK(kWhat,
                         (static_cast<std::size_t>(at_tick) & kSlotMask) ==
                             slot,
                         "level-0 entry misfiled: tick " +
                             std::to_string(at_tick) + " in slot " +
                             std::to_string(slot));
      ++counted;
      seqs.push_back(entry.seq);
    }
  }

  for (std::size_t slot = 0; slot < kSlots; ++slot) {
    const bool bit =
        (level1_bits_[slot >> 6] >> (slot & 63u) & 1u) != 0;
    DNSTTL_AUDIT_CHECK(kWhat, bit == !level1_[slot].empty(),
                       "level-1 occupancy bit disagrees with slot " +
                           std::to_string(slot));
    for (const Entry& entry : level1_[slot]) {
      const std::int64_t coarse_delta =
          (tick_of(entry.at) >> kLevelShift) - (cur_tick_ >> kLevelShift);
      DNSTTL_AUDIT_CHECK(kWhat,
                         coarse_delta >= 1 &&
                             coarse_delta < static_cast<std::int64_t>(kSlots),
                         "level-1 entry outside its coarse window in slot " +
                             std::to_string(slot));
      DNSTTL_AUDIT_CHECK(
          kWhat,
          (static_cast<std::size_t>(tick_of(entry.at) >> kLevelShift) &
           kSlotMask) == slot,
          "level-1 entry misfiled in slot " + std::to_string(slot));
      ++counted;
      seqs.push_back(entry.seq);
    }
  }

  const auto unordered =
      std::is_heap_until(far_.begin(), far_.end(), entry_after);
  DNSTTL_AUDIT_CHECK(kWhat, unordered == far_.end(),
                     "far-heap order violated at index " +
                         std::to_string(unordered - far_.begin()));
  for (std::size_t i = 0; i < far_.size(); ++i) {
    DNSTTL_AUDIT_CHECK(kWhat, tick_of(far_[i].at) >= cur_tick_,
                       "far-heap entry behind the wheel position at index " +
                           std::to_string(i));
    ++counted;
    seqs.push_back(far_[i].seq);
  }

  if (active_) {
    DNSTTL_AUDIT_CHECK(kWhat, scratch_idx_ < scratch_.size(),
                       "active cohort fully drained but still marked active");
    DNSTTL_AUDIT_CHECK(kWhat, tick_of(scratch_.back().at) == cur_tick_,
                       "active cohort does not end on the wheel position");
    for (std::size_t i = scratch_idx_; i < scratch_.size(); ++i) {
      const std::int64_t at_tick = tick_of(scratch_[i].at);
      DNSTTL_AUDIT_CHECK(kWhat, at_tick >= prev_tick_ && at_tick <= cur_tick_,
                         "active-cohort entry outside its tick range at "
                         "index " +
                             std::to_string(i));
      if (i > scratch_idx_) {
        DNSTTL_AUDIT_CHECK(kWhat,
                           entry_before(scratch_[i - 1], scratch_[i]),
                           "active cohort not strictly ordered at index " +
                               std::to_string(i));
      }
      ++counted;
      seqs.push_back(scratch_[i].seq);
    }
  } else {
    DNSTTL_AUDIT_CHECK(kWhat, scratch_.empty(),
                       "inactive scratch buffer holds entries");
  }

  DNSTTL_AUDIT_CHECK(kWhat, counted == pending_,
                     "pending-count accounting: " + std::to_string(counted) +
                         " entries found vs pending_ = " +
                         std::to_string(pending_));
  std::sort(seqs.begin(), seqs.end());
  DNSTTL_AUDIT_CHECK(kWhat,
                     std::adjacent_find(seqs.begin(), seqs.end()) ==
                         seqs.end(),
                     "duplicate sequence number among pending entries");
  check::count_audit();
}

}  // namespace dnsttl::sim
