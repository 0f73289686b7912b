#include "cache/cache.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace dnsttl::cache {

std::string_view to_string(Credibility credibility) {
  switch (credibility) {
    case Credibility::kAdditional:
      return "additional";
    case Credibility::kGlue:
      return "glue";
    case Credibility::kNonAuthAnswer:
      return "non-auth-answer";
    case Credibility::kAuthAnswer:
      return "auth-answer";
  }
  return "credibility?";
}

std::string_view to_string(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kLru:
      return "lru";
    case EvictionPolicy::kLfu:
      return "lfu";
    case EvictionPolicy::kTtlAware:
      return "ttl-aware";
  }
  return "policy?";
}

// -------------------------------------------------------- Cache::NsLinks

std::uint32_t Cache::NsLinks::acquire(const dns::Name& owner) {
  std::uint32_t free = kNoLink;
  for (std::uint32_t id = 0; id < owners_.size(); ++id) {
    if (owners_[id].refs == 0) {
      free = std::min(free, id);
    } else if (owners_[id].name == owner) {
      ++owners_[id].refs;
      return id;
    }
  }
  if (free == kNoLink) {
    free = static_cast<std::uint32_t>(owners_.size());
    owners_.emplace_back();
  }
  owners_[free].name = owner;
  owners_[free].refs = 1;
  return free;
}

void Cache::NsLinks::release(std::uint32_t id) {
  if (id != kNoLink && --owners_[id].refs == 0) {
    owners_[id].name = dns::Name{};  // frees a long name's block now
  }
}

std::size_t Cache::NsLinks::size() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(owners_.begin(), owners_.end(),
                    [](const Owner& held) { return held.refs > 0; }));
}

void Cache::NsLinks::validate(std::span<const std::uint64_t> ids) const {
  constexpr const char* kWhat = "cache::Cache::NsLinks";
  std::size_t runs = 0;
  for (std::size_t i = 0; i < ids.size();) {
    const std::uint64_t id = ids[i];
    std::size_t end = i;
    while (end < ids.size() && ids[end] == id) {
      ++end;
    }
    DNSTTL_AUDIT_CHECK(kWhat, id < owners_.size(),
                       "entry holds NS-link id " + std::to_string(id) +
                           " past the table");
    DNSTTL_AUDIT_CHECK(kWhat, owners_[id].refs == end - i,
                       "NS link " + owners_[id].name.to_string() + " counts " +
                           std::to_string(owners_[id].refs) + " entries, " +
                           std::to_string(end - i) + " hold it");
    ++runs;
    i = end;
  }
  DNSTTL_AUDIT_CHECK(kWhat, runs == size(),
                     std::to_string(size()) + " live NS links, " +
                         std::to_string(runs) + " held by entries");
  // Each owner is held once, so acquire() finds it instead of adding a
  // second copy.
  for (std::size_t i = 0; i < owners_.size(); ++i) {
    for (std::size_t j = i + 1; j < owners_.size(); ++j) {
      DNSTTL_AUDIT_CHECK(kWhat,
                         owners_[i].refs == 0 || owners_[j].refs == 0 ||
                             owners_[i].name != owners_[j].name,
                         "NS link " + owners_[i].name.to_string() +
                             " held twice");
    }
  }
}

// ------------------------------------------------------------------ Cache

void Cache::validate() const {
  constexpr const char* kWhat = "cache::Cache";
  entries_.validate("cache::Cache::entries");
  negatives_.validate("cache::Cache::negatives");

  // Expiry-heap coverage: every indexed entry must have a heap record with
  // exactly its (key hash, expiry, stamp), so lazy purging is guaranteed to
  // visit it and TTL-aware victim selection always finds a valid top.  A
  // record finds its entry by (key hash, stamp) alone, so stamps must be
  // unique within each table.
  auto by_coverage = [](const ExpiryRec& a, const ExpiryRec& b) {
    return std::tie(a.hash, a.at, a.stamp) < std::tie(b.hash, b.at, b.stamp);
  };
  auto coverage = [&](const ExpiryHeap& heap, const char* which) {
    DNSTTL_AUDIT_CHECK(kWhat,
                       std::is_heap(heap.begin(), heap.end(), LaterExpiry{}),
                       std::string(which) + " heap out of (at, stamp) order");
    ExpiryHeap recs = heap;
    std::sort(recs.begin(), recs.end(), by_coverage);
    return recs;
  };
  // One scratch buffer serves the stamp checks of both tables and then the
  // NS-link audit, so auditing link ids allocates nothing of its own.
  std::vector<std::uint64_t> scratch;
  scratch.reserve(std::max(entries_.size(), negatives_.size()));
  auto check_stamps_unique = [&](const auto& table, const char* which) {
    scratch.clear();
    table.for_each([&scratch](const auto& item) {
      scratch.push_back(item.value.stamp);
    });
    std::sort(scratch.begin(), scratch.end());
    const auto repeat = std::adjacent_find(scratch.begin(), scratch.end());
    DNSTTL_AUDIT_CHECK(kWhat, repeat == scratch.end(),
                       std::string(which) + ": stamp " +
                           std::to_string(*repeat) + " held twice");
  };
  check_stamps_unique(entries_, "entries");
  check_stamps_unique(negatives_, "negatives");
  scratch.clear();
  entries_.for_each([&scratch](const Table<Entry>::Item& item) {
    if (item.value.linked_ns != kNoLink) {
      scratch.push_back(item.value.linked_ns);
    }
  });
  std::sort(scratch.begin(), scratch.end());
  ns_links_.validate(scratch);
  const ExpiryHeap positive_recs = coverage(expiry_, "expiry");
  const ExpiryHeap negative_recs =
      coverage(negative_expiry_, "negative-expiry");
  auto covered = [&by_coverage](const ExpiryHeap& recs, const auto& item) {
    return std::binary_search(
        recs.begin(), recs.end(),
        ExpiryRec{item.value.expires, item.value.stamp, item.hash},
        by_coverage);
  };

  const dns::Ttl lo = std::min(config_.min_ttl, config_.max_ttl);
  const dns::Ttl hi = std::max(config_.min_ttl, config_.max_ttl);
  entries_.for_each([&](const Table<Entry>::Item& item) {
    const Entry& entry = item.value;
    const dns::Name& name = entry.key();
    DNSTTL_AUDIT_CHECK(kWhat, entry.rrset.type() == item.tag,
                       "entry RRset type disagrees with index key for " +
                           name.to_string());
    DNSTTL_AUDIT_CHECK(kWhat, entry.rrset.ttl() >= lo && entry.rrset.ttl() <= hi,
                       "cached TTL outside the configured clamp for " +
                           name.to_string());
    DNSTTL_AUDIT_CHECK(
        kWhat,
        entry.expires ==
            entry.inserted + sim::seconds(entry.rrset.ttl().value()),
        "expiry arithmetic broken for " + name.to_string());
    DNSTTL_AUDIT_CHECK(kWhat, covered(positive_recs, item),
                       "no expiry-heap record covers " + name.to_string());
  });
  negatives_.for_each([&](const Table<NegativeEntry>::Item& item) {
    DNSTTL_AUDIT_CHECK(kWhat, covered(negative_recs, item),
                       "no negative-expiry record covers " +
                           item.value.name.to_string());
  });

  // Frequency-counter and touch-clock invariants, plus strict recency order
  // along the chain (head = most recent; touches are unique clock draws, so
  // the order is strictly decreasing).
  auto check_chain = [&](const auto& table, const char* which) {
    bool first = true;
    std::uint64_t newer = 0;
    for (std::size_t i = table.head(); i != kNil; i = table.less_recent(i)) {
      const auto& value = table.at(i).value;
      DNSTTL_AUDIT_CHECK(kWhat, value.freq >= 1,
                         std::string(which) +
                             ": stored entry with zero frequency at " +
                             value.key().to_string());
      DNSTTL_AUDIT_CHECK(kWhat,
                         value.last_touch <= tick_ && value.stamp <= tick_,
                         std::string(which) +
                             ": touch/stamp ahead of the logical clock at " +
                             value.key().to_string());
      DNSTTL_AUDIT_CHECK(kWhat, value.stamp <= value.last_touch,
                         std::string(which) +
                             ": stamp newer than last touch at " +
                             value.key().to_string());
      DNSTTL_AUDIT_CHECK(kWhat, first || value.last_touch < newer,
                         std::string(which) +
                             ": recency chain out of touch order at " +
                             value.key().to_string());
      newer = value.last_touch;
      first = false;
    }
  };
  check_chain(entries_, "entries");
  check_chain(negatives_, "negatives");

  const std::size_t resident = entries_.size() + negatives_.size();
  DNSTTL_AUDIT_CHECK(kWhat,
                     config_.max_entries == 0 ||
                         resident <= config_.max_entries,
                     "combined population exceeds max_entries");
  DNSTTL_AUDIT_CHECK(kWhat, stats_.high_water >= resident,
                     "high-water mark below current population");
  check::count_audit();
}

dns::Ttl Cache::clamp_ttl(dns::Ttl ttl) const {
  return std::clamp(ttl, config_.min_ttl, config_.max_ttl);
}

bool Cache::entry_live(const Entry& entry, sim::Time now) const {
  return entry.expires > now;
}

bool Cache::ns_link_broken(const Entry& entry, sim::Time now) const {
  if (!config_.link_glue_to_ns || entry.linked_ns == kNoLink) {
    return false;
  }
  const dns::Name& owner = ns_links_.owner(entry.linked_ns);
  const Entry* ns = entries_.find(key_hash(owner, dns::RRType::kNS), owner,
                                  dns::RRType::kNS);
  if (ns == nullptr || !entry_live(*ns, now)) {
    return true;
  }
  // The covering NS set was replaced since this entry was cached: the old
  // delegation instance this address rode with no longer exists (§4.2).
  return ns->inserted != entry.linked_ns_inserted;
}

void Cache::push_expiry(ExpiryHeap& heap, const ExpiryRec& rec) {
  heap.push_back(rec);
  std::push_heap(heap.begin(), heap.end(), LaterExpiry{});
}

Cache::ExpiryRec Cache::pop_expiry(ExpiryHeap& heap) {
  std::pop_heap(heap.begin(), heap.end(), LaterExpiry{});
  const ExpiryRec rec = heap.back();
  heap.pop_back();
  return rec;
}

template <typename V>
std::size_t Cache::purge_heap(ExpiryHeap& heap, Table<V>& table,
                              sim::Duration grace, sim::Time now) {
  std::size_t removed = 0;
  while (!heap.empty() && heap.front().at + grace <= now) {
    // The record's own deadline has passed, so the instance it covers (if
    // it was not refreshed or removed since) is due.
    const std::size_t slot = covered_slot(table, pop_expiry(heap));
    if (slot != kNil) {
      erase_at(table, slot);
      ++removed;
    }
  }
  return removed;
}

template <typename V>
void Cache::compact_heap(ExpiryHeap& heap, const Table<V>& table) {
  if (heap.size() <= 2 * table.size() + 8) {
    return;
  }
  heap.clear();
  table.for_each([&heap](const auto& item) {
    heap.push_back(ExpiryRec{item.value.expires, item.value.stamp, item.hash});
  });
  std::make_heap(heap.begin(), heap.end(), LaterExpiry{});
}

void Cache::maybe_halve() {
  if (config_.policy != EvictionPolicy::kLfu ||
      config_.lfu_halving_period == 0 ||
      tick_ % config_.lfu_halving_period != 0) {
    return;
  }
  auto decay = [](auto& item) {
    std::uint8_t f = item.value.freq;
    item.value.freq = static_cast<std::uint8_t>(f < 2 ? 1 : f >> 1);
  };
  entries_.for_each_mut(decay);
  negatives_.for_each_mut(decay);
}

void Cache::enforce_capacity() {
  if (config_.max_entries != 0) {
    std::size_t resident = entries_.size() + negatives_.size();
    while (resident > config_.max_entries) {
      evict_one();
      std::size_t after = entries_.size() + negatives_.size();
      if (after == resident) {
        break;  // defensive: no victim found (cannot happen when over budget)
      }
      resident = after;
    }
  }
  const std::uint64_t resident =
      static_cast<std::uint64_t>(entries_.size() + negatives_.size());
  if (resident > stats_.high_water) {
    stats_.high_water = resident;
  }
}

void Cache::evict_one() {
  bool from_positive = false;
  std::size_t p = kNil;
  std::size_t n = kNil;
  switch (config_.policy) {
    case EvictionPolicy::kLru: {
      p = entries_.tail();
      n = negatives_.tail();
      from_positive =
          n == kNil || (p != kNil && entries_.at(p).value.last_touch <
                                         negatives_.at(n).value.last_touch);
      break;
    }
    case EvictionPolicy::kLfu: {
      // Walk each chain from the cold end.  The chain is touch-ordered, so
      // the first frequency-1 slot seen is the global (freq, recency)
      // minimum and the walk can stop there — on skewed workloads the tail
      // is dominated by once-touched entries and this is near-O(1).
      auto coldest = [](const auto& table) {
        std::size_t best = kNil;
        std::uint8_t best_freq = 255;
        for (std::size_t i = table.tail(); i != kNil;
             i = table.more_recent(i)) {
          const std::uint8_t f = table.at(i).value.freq;
          if (best == kNil || f < best_freq) {
            best = i;
            best_freq = f;
          }
          if (best_freq == 1) {
            break;
          }
        }
        return best;
      };
      p = coldest(entries_);
      n = coldest(negatives_);
      if (p == kNil || n == kNil) {
        from_positive = n == kNil;
      } else {
        const Entry& pe = entries_.at(p).value;
        const NegativeEntry& ne = negatives_.at(n).value;
        from_positive = pe.freq < ne.freq ||
                        (pe.freq == ne.freq && pe.last_touch < ne.last_touch);
      }
      break;
    }
    case EvictionPolicy::kTtlAware: {
      // Lazily discard heap records whose entry was refreshed or removed
      // (no entry holds their stamp); the surviving tops are the true
      // soonest expiries.
      auto valid_top = [](ExpiryHeap& heap, const auto& table) {
        while (!heap.empty()) {
          const std::size_t slot = covered_slot(table, heap.front());
          if (slot != kNil) {
            return slot;
          }
          pop_expiry(heap);
        }
        return kNil;
      };
      p = valid_top(expiry_, entries_);
      n = valid_top(negative_expiry_, negatives_);
      from_positive =
          n == kNil ||
          (p != kNil &&
           LaterExpiry{}(negative_expiry_.front(), expiry_.front()));
      // Consume the record now; the entry it covers is going away.
      if (p != kNil || n != kNil) {
        pop_expiry(from_positive ? expiry_ : negative_expiry_);
      }
      break;
    }
  }
  if (p == kNil && n == kNil) {
    return;
  }
  if (from_positive) {
    erase_at(entries_, p);
    ++stats_.evicted_positive;
  } else {
    erase_at(negatives_, n);
    ++stats_.evicted_negative;
  }
  ++stats_.capacity_evictions;
}

bool Cache::insert(dns::RRset rrset, Credibility credibility, sim::Time now,
                   std::optional<dns::Name> linked_ns_owner) {
  count_mutation();
  const dns::RRType type = rrset.type();
  std::uint64_t hash = key_hash(rrset.name(), type);
  const std::size_t existing_slot =
      entries_.find_slot(hash, rrset.name(), type);
  const Entry* existing =
      existing_slot == kNil ? nullptr : &entries_.at(existing_slot).value;
  if (existing != nullptr && entry_live(*existing, now) &&
      !ns_link_broken(*existing, now)) {
    int have = static_cast<int>(existing->credibility);
    int incoming = static_cast<int>(credibility);
    if (have > incoming) {
      // RFC 2181 §5.4.1: never replace live, more-credible data.
      ++stats_.downgrades_refused;
      return false;
    }
    if (have == incoming && !config_.replace_same_credibility) {
      ++stats_.downgrades_refused;
      return false;
    }
    if (config_.prefer_parent_delegation &&
        (existing->credibility == Credibility::kGlue ||
         existing->credibility == Credibility::kAdditional) &&
        incoming > have) {
      // Parent-centric: the parent's delegation copy wins while it lives.
      ++stats_.downgrades_refused;
      return false;
    }
  }
  if (existing != nullptr && !entry_live(*existing, now) &&
      config_.serve_stale && now < existing->expires + config_.stale_window) {
    // The entry was expired but still servable stale, and fresh data just
    // arrived: an RFC 8767 resurrection (the §7 resilience accounting).
    ++stats_.resurrections;
  }
  Entry entry;
  entry.credibility = credibility;
  entry.inserted = now;
  entry.original_ttl = rrset.ttl();
  dns::Ttl effective = clamp_ttl(rrset.ttl());
  rrset.set_ttl(effective);
  entry.expires = now + sim::seconds(effective.value());
  if (linked_ns_owner) {
    // Without a live covering NS the entry is stored unlinked.
    const Entry* ns =
        entries_.find(key_hash(*linked_ns_owner, dns::RRType::kNS),
                      *linked_ns_owner, dns::RRType::kNS);
    if (ns != nullptr && entry_live(*ns, now)) {
      entry.linked_ns_inserted = ns->inserted;
      entry.linked_ns = ns_links_.acquire(*linked_ns_owner);
    }
  }
  if (existing != nullptr) {
    // A refresh of live data inherits (and bumps) its popularity; everything
    // else starts at frequency 1.  The replaced instance lets go of its
    // link (after the new one took its own, so a shared owner stays put).
    if (entry_live(*existing, now)) {
      entry.freq = bump_freq(existing->freq);
    }
    ns_links_.release(existing->linked_ns);
  }
  entry.stamp = bump_tick();
  entry.last_touch = entry.stamp;
  entry.rrset = std::move(rrset);
  push_expiry(expiry_, ExpiryRec{entry.expires, entry.stamp, hash});
  const std::size_t slot = entries_.put(hash, type, std::move(entry));
  compact_heap(expiry_, entries_);
  ++stats_.inserts;
  // Fresh positive data supersedes any negative entry.
  negatives_.erase(hash, entries_.at(slot).value.key(), type);
  maybe_halve();
  enforce_capacity();
  if constexpr (check::kAuditEnabled) {
    validate();
  }
  return true;
}

void Cache::insert_negative(const dns::Name& name, dns::RRType type,
                            dns::Rcode rcode, dns::Ttl ttl, sim::Time now) {
  count_mutation();
  std::uint64_t hash = key_hash(name, type);
  dns::Ttl effective = clamp_ttl(ttl);
  NegativeEntry entry;
  entry.name = name;
  entry.expires = now + sim::seconds(effective.value());
  entry.rcode = rcode;
  const NegativeEntry* existing = negatives_.find(hash, name, type);
  if (existing != nullptr && existing->expires > now) {
    entry.freq = bump_freq(existing->freq);
  }
  entry.stamp = bump_tick();
  entry.last_touch = entry.stamp;
  push_expiry(negative_expiry_, ExpiryRec{entry.expires, entry.stamp, hash});
  negatives_.put(hash, type, std::move(entry));
  compact_heap(negative_expiry_, negatives_);
  maybe_halve();
  enforce_capacity();
  if constexpr (check::kAuditEnabled) {
    validate();
  }
}

std::optional<CacheHit> Cache::lookup(const dns::Name& name, dns::RRType type,
                                      sim::Time now, bool allow_stale) {
  const std::size_t slot = entries_.find_slot(key_hash(name, type), name, type);
  if (slot == kNil) {
    ++stats_.misses;
    return std::nullopt;
  }
  Entry& entry = entries_.at(slot).value;
  if (ns_link_broken(entry, now)) {
    // In-bailiwick policy: glue dies with its NS record (§4.2).
    ++stats_.ns_linked_drops;
    ++stats_.misses;
    return std::nullopt;
  }
  if (!entry_live(entry, now)) {
    bool within_stale_window =
        config_.serve_stale && allow_stale &&
        now < entry.expires + config_.stale_window;
    if (!within_stale_window) {
      ++stats_.expired;
      ++stats_.misses;
      return std::nullopt;
    }
    ++stats_.stale_serves;
    ++stats_.hits;
    entry.last_touch = bump_tick();
    entry.freq = bump_freq(entry.freq);
    entries_.touch(slot);
    // RFC 8767: stale answers are served with a short fixed TTL.
    CacheHit hit = make_hit(entry, dns::Ttl{30});
    hit.stale = true;
    hit.stale_for = now - entry.expires;
    maybe_halve();
    return hit;
  }
  ++stats_.hits;
  entry.last_touch = bump_tick();
  entry.freq = bump_freq(entry.freq);
  entries_.touch(slot);
  CacheHit hit = make_hit(
      entry, dns::Ttl::of_seconds((entry.expires - now) / sim::kSecond));
  maybe_halve();
  return hit;
}

std::optional<CacheHit> Cache::peek(dns::NameView name, dns::RRType type,
                                    sim::Time now) const {
  const Entry* entry = entries_.find(key_hash(name, type), name, type);
  if (entry == nullptr || !entry_live(*entry, now) ||
      ns_link_broken(*entry, now)) {
    return std::nullopt;
  }
  return make_hit(
      *entry, dns::Ttl::of_seconds((entry->expires - now) / sim::kSecond));
}

CacheHit Cache::make_hit(const Entry& entry, dns::Ttl ttl) const {
  CacheHit hit;
  hit.rrset_ = &entry.rrset;
  hit.ttl = ttl;
  hit.credibility = entry.credibility;
  hit.original_ttl = entry.original_ttl;
  if constexpr (check::kAuditEnabled) {
    hit.cache_ = this;
    hit.taken_at_ = mutations_;
  }
  return hit;
}

std::optional<NegativeHit> Cache::lookup_negative(const dns::Name& name,
                                                  dns::RRType type,
                                                  sim::Time now) {
  const std::size_t slot =
      negatives_.find_slot(key_hash(name, type), name, type);
  if (slot == kNil) {
    return std::nullopt;
  }
  NegativeEntry& entry = negatives_.at(slot).value;
  if (entry.expires <= now) {
    return std::nullopt;
  }
  entry.last_touch = bump_tick();
  entry.freq = bump_freq(entry.freq);
  negatives_.touch(slot);
  NegativeHit hit{
      entry.rcode,
      dns::Ttl::of_seconds((entry.expires - now) / sim::kSecond)};
  maybe_halve();
  return hit;
}

bool Cache::evict(const dns::Name& name, dns::RRType type) {
  count_mutation();
  const std::size_t slot = entries_.find_slot(key_hash(name, type), name, type);
  if (slot != kNil) {
    erase_at(entries_, slot);
  }
  if constexpr (check::kAuditEnabled) {
    validate();
  }
  return slot != kNil;
}

std::size_t Cache::purge_expired(sim::Time now) {
  count_mutation();
  sim::Duration grace =
      config_.serve_stale ? config_.stale_window : sim::Duration{};
  const std::size_t removed =
      purge_heap(expiry_, entries_, grace, now) +
      purge_heap(negative_expiry_, negatives_, sim::Duration{}, now);
  if constexpr (check::kAuditEnabled) {
    validate();
    // Purge guarantee: nothing past its (stale-window-extended) deadline
    // may survive a purge at @p now.
    entries_.for_each([&](const Table<Entry>::Item& item) {
      DNSTTL_AUDIT_CHECK("cache::Cache", item.value.expires + grace > now,
                         "entry survived purge past its deadline: " +
                             item.value.key().to_string());
    });
  }
  return removed;
}

void Cache::clear() {
  count_mutation();
  entries_.clear();
  negatives_.clear();
  ns_links_.clear();
  expiry_.clear();
  negative_expiry_.clear();
  if constexpr (check::kAuditEnabled) {
    validate();
  }
}

std::string Cache::dump(sim::Time now) const {
  // Reproduce the historical ordered-map iteration: canonical name order,
  // then record type.
  struct PositiveRef {
    const dns::Name* name;
    dns::RRType type;
    const Entry* entry;
  };
  std::vector<PositiveRef> live;
  live.reserve(entries_.size());
  entries_.for_each([&](const auto& item) {
    if (entry_live(item.value, now)) {
      live.push_back(PositiveRef{&item.value.key(), item.tag, &item.value});
    }
  });
  std::sort(live.begin(), live.end(),
            [](const PositiveRef& a, const PositiveRef& b) {
              if (auto cmp = *a.name <=> *b.name; cmp != 0) {
                return cmp < 0;
              }
              return a.type < b.type;
            });

  std::string out;
  for (const auto& ref : live) {
    auto remaining = (ref.entry->expires - now) / sim::kSecond;
    for (const auto& rdata : ref.entry->rrset.rdatas()) {
      out += ref.name->to_string() + " " + std::to_string(remaining) + " " +
             std::string(dns::to_string(ref.type)) + " " +
             dns::rdata_to_string(rdata) + " ; " +
             std::string(to_string(ref.entry->credibility));
      if (ref.entry->linked_ns != kNoLink) {
        out += " linked=" + ns_links_.owner(ref.entry->linked_ns).to_string();
        if (ns_link_broken(*ref.entry, now)) {
          out += " (broken)";
        }
      }
      out += "\n";
    }
  }

  struct NegativeRef {
    const dns::Name* name;
    dns::RRType type;
    const NegativeEntry* entry;
  };
  std::vector<NegativeRef> negatives;
  negatives.reserve(negatives_.size());
  negatives_.for_each([&](const auto& item) {
    if (item.value.expires > now) {
      negatives.push_back(
          NegativeRef{&item.value.name, item.tag, &item.value});
    }
  });
  std::sort(negatives.begin(), negatives.end(),
            [](const NegativeRef& a, const NegativeRef& b) {
              if (auto cmp = *a.name <=> *b.name; cmp != 0) {
                return cmp < 0;
              }
              return a.type < b.type;
            });
  for (const auto& ref : negatives) {
    out += ref.name->to_string() + " " +
           std::to_string((ref.entry->expires - now) / sim::kSecond) + " " +
           std::string(dns::to_string(ref.type)) + " ; negative " +
           std::string(dns::to_string(ref.entry->rcode)) + "\n";
  }
  return out;
}

std::optional<dns::Ttl> Cache::remaining_ttl(const dns::Name& name,
                                             dns::RRType type,
                                             sim::Time now) const {
  auto hit = peek(name, type, now);
  if (!hit) {
    return std::nullopt;
  }
  return hit->ttl;
}

}  // namespace dnsttl::cache
