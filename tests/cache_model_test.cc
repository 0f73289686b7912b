// Differential test for the open-addressing cache index and its lazy expiry
// heap: a randomized trace of insert / lookup / evict / negative / purge
// operations runs against both cache::Cache and a deliberately naive
// std::map-based oracle that mirrors the documented semantics (the data
// structure the cache used historically).  Any divergence in hit results,
// remaining TTLs, sizes, purge counts or statistics is a bug in the table,
// the heap, or the Name hashing underneath them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "dns/name.h"
#include "dns/name_table.h"
#include "dns/rr.h"
#include "dns/types.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace dnsttl::cache {
namespace {

struct ModelEntry {
  sim::Time expires{};
  dns::Ttl original_ttl{};
  dns::Ttl stored_ttl{};  // after clamping
  Credibility credibility = Credibility::kGlue;
};

struct ModelNegative {
  dns::Rcode rcode = dns::Rcode::kNXDomain;
  sim::Time expires{};
};

/// The oracle: ordered map keyed on canonical name text + type, executing
/// the RFC 2181 credibility rule, TTL clamping and expiry arithmetic in the
/// most straightforward way possible.
class CacheOracle {
 public:
  explicit CacheOracle(const Cache::Config& config) : config_(config) {}

  using Key = std::pair<std::string, dns::RRType>;

  bool insert(const dns::Name& name, dns::RRType type, dns::Ttl ttl,
              Credibility credibility, sim::Time now) {
    Key key{name.to_string(), type};
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.expires > now) {
      int have = static_cast<int>(it->second.credibility);
      int incoming = static_cast<int>(credibility);
      if (have > incoming) {
        return false;
      }
    }
    ModelEntry entry;
    entry.original_ttl = ttl;
    entry.stored_ttl = std::clamp(ttl, config_.min_ttl, config_.max_ttl);
    entry.expires =
        now + sim::seconds(entry.stored_ttl.value());
    entry.credibility = credibility;
    entries_[key] = entry;
    negatives_.erase(key);
    return true;
  }

  void insert_negative(const dns::Name& name, dns::RRType type,
                       dns::Rcode rcode, dns::Ttl ttl, sim::Time now) {
    dns::Ttl effective = std::clamp(ttl, config_.min_ttl, config_.max_ttl);
    negatives_[{name.to_string(), type}] = ModelNegative{
        rcode, now + sim::seconds(effective.value())};
  }

  /// Returns remaining TTL on a live hit, nullopt on a miss.
  std::optional<dns::Ttl> lookup(const dns::Name& name, dns::RRType type,
                                 sim::Time now) const {
    auto it = entries_.find({name.to_string(), type});
    if (it == entries_.end() || it->second.expires <= now) {
      return std::nullopt;
    }
    return dns::Ttl::of_seconds(static_cast<std::int64_t>((it->second.expires - now) / sim::kSecond));
  }

  std::optional<dns::Ttl> lookup_negative(const dns::Name& name,
                                          dns::RRType type,
                                          sim::Time now) const {
    auto it = negatives_.find({name.to_string(), type});
    if (it == negatives_.end() || it->second.expires <= now) {
      return std::nullopt;
    }
    return dns::Ttl::of_seconds(static_cast<std::int64_t>((it->second.expires - now) / sim::kSecond));
  }

  bool evict(const dns::Name& name, dns::RRType type) {
    return entries_.erase({name.to_string(), type}) > 0;
  }

  std::size_t purge_expired(sim::Time now) {
    sim::Duration grace =
        config_.serve_stale ? config_.stale_window : sim::Duration{};
    std::size_t removed = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->second.expires + grace <= now) {
        it = entries_.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    for (auto it = negatives_.begin(); it != negatives_.end();) {
      if (it->second.expires <= now) {
        it = negatives_.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    return removed;
  }

  std::size_t size() const { return entries_.size(); }

 private:
  Cache::Config config_;
  std::map<Key, ModelEntry> entries_;
  std::map<Key, ModelNegative> negatives_;
};

dns::RRset make_rrset(const dns::Name& name, dns::Ttl ttl,
                      std::uint32_t value) {
  dns::RRset rrset(name, dns::RClass::kIN, ttl);
  rrset.add(dns::ARdata{dns::Ipv4(value)});
  return rrset;
}

/// @p count names "<prefix><i>.<zone><i % zones>.example".
std::vector<dns::Name> name_pool(const std::string& prefix,
                                 const std::string& zone, int count,
                                 int zones) {
  std::vector<dns::Name> names;
  for (int i = 0; i < count; ++i) {
    names.push_back(dns::Name::from_string(prefix + std::to_string(i) + "." +
                                           zone + std::to_string(i % zones) +
                                           ".example"));
  }
  return names;
}

/// A pool small enough that keys collide across insert/expiry cycles but
/// large enough to force table growth and probe chains.
std::vector<dns::Name> model_names() { return name_pool("m", "model", 48, 5); }

/// @p count names whose (name, A) table hashes agree in their low four
/// bits: in a table of up to 16 slots they all start probing at one slot,
/// so every probe for one of them walks past the others and their
/// tombstones.
std::vector<dns::Name> chained_names(std::size_t count) {
  struct Keyed {
    dns::Name name;
    const dns::Name& key() const noexcept { return name; }
  };
  using Probe = dns::NameTable<dns::RRType, Keyed>;
  std::vector<dns::Name> names;
  std::uint64_t home = 0;
  for (int i = 0; names.size() < count; ++i) {
    auto name =
        dns::Name::from_string("c" + std::to_string(i) + ".chain.example");
    const std::uint64_t low = Probe::key_hash(name, dns::RRType::kA) & 15;
    if (names.empty()) {
      home = low;
    }
    if (low == home) {
      names.push_back(std::move(name));
    }
  }
  return names;
}

/// Runs one randomized trace over @p names against both implementations.
void run_trace(const Cache::Config& config, std::uint64_t seed,
               bool exercise_credibility,
               const std::vector<dns::Name>& names) {
  Cache cache(config);
  CacheOracle oracle(config);
  sim::Rng rng(seed);

  sim::Time now{};
  std::uint32_t value = 0;
  for (int op = 0; op < 4000; ++op) {
    now += sim::seconds(static_cast<std::int64_t>(rng.uniform_int(0, 3)));
    const dns::Name& name = names[rng.uniform_int(0, names.size() - 1)];
    double action = rng.uniform();
    if (action < 0.45) {
      auto ttl = dns::Ttl::of_seconds(static_cast<std::int64_t>(rng.uniform_int(0, 40)));
      Credibility credibility =
          exercise_credibility && rng.chance(0.5) ? Credibility::kGlue
                                                  : Credibility::kAuthAnswer;
      bool stored = cache.insert(make_rrset(name, ttl, value), credibility,
                                 now);
      bool model_stored =
          oracle.insert(name, dns::RRType::kA, ttl, credibility, now);
      ASSERT_EQ(stored, model_stored)
          << "insert divergence at op " << op << " name " << name.to_string();
      ++value;
    } else if (action < 0.75) {
      auto hit = cache.lookup(name, dns::RRType::kA, now);
      auto model = oracle.lookup(name, dns::RRType::kA, now);
      ASSERT_EQ(hit.has_value(), model.has_value())
          << "lookup divergence at op " << op << " name " << name.to_string();
      if (hit) {
        ASSERT_EQ(hit->ttl, *model) << "TTL divergence at op " << op;
      }
    } else if (action < 0.82) {
      ASSERT_EQ(cache.evict(name, dns::RRType::kA),
                oracle.evict(name, dns::RRType::kA))
          << "evict divergence at op " << op;
    } else if (action < 0.90) {
      auto ttl = dns::Ttl::of_seconds(static_cast<std::int64_t>(rng.uniform_int(1, 20)));
      cache.insert_negative(name, dns::RRType::kA, dns::Rcode::kNXDomain, ttl,
                            now);
      oracle.insert_negative(name, dns::RRType::kA, dns::Rcode::kNXDomain,
                             ttl, now);
    } else if (action < 0.96) {
      auto hit = cache.lookup_negative(name, dns::RRType::kA, now);
      auto model = oracle.lookup_negative(name, dns::RRType::kA, now);
      ASSERT_EQ(hit.has_value(), model.has_value())
          << "negative lookup divergence at op " << op;
      if (hit) {
        ASSERT_EQ(hit->remaining, *model)
            << "negative TTL divergence at op " << op;
      }
    } else {
      ASSERT_EQ(cache.purge_expired(now), oracle.purge_expired(now))
          << "purge count divergence at op " << op << " now "
          << now.since_epoch().count();
    }
    ASSERT_EQ(cache.size(), oracle.size()) << "size divergence at op " << op;
  }
}

TEST(CacheModelTest, RandomizedTracesMatchMapOracle) {
  Cache::Config config;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_trace(config, seed, /*exercise_credibility=*/false, model_names());
  }
}

TEST(CacheModelTest, CredibilityRefusalsMatchMapOracle) {
  Cache::Config config;
  for (std::uint64_t seed = 100; seed <= 104; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_trace(config, seed, /*exercise_credibility=*/true, model_names());
  }
}

TEST(CacheModelTest, ServeStaleGraceMatchesMapOracle) {
  Cache::Config config;
  config.serve_stale = true;
  config.stale_window = 20 * sim::kSecond;
  for (std::uint64_t seed = 200; seed <= 204; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_trace(config, seed, /*exercise_credibility=*/false, model_names());
  }
}

TEST(CacheModelTest, MinTtlClampMatchesMapOracle) {
  Cache::Config config;
  config.min_ttl = dns::Ttl{15};
  config.max_ttl = dns::Ttl{30};
  for (std::uint64_t seed = 300; seed <= 303; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_trace(config, seed, /*exercise_credibility=*/false, model_names());
  }
}

// ---------------------------------------------------------------------------
// Bounded-cache differential oracle: a naive std::map model that mirrors the
// documented touch sequence exactly — bump the logical clock, stamp the
// entry, apply the periodic LFU halving, then enforce capacity with
// policy-chosen victims (LRU: min last_touch; LFU: min (freq, last_touch);
// TTL-aware: min (expires, stamp)).  The real cache computes the same
// victims through an intrusive recency chain, saturating counters and lazy
// expiry heaps; any divergence in hit/miss results, per-table sizes, tick
// or eviction counters is a bug in that machinery.

struct BoundedRecord {
  sim::Time expires{};
  std::uint64_t last_touch = 0;
  std::uint64_t stamp = 0;
  std::uint8_t freq = 1;
};

class BoundedOracle {
 public:
  explicit BoundedOracle(const Cache::Config& config) : config_(config) {}

  using Key = std::pair<std::string, dns::RRType>;

  void insert(const dns::Name& name, dns::RRType type, dns::Ttl ttl,
              sim::Time now) {
    Key key{name.to_string(), type};
    BoundedRecord rec;
    dns::Ttl effective = std::clamp(ttl, config_.min_ttl, config_.max_ttl);
    rec.expires = now + sim::seconds(effective.value());
    auto it = positives_.find(key);
    if (it != positives_.end() && it->second.expires > now) {
      rec.freq = bump(it->second.freq);
    }
    rec.stamp = ++tick_;
    rec.last_touch = rec.stamp;
    positives_[key] = rec;
    negatives_.erase(key);
    maybe_halve();
    enforce_capacity();
  }

  void insert_negative(const dns::Name& name, dns::RRType type, dns::Ttl ttl,
                       sim::Time now) {
    Key key{name.to_string(), type};
    BoundedRecord rec;
    dns::Ttl effective = std::clamp(ttl, config_.min_ttl, config_.max_ttl);
    rec.expires = now + sim::seconds(effective.value());
    auto it = negatives_.find(key);
    if (it != negatives_.end() && it->second.expires > now) {
      rec.freq = bump(it->second.freq);
    }
    rec.stamp = ++tick_;
    rec.last_touch = rec.stamp;
    negatives_[key] = rec;
    maybe_halve();
    enforce_capacity();
  }

  std::optional<dns::Ttl> lookup(const dns::Name& name, dns::RRType type,
                                 sim::Time now) {
    auto it = positives_.find({name.to_string(), type});
    if (it == positives_.end() || it->second.expires <= now) {
      return std::nullopt;  // misses do not touch the clock
    }
    it->second.last_touch = ++tick_;
    it->second.freq = bump(it->second.freq);
    auto remaining =
        dns::Ttl::of_seconds((it->second.expires - now) / sim::kSecond);
    maybe_halve();
    return remaining;
  }

  std::optional<dns::Ttl> lookup_negative(const dns::Name& name,
                                          dns::RRType type, sim::Time now) {
    auto it = negatives_.find({name.to_string(), type});
    if (it == negatives_.end() || it->second.expires <= now) {
      return std::nullopt;
    }
    it->second.last_touch = ++tick_;
    it->second.freq = bump(it->second.freq);
    auto remaining =
        dns::Ttl::of_seconds((it->second.expires - now) / sim::kSecond);
    maybe_halve();
    return remaining;
  }

  bool evict(const dns::Name& name, dns::RRType type) {
    return positives_.erase({name.to_string(), type}) > 0;
  }

  std::size_t purge_expired(sim::Time now) {
    sim::Duration grace =
        config_.serve_stale ? config_.stale_window : sim::Duration{};
    std::size_t removed = 0;
    for (auto it = positives_.begin(); it != positives_.end();) {
      if (it->second.expires + grace <= now) {
        it = positives_.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    for (auto it = negatives_.begin(); it != negatives_.end();) {
      if (it->second.expires <= now) {
        it = negatives_.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    return removed;
  }

  std::size_t positive_size() const { return positives_.size(); }
  std::size_t negative_size() const { return negatives_.size(); }
  std::uint64_t tick() const { return tick_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t evicted_positive() const { return evicted_positive_; }
  std::uint64_t evicted_negative() const { return evicted_negative_; }
  std::uint64_t high_water() const { return high_water_; }

 private:
  static std::uint8_t bump(std::uint8_t freq) {
    return freq < 255 ? static_cast<std::uint8_t>(freq + 1) : freq;
  }

  void maybe_halve() {
    if (config_.policy != EvictionPolicy::kLfu ||
        config_.lfu_halving_period == 0 ||
        tick_ % config_.lfu_halving_period != 0) {
      return;
    }
    for (auto& [key, rec] : positives_) {
      rec.freq = static_cast<std::uint8_t>(rec.freq < 2 ? 1 : rec.freq >> 1);
    }
    for (auto& [key, rec] : negatives_) {
      rec.freq = static_cast<std::uint8_t>(rec.freq < 2 ? 1 : rec.freq >> 1);
    }
  }

  void enforce_capacity() {
    if (config_.max_entries != 0) {
      while (positives_.size() + negatives_.size() > config_.max_entries) {
        evict_one();
      }
    }
    high_water_ = std::max(
        high_water_,
        static_cast<std::uint64_t>(positives_.size() + negatives_.size()));
  }

  /// Victim ordering key per policy; the minimum across both maps loses.
  std::pair<std::uint64_t, std::uint64_t> rank(const BoundedRecord& rec) const {
    switch (config_.policy) {
      case EvictionPolicy::kLru:
        return {rec.last_touch, 0};
      case EvictionPolicy::kLfu:
        return {rec.freq, rec.last_touch};
      case EvictionPolicy::kTtlAware:
        return {static_cast<std::uint64_t>(rec.expires.ticks()), rec.stamp};
    }
    return {0, 0};
  }

  void evict_one() {
    const std::map<Key, BoundedRecord>* victim_map = nullptr;
    std::map<Key, BoundedRecord>::const_iterator victim;
    std::pair<std::uint64_t, std::uint64_t> best{};
    for (const auto* table : {&positives_, &negatives_}) {
      for (auto it = table->begin(); it != table->end(); ++it) {
        auto r = rank(it->second);
        if (victim_map == nullptr || r < best) {
          victim_map = table;
          victim = it;
          best = r;
        }
      }
    }
    if (victim_map == nullptr) {
      return;
    }
    if (victim_map == &positives_) {
      ++evicted_positive_;
      positives_.erase(victim->first);
    } else {
      ++evicted_negative_;
      negatives_.erase(victim->first);
    }
    ++evictions_;
  }

  Cache::Config config_;
  std::map<Key, BoundedRecord> positives_;
  std::map<Key, BoundedRecord> negatives_;
  std::uint64_t tick_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t evicted_positive_ = 0;
  std::uint64_t evicted_negative_ = 0;
  std::uint64_t high_water_ = 0;
};

std::vector<dns::Name> bounded_names() {
  return name_pool("b", "bounded", 64, 7);
}

/// One fuzzed bounded trace: 10k mixed insert/lookup/negative/evict/purge
/// ops over @p names against cache and oracle, comparing every observable
/// after every op.
void run_bounded_trace(const Cache::Config& config, std::uint64_t seed,
                       const std::vector<dns::Name>& names) {
  Cache cache(config);
  BoundedOracle oracle(config);
  sim::Rng rng(seed);

  sim::Time now{};
  std::uint32_t value = 0;
  for (int op = 0; op < 10000; ++op) {
    now += sim::seconds(static_cast<std::int64_t>(rng.uniform_int(0, 3)));
    const dns::Name& name = names[rng.uniform_int(0, names.size() - 1)];
    double action = rng.uniform();
    if (action < 0.40) {
      auto ttl = dns::Ttl::of_seconds(
          static_cast<std::int64_t>(rng.uniform_int(1, 40)));
      ASSERT_TRUE(cache.insert(make_rrset(name, ttl, value),
                               Credibility::kAuthAnswer, now));
      oracle.insert(name, dns::RRType::kA, ttl, now);
      ++value;
    } else if (action < 0.70) {
      auto hit = cache.lookup(name, dns::RRType::kA, now);
      auto model = oracle.lookup(name, dns::RRType::kA, now);
      ASSERT_EQ(hit.has_value(), model.has_value())
          << "bounded lookup divergence at op " << op << " name "
          << name.to_string();
      if (hit) {
        ASSERT_EQ(hit->ttl, *model)
            << "bounded TTL divergence at op " << op;
      }
    } else if (action < 0.80) {
      auto ttl = dns::Ttl::of_seconds(
          static_cast<std::int64_t>(rng.uniform_int(1, 20)));
      cache.insert_negative(name, dns::RRType::kA, dns::Rcode::kNXDomain, ttl,
                            now);
      oracle.insert_negative(name, dns::RRType::kA, ttl, now);
    } else if (action < 0.92) {
      auto hit = cache.lookup_negative(name, dns::RRType::kA, now);
      auto model = oracle.lookup_negative(name, dns::RRType::kA, now);
      ASSERT_EQ(hit.has_value(), model.has_value())
          << "bounded negative lookup divergence at op " << op;
      if (hit) {
        ASSERT_EQ(hit->remaining, *model)
            << "bounded negative TTL divergence at op " << op;
      }
    } else if (action < 0.97) {
      ASSERT_EQ(cache.evict(name, dns::RRType::kA),
                oracle.evict(name, dns::RRType::kA))
          << "bounded evict divergence at op " << op;
    } else {
      ASSERT_EQ(cache.purge_expired(now), oracle.purge_expired(now))
          << "bounded purge divergence at op " << op;
    }
    ASSERT_EQ(cache.size(), oracle.positive_size())
        << "positive size divergence at op " << op;
    ASSERT_EQ(cache.negative_size(), oracle.negative_size())
        << "negative size divergence at op " << op;
    ASSERT_EQ(cache.tick(), oracle.tick())
        << "touch clock divergence at op " << op;
    const Cache::Stats& stats = cache.stats();
    ASSERT_EQ(stats.capacity_evictions, oracle.evictions())
        << "eviction count divergence at op " << op;
    ASSERT_EQ(stats.evicted_positive, oracle.evicted_positive())
        << "positive eviction divergence at op " << op;
    ASSERT_EQ(stats.evicted_negative, oracle.evicted_negative())
        << "negative eviction divergence at op " << op;
  }
  EXPECT_EQ(cache.stats().high_water, oracle.high_water());
  cache.validate();
}

TEST(CacheModelTest, BoundedLruTracesMatchOracle) {
  Cache::Config config;
  config.max_entries = 24;
  config.policy = EvictionPolicy::kLru;
  for (std::uint64_t seed = 400; seed < 405; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_bounded_trace(config, seed, bounded_names());
  }
}

TEST(CacheModelTest, BoundedLfuTracesMatchOracle) {
  Cache::Config config;
  config.max_entries = 24;
  config.policy = EvictionPolicy::kLfu;
  // Short halving period so the decay fires hundreds of times per trace.
  config.lfu_halving_period = 64;
  for (std::uint64_t seed = 500; seed < 505; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_bounded_trace(config, seed, bounded_names());
  }
}

TEST(CacheModelTest, BoundedTtlAwareTracesMatchOracle) {
  Cache::Config config;
  config.max_entries = 24;
  config.policy = EvictionPolicy::kTtlAware;
  for (std::uint64_t seed = 600; seed < 605; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_bounded_trace(config, seed, bounded_names());
  }
}

// A tighter budget than the working set forces an eviction on nearly every
// insert; the chain, counters and heaps must stay exact under that churn.
TEST(CacheModelTest, TinyCapacityChurnMatchesOracle) {
  for (EvictionPolicy policy : {EvictionPolicy::kLru, EvictionPolicy::kLfu,
                                EvictionPolicy::kTtlAware}) {
    Cache::Config config;
    config.max_entries = 4;
    config.policy = policy;
    SCOPED_TRACE(std::string(to_string(policy)));
    run_bounded_trace(config, 7777, bounded_names());
  }
}

// The lazy expiry heap must keep purge_expired exact even when one key is
// refreshed far more often than it expires (the worst case for stale heap
// records) — and the heap compaction that bounds its growth must not drop
// deadlines.
TEST(CacheModelTest, RepeatedRefreshKeepsPurgeExact) {
  Cache cache;
  CacheOracle oracle(Cache::Config{});
  auto name = dns::Name::from_string("hot.model.example");
  sim::Time now{};
  for (int round = 0; round < 5000; ++round) {
    cache.insert(make_rrset(name, dns::Ttl{10}, round), Credibility::kAuthAnswer, now);
    oracle.insert(name, dns::RRType::kA, dns::Ttl{10}, Credibility::kAuthAnswer, now);
    now += sim::kSecond;
  }
  // The entry was refreshed every second with a 10 s TTL: still live.
  EXPECT_EQ(cache.purge_expired(now), oracle.purge_expired(now));
  EXPECT_EQ(cache.size(), 1u);
  now += 11 * sim::kSecond;
  EXPECT_EQ(cache.purge_expired(now), oracle.purge_expired(now));
  EXPECT_EQ(cache.size(), 0u);
}

// Expiry records find their entries by (key hash, stamp).  Refreshing an
// entry to a shorter or a longer TTL, or evicting and reinserting it,
// leaves a record whose stamp no entry holds any more; purges and TTL-aware
// victim selection must drop it even when its key is back in the table,
// and keys on one probe chain must not answer for each other.  The same
// script runs unbounded against CacheOracle (purge counts) and at capacity
// 4 under kTtlAware against BoundedOracle (victims), and every key is
// looked up after every step.
TEST(CacheModelTest, StaleRecordsOnSharedProbeChainsMatchOracles) {
  const std::vector<dns::Name> keys = chained_names(6);
  enum Kind { kInsert, kNegative, kEvict, kPurge };
  struct Step {
    int at;  // seconds
    Kind kind;
    std::size_t key;
    std::uint32_t ttl;
  };
  const std::vector<Step> script = {
      {0, kInsert, 0, 10},
      {0, kInsert, 1, 20},
      {0, kInsert, 2, 30},
      {0, kNegative, 4, 10},
      {1, kInsert, 0, 60},    // refresh to longer: expiry 10 -> 61
      {1, kNegative, 4, 30},  // negative refresh to longer: 10 -> 31
      {1, kInsert, 3, 40},    // over capacity: 1 goes, not 0
      {2, kInsert, 2, 3},     // refresh to shorter: 30 -> 5
      {2, kEvict, 3, 0},      // evict, then reinsert: 41 -> 52
      {2, kInsert, 3, 50},
      {6, kPurge, 0, 0},
      {12, kPurge, 0, 0},     // the stale records of 0 and 4 fall due
      {20, kInsert, 2, 100},  // reinsert after a purge
      {21, kInsert, 5, 90},   // over capacity under the stale tops of 2, 3
      {25, kPurge, 0, 0},
      {35, kPurge, 0, 0},     // 2's record of expiry 30 falls due
      {40, kInsert, 1, 5},
      {45, kPurge, 0, 0},     // 3's record of expiry 41 falls due
      {50, kInsert, 4, 2},
      {70, kPurge, 0, 0},
      {200, kPurge, 0, 0},
  };

  Cache unbounded;
  CacheOracle plain(Cache::Config{});
  Cache::Config ttl_aware;
  ttl_aware.max_entries = 4;
  ttl_aware.policy = EvictionPolicy::kTtlAware;
  Cache bounded(ttl_aware);
  BoundedOracle victims(ttl_aware);
  std::uint32_t value = 0;
  for (std::size_t i = 0; i < script.size(); ++i) {
    const Step& step = script[i];
    SCOPED_TRACE("step " + std::to_string(i));
    const sim::Time now = sim::at(step.at * sim::kSecond);
    const dns::Name& name = keys[step.key];
    const dns::Ttl ttl{step.ttl};
    switch (step.kind) {
      case kInsert:
        ASSERT_TRUE(unbounded.insert(make_rrset(name, ttl, value),
                                     Credibility::kAuthAnswer, now));
        ASSERT_TRUE(bounded.insert(make_rrset(name, ttl, value),
                                   Credibility::kAuthAnswer, now));
        plain.insert(name, dns::RRType::kA, ttl, Credibility::kAuthAnswer,
                     now);
        victims.insert(name, dns::RRType::kA, ttl, now);
        ++value;
        break;
      case kNegative:
        unbounded.insert_negative(name, dns::RRType::kA,
                                  dns::Rcode::kNXDomain, ttl, now);
        bounded.insert_negative(name, dns::RRType::kA, dns::Rcode::kNXDomain,
                                ttl, now);
        plain.insert_negative(name, dns::RRType::kA, dns::Rcode::kNXDomain,
                              ttl, now);
        victims.insert_negative(name, dns::RRType::kA, ttl, now);
        break;
      case kEvict:
        ASSERT_EQ(unbounded.evict(name, dns::RRType::kA),
                  plain.evict(name, dns::RRType::kA));
        ASSERT_EQ(bounded.evict(name, dns::RRType::kA),
                  victims.evict(name, dns::RRType::kA));
        break;
      case kPurge:
        ASSERT_EQ(unbounded.purge_expired(now), plain.purge_expired(now));
        ASSERT_EQ(bounded.purge_expired(now), victims.purge_expired(now));
        break;
    }
    ASSERT_EQ(unbounded.size(), plain.size());
    ASSERT_EQ(bounded.size(), victims.positive_size());
    ASSERT_EQ(bounded.negative_size(), victims.negative_size());
    ASSERT_EQ(bounded.stats().evicted_positive, victims.evicted_positive());
    ASSERT_EQ(bounded.stats().evicted_negative, victims.evicted_negative());
    for (const dns::Name& key : keys) {
      const auto hit = unbounded.lookup(key, dns::RRType::kA, now);
      const auto model = plain.lookup(key, dns::RRType::kA, now);
      ASSERT_EQ(hit.has_value(), model.has_value()) << key.to_string();
      ASSERT_EQ(
          unbounded.lookup_negative(key, dns::RRType::kA, now).has_value(),
          plain.lookup_negative(key, dns::RRType::kA, now).has_value())
          << key.to_string();
      const auto bounded_hit = bounded.lookup(key, dns::RRType::kA, now);
      const auto bounded_model = victims.lookup(key, dns::RRType::kA, now);
      ASSERT_EQ(bounded_hit.has_value(), bounded_model.has_value())
          << key.to_string();
      if (bounded_hit) {
        ASSERT_EQ(bounded_hit->ttl, *bounded_model) << key.to_string();
      }
    }
    unbounded.validate();
    bounded.validate();
  }
}

// ---------------------------------------------------------------------------
// NS links: a glue entry holds a 32-bit id into the cache's table of linked
// NS owners.  Whatever drops an entry must release its id, so the table
// holds exactly the owners that stored entries link.

/// The distinct NS owners named by dump()'s "linked=" fields, and how many
/// positive records it lists (live entries only).
struct DumpedLinks {
  std::set<std::string> owners;
  std::size_t records = 0;
};

DumpedLinks dumped_links(const Cache& cache, sim::Time now) {
  DumpedLinks links;
  const std::string dump = cache.dump(now);
  std::size_t start = 0;
  while (start < dump.size()) {
    const std::size_t end = dump.find('\n', start);
    const std::string line = dump.substr(start, end - start);
    start = end + 1;
    if (line.find(" ; negative ") != std::string::npos) {
      continue;
    }
    ++links.records;
    const std::size_t at = line.find(" linked=");
    if (at != std::string::npos) {
      const std::size_t from = at + 8;
      links.owners.insert(line.substr(from, line.find(' ', from) - from));
    }
  }
  return links;
}

/// The dump() line of the (one-record) entry at @p owner, or "".
std::string dumped_line(const Cache& cache, const std::string& owner,
                        sim::Time now) {
  const std::string dump = "\n" + cache.dump(now);
  const std::size_t at = dump.find("\n" + owner + " ");
  return at == std::string::npos
             ? std::string()
             : dump.substr(at + 1, dump.find('\n', at + 1) - at - 1);
}

/// The audit passes and the link table holds exactly the owners the
/// entries link, read from dump(); every stored entry must be live at
/// @p now (and hold one record), so dump() lists them all.
void expect_links_exact(const Cache& cache, sim::Time now) {
  cache.validate();
  const DumpedLinks links = dumped_links(cache, now);
  ASSERT_EQ(links.records, cache.size()) << "an entry is not live at the check";
  EXPECT_EQ(cache.linked_ns_owners(), links.owners.size());
}

dns::RRset make_ns_rrset(const dns::Name& zone, dns::Ttl ttl) {
  dns::RRset rrset(zone, dns::RClass::kIN, ttl);
  rrset.add(dns::NsRdata{zone.prepend("ns1")});
  return rrset;
}

TEST(CacheModelTest, NsLinksFollowEveryPathThatDropsAnEntry) {
  const dns::Name a = dns::Name::from_string("a.link.example");
  const dns::Name b = dns::Name::from_string("b.link.example");
  const dns::Name c = dns::Name::from_string("c.link.example");
  const dns::Name ns1a = a.prepend("ns1");
  const dns::Name ns2a = a.prepend("ns2");
  const dns::Name ns1b = b.prepend("ns1");
  const dns::Name ns1c = c.prepend("ns1");
  const auto at = [](int seconds) { return sim::at(seconds * sim::kSecond); };
  const dns::Ttl day{86400};
  Cache cache;

  for (const dns::Name& zone : {a, b, c}) {
    ASSERT_TRUE(cache.insert(make_ns_rrset(zone, day), Credibility::kGlue,
                             at(0)));
  }
  ASSERT_TRUE(cache.insert(make_rrset(ns1a, day, 1), Credibility::kGlue,
                           at(0), a));
  ASSERT_TRUE(cache.insert(make_rrset(ns2a, dns::Ttl{50}, 2),
                           Credibility::kGlue, at(0), a));
  ASSERT_TRUE(cache.insert(make_rrset(ns1b, day, 3), Credibility::kGlue,
                           at(0), b));
  ASSERT_TRUE(cache.insert(make_rrset(ns1c, dns::Ttl{40}, 4),
                           Credibility::kGlue, at(0), c));
  // No NS entry covers this owner: stored unlinked.
  ASSERT_TRUE(cache.insert(make_rrset(dns::Name::from_string("orphan.example"),
                                      day, 5),
                           Credibility::kGlue, at(1),
                           dns::Name::from_string("nowhere.example")));
  expect_links_exact(cache, at(1));
  EXPECT_EQ(cache.linked_ns_owners(), 3u);

  // An NS refresh breaks the links of the glue that rode the old set; the
  // glue still holds its id.
  ASSERT_TRUE(cache.insert(make_ns_rrset(a, day), Credibility::kGlue, at(10)));
  EXPECT_NE(dumped_line(cache, "ns1.a.link.example.", at(10))
                .find(" linked=a.link.example. (broken)"),
            std::string::npos);
  expect_links_exact(cache, at(10));
  EXPECT_EQ(cache.linked_ns_owners(), 3u);

  // Overwriting an entry releases the old instance's id after the new one
  // took its own: the same owner, linked afresh.
  ASSERT_TRUE(cache.insert(make_rrset(ns1a, day, 6), Credibility::kGlue,
                           at(20), a));
  EXPECT_EQ(dumped_line(cache, "ns1.a.link.example.", at(20))
                .find("(broken)"),
            std::string::npos);
  expect_links_exact(cache, at(20));
  EXPECT_EQ(cache.linked_ns_owners(), 3u);

  // evict() of the last entry linking b drops b.
  ASSERT_TRUE(cache.evict(ns1b, dns::RRType::kA));
  expect_links_exact(cache, at(30));
  EXPECT_EQ(cache.linked_ns_owners(), 2u);

  // Once the NS is gone, dump() still names the owner, as broken.
  ASSERT_TRUE(cache.evict(a, dns::RRType::kNS));
  EXPECT_NE(dumped_line(cache, "ns1.a.link.example.", at(39))
                .find(" linked=a.link.example. (broken)"),
            std::string::npos);
  expect_links_exact(cache, at(39));
  EXPECT_EQ(cache.linked_ns_owners(), 2u);

  // purge_expired drops ns1.c (expiry 40, c's last link) and ns2.a (50;
  // ns1.a still links a).
  EXPECT_EQ(cache.purge_expired(at(60)), 2u);
  expect_links_exact(cache, at(60));
  EXPECT_EQ(cache.linked_ns_owners(), 1u);

  // snapshot -> restore: the same owners, the same bytes.
  const std::vector<std::uint8_t> image = cache.snapshot();
  Cache restored;
  restored.restore(image);
  expect_links_exact(restored, at(60));
  EXPECT_EQ(restored.linked_ns_owners(), cache.linked_ns_owners());
  EXPECT_EQ(restored.snapshot(), image);
  EXPECT_EQ(restored.dump(at(60)), cache.dump(at(60)));

  // clear() drops every owner; linking again works from empty.
  cache.clear();
  expect_links_exact(cache, at(70));
  EXPECT_EQ(cache.linked_ns_owners(), 0u);
  ASSERT_TRUE(cache.insert(make_ns_rrset(b, day), Credibility::kGlue, at(80)));
  ASSERT_TRUE(cache.insert(make_rrset(ns1b, day, 7), Credibility::kGlue,
                           at(80), b));
  expect_links_exact(cache, at(80));
  EXPECT_EQ(cache.linked_ns_owners(), 1u);
}

// A cache that links many cuts: releases free ids that later owners
// reuse, and every owner stays held once (or validate() and the exact
// count fail).
TEST(CacheModelTest, NsLinksManyOwnersReuseReleasedIds) {
  constexpr int kZones = 40;
  const dns::Ttl day{86400};
  const sim::Time now{};
  const auto zone = [](int i) {
    return dns::Name::from_string("z" + std::to_string(i) + ".many.example");
  };
  Cache cache;
  for (int i = 0; i < kZones; ++i) {
    ASSERT_TRUE(cache.insert(make_ns_rrset(zone(i), day), Credibility::kGlue,
                             now));
    for (const char* label : {"ns1", "ns2"}) {
      ASSERT_TRUE(cache.insert(make_rrset(zone(i).prepend(label), day,
                                          static_cast<std::uint32_t>(i)),
                               Credibility::kGlue, now, zone(i)));
    }
    expect_links_exact(cache, now);
  }
  EXPECT_EQ(cache.linked_ns_owners(), static_cast<std::size_t>(kZones));
  // Drop both glue entries of every third zone, one glue entry of the
  // others: a third of the owners go, the rest keep one link each.
  for (int i = 0; i < kZones; ++i) {
    ASSERT_TRUE(cache.evict(zone(i).prepend("ns1"), dns::RRType::kA));
    if (i % 3 == 0) {
      ASSERT_TRUE(cache.evict(zone(i).prepend("ns2"), dns::RRType::kA));
    }
    expect_links_exact(cache, now);
  }
  EXPECT_EQ(cache.linked_ns_owners(), static_cast<std::size_t>(kZones - 14));
  // Re-linking reuses the released ids.
  for (int i = 0; i < kZones; i += 3) {
    ASSERT_TRUE(cache.insert(make_rrset(zone(i).prepend("ns1"), day, 1),
                             Credibility::kGlue, now, zone(i)));
    expect_links_exact(cache, now);
  }
  EXPECT_EQ(cache.linked_ns_owners(), static_cast<std::size_t>(kZones));
  cache.clear();
  expect_links_exact(cache, now);
  ASSERT_TRUE(cache.insert(make_ns_rrset(zone(0), day), Credibility::kGlue,
                           now));
  ASSERT_TRUE(cache.insert(make_rrset(zone(0).prepend("ns1"), day, 1),
                           Credibility::kGlue, now, zone(0)));
  expect_links_exact(cache, now);
  EXPECT_EQ(cache.linked_ns_owners(), 1u);
}

// Capacity eviction is one more path that drops linked glue, whichever
// policy picks the victim.  Six zones' NS sets and glue churn through a
// cache of 8 entries; after every insert the link table holds exactly the
// owners the resident entries link.
TEST(CacheModelTest, NsLinksFollowCapacityEviction) {
  for (EvictionPolicy policy : {EvictionPolicy::kLru, EvictionPolicy::kLfu,
                                EvictionPolicy::kTtlAware}) {
    SCOPED_TRACE(std::string(to_string(policy)));
    Cache::Config config;
    config.max_entries = 8;
    config.policy = policy;
    Cache cache(config);
    std::size_t most_owners = 0;
    for (int i = 0; i < 60; ++i) {
      const sim::Time now = sim::at(i * sim::kSecond);
      const dns::Name zone =
          dns::Name::from_string("z" + std::to_string(i % 6) + ".example");
      const auto ttl = [i](int base) {
        return dns::Ttl{static_cast<std::uint32_t>(base + (i * 37) % 500)};
      };
      ASSERT_TRUE(cache.insert(make_ns_rrset(zone, ttl(1000)),
                               Credibility::kGlue, now));
      expect_links_exact(cache, now);
      ASSERT_TRUE(cache.insert(
          make_rrset(zone.prepend("ns" + std::to_string(i % 4)), ttl(900),
                     static_cast<std::uint32_t>(i)),
          Credibility::kGlue, now, zone));
      expect_links_exact(cache, now);
      ASSERT_TRUE(cache.insert(
          make_rrset(dns::Name::from_string("x" + std::to_string(i) + ".example"),
                     ttl(800), static_cast<std::uint32_t>(i)),
          Credibility::kAuthAnswer, now));
      expect_links_exact(cache, now);
      most_owners = std::max(most_owners, cache.linked_ns_owners());
    }
    EXPECT_GT(cache.stats().evicted_positive, 100u);
    EXPECT_GE(most_owners, 2u);
    // Every deadline has passed: the purge empties cache and link table.
    const std::size_t resident = cache.size();
    EXPECT_EQ(cache.purge_expired(sim::at(4000 * sim::kSecond)), resident);
    expect_links_exact(cache, sim::at(4000 * sim::kSecond));
    EXPECT_EQ(cache.linked_ns_owners(), 0u);
  }
}

// The randomized traces, over keys that share one probe chain.
TEST(CacheModelTest, SharedProbeChainTracesMatchOracles) {
  const std::vector<dns::Name> keys = chained_names(6);
  run_trace(Cache::Config{}, 700, /*exercise_credibility=*/false, keys);
  Cache::Config stale;
  stale.serve_stale = true;
  stale.stale_window = 20 * sim::kSecond;
  run_trace(stale, 701, /*exercise_credibility=*/false, keys);
  for (EvictionPolicy policy : {EvictionPolicy::kLru, EvictionPolicy::kLfu,
                                EvictionPolicy::kTtlAware}) {
    Cache::Config config;
    config.max_entries = 4;
    config.policy = policy;
    SCOPED_TRACE(std::string(to_string(policy)));
    run_bounded_trace(config, 702, keys);
  }
}

// ---------------------------------------------------------------------------
// Purging on a lower-bound clock.  A caller may purge at a time no later
// call undercuts: the §3.4 demand pool purges each resolver's cache at the
// start of its next client query.  Entries due by then answer no later
// read, so two caches driven by one trace, one of them purged at the clock
// before every client step, must agree on every read, every insert result
// and the final dump().  Each operation runs at the clock plus 0-5 s, as a
// resolution's sub-queries do.  Only the counters of reads that found a
// due entry (expired, ns_linked_drops: a plain miss once the entry is
// gone) and the resident peak (high_water) may differ.

/// Every field of a lookup or peek result a caller can read.
std::string describe(const std::optional<CacheHit>& hit) {
  if (!hit) {
    return "miss";
  }
  std::string out = "ttl=" + std::to_string(hit->ttl.value()) + " " +
                    std::string(to_string(hit->credibility)) +
                    " original=" + std::to_string(hit->original_ttl.value()) +
                    (hit->stale ? " stale_for=" : " live ") +
                    std::to_string(hit->stale_for.count()) + " " +
                    hit->rrset().name().to_string() + " " +
                    std::to_string(hit->rrset().ttl().value());
  for (const dns::Rdata& rdata : hit->rrset().rdatas()) {
    out += " " + dns::rdata_to_string(rdata);
  }
  return out;
}

std::string describe(const std::optional<NegativeHit>& hit) {
  return hit ? std::string(dns::to_string(hit->rcode)) + " " +
                   std::to_string(hit->remaining.value())
             : "miss";
}

/// Runs one trace over NS sets, glue linked to them and plain names.
/// Returns how many entries the purges dropped.
std::size_t run_lower_bound_purge_trace(const Cache::Config& config,
                                        std::uint64_t seed) {
  struct Key {
    dns::Name name;
    dns::RRType type;
    std::optional<dns::Name> link;  ///< NS owner for glue
  };
  std::vector<Key> keys;
  for (int z = 0; z < 3; ++z) {
    const dns::Name zone =
        dns::Name::from_string("z" + std::to_string(z) + ".purge.example");
    keys.push_back(Key{zone, dns::RRType::kNS, std::nullopt});
    for (int i = 1; i <= 2; ++i) {
      keys.push_back(
          Key{zone.prepend("ns" + std::to_string(i)), dns::RRType::kA, zone});
    }
  }
  for (const dns::Name& name : name_pool("p", "purge", 12, 3)) {
    keys.push_back(Key{name, dns::RRType::kA, std::nullopt});
  }
  constexpr Credibility kCredibilities[] = {
      Credibility::kAdditional, Credibility::kGlue,
      Credibility::kNonAuthAnswer, Credibility::kAuthAnswer};

  Cache plain(config);
  Cache purged(config);
  sim::Rng rng(seed);
  sim::Time clock{};
  std::uint32_t value = 0;
  std::size_t dropped = 0;
  for (int step = 0; step < 1500; ++step) {
    clock += sim::seconds(static_cast<std::int64_t>(rng.uniform_int(0, 3)));
    dropped += purged.purge_expired(clock);
    const std::uint64_t ops = rng.uniform_int(1, 4);
    for (std::uint64_t op = 0; op < ops; ++op) {
      const sim::Time now =
          clock + sim::milliseconds(
                      static_cast<std::int64_t>(rng.uniform_int(0, 10)) * 500);
      const Key& key = keys[rng.uniform_int(0, keys.size() - 1)];
      const std::string where = "step " + std::to_string(step) + " at " +
                                std::to_string(now.since_epoch().count()) +
                                " " + key.name.to_string();
      const double action = rng.uniform();
      if (action < 0.35) {
        const auto ttl = dns::Ttl::of_seconds(
            static_cast<std::int64_t>(rng.uniform_int(0, 40)));
        const Credibility credibility =
            kCredibilities[rng.uniform_int(0, std::size(kCredibilities) - 1)];
        const dns::RRset rrset = key.type == dns::RRType::kNS
                                     ? make_ns_rrset(key.name, ttl)
                                     : make_rrset(key.name, ttl, value++);
        const std::optional<dns::Name> link =
            key.link && rng.chance(0.8) ? key.link : std::nullopt;
        const bool stored = plain.insert(rrset, credibility, now, link);
        EXPECT_EQ(stored, purged.insert(rrset, credibility, now, link))
            << "insert, " << where;
      } else if (action < 0.45) {
        const dns::Rcode rcode =
            rng.chance(0.5) ? dns::Rcode::kNXDomain : dns::Rcode::kNoError;
        const auto ttl = dns::Ttl::of_seconds(
            static_cast<std::int64_t>(rng.uniform_int(0, 20)));
        plain.insert_negative(key.name, key.type, rcode, ttl, now);
        purged.insert_negative(key.name, key.type, rcode, ttl, now);
      } else if (action < 0.75) {
        const bool allow_stale = rng.chance(0.5);
        const std::string hit =
            describe(plain.lookup(key.name, key.type, now, allow_stale));
        EXPECT_EQ(hit,
                  describe(purged.lookup(key.name, key.type, now, allow_stale)))
            << "lookup, " << where;
      } else if (action < 0.88) {
        EXPECT_EQ(describe(plain.peek(key.name, key.type, now)),
                  describe(purged.peek(key.name, key.type, now)))
            << "peek, " << where;
      } else {
        const std::string hit =
            describe(plain.lookup_negative(key.name, key.type, now));
        EXPECT_EQ(hit, describe(purged.lookup_negative(key.name, key.type, now)))
            << "negative lookup, " << where;
      }
    }
  }
  EXPECT_EQ(plain.dump(clock), purged.dump(clock));
  EXPECT_EQ(plain.tick(), purged.tick());

  const Cache::Stats& a = plain.stats();
  const Cache::Stats& b = purged.stats();
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.stale_serves, b.stale_serves);
  EXPECT_EQ(a.resurrections, b.resurrections);
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_EQ(a.downgrades_refused, b.downgrades_refused);
  EXPECT_EQ(a.capacity_evictions, b.capacity_evictions);
  EXPECT_EQ(a.evicted_positive, b.evicted_positive);
  EXPECT_EQ(a.evicted_negative, b.evicted_negative);
  // The reads that found a due entry in the plain cache miss outright in
  // the purged one, so the trace did read purged keys.
  EXPECT_GT(a.expired + a.ns_linked_drops, b.expired + b.ns_linked_drops);
  EXPECT_LE(b.high_water, a.high_water);
  return dropped;
}

TEST(CacheModelTest, PurgeAtALowerBoundClockChangesNoLaterRead) {
  Cache::Config stale;
  stale.serve_stale = true;
  stale.stale_window = 20 * sim::kSecond;
  Cache::Config keep_live;
  keep_live.replace_same_credibility = false;
  Cache::Config parent_centric;
  parent_centric.prefer_parent_delegation = true;
  const std::pair<const char*, Cache::Config> configs[] = {
      {"default", Cache::Config{}},
      {"serve-stale", stale},
      {"keep live same-credibility data", keep_live},
      {"prefer parent delegation", parent_centric}};
  for (const auto& [label, config] : configs) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(std::string(label) + ", seed " + std::to_string(seed));
      EXPECT_GT(run_lower_bound_purge_trace(config, seed), 0u);
    }
  }
}

}  // namespace
}  // namespace dnsttl::cache
