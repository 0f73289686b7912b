// Tests for the dnsttl::check invariant-audit subsystem (PR 2 tentpole).
//
// The validate() bodies compile in every configuration, so most of these
// tests run identically with DNSTTL_AUDIT on or off; only the automatic
// periodic hooks are gated, and the hook tests assert both behaviours.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache.h"
#include "check/audit.h"
#include "dns/name.h"
#include "dns/rr.h"
#include "dns/zone.h"
#include "sim/simulation.h"
#include "sim/timer_wheel.h"

namespace dnsttl {
namespace {

using dns::Name;
using dns::RRType;

/// Deterministic LCG so the storm/soak tests are reproducible bit-for-bit.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 16;
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

// ------------------------------------------------------------ check machinery

TEST(AuditMachinery, PassingCheckCountsAndDoesNotThrow) {
  const std::uint64_t checks_before = check::audit_stats().checks;
  EXPECT_NO_THROW(DNSTTL_AUDIT_CHECK("test::thing", 1 + 1 == 2, "arithmetic"));
  EXPECT_EQ(check::audit_stats().checks, checks_before + 1);
}

TEST(AuditMachinery, FailingCheckThrowsAuditErrorWithContext) {
  const std::uint64_t failures_before = check::audit_stats().failures;
  try {
    DNSTTL_AUDIT_CHECK("test::thing", 2 + 2 == 5, "slot 17");
    FAIL() << "DNSTTL_AUDIT_CHECK did not throw";
  } catch (const check::AuditError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("test::thing"), std::string::npos) << what;
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos) << what;
    EXPECT_NE(what.find("slot 17"), std::string::npos) << what;
  }
  EXPECT_EQ(check::audit_stats().failures, failures_before + 1);
}

TEST(AuditMachinery, AuditErrorIsALogicError) {
  // Callers that cannot recover (the periodic hook) rely on AuditError
  // deriving from std::logic_error, not runtime_error: an invariant
  // violation is a bug, never an environmental condition.
  EXPECT_THROW(
      check::audit_fail("test::thing", "x == y", "detail"),
      std::logic_error);
}

// ------------------------------------------------------------ sim::Simulation

TEST(SimulationAudit, EmptySimulationValidates) {
  sim::Simulation sim;
  EXPECT_NO_THROW(sim.validate());
}

TEST(SimulationAudit, StormOfScheduleCancelRunStaysConsistent) {
  // Bursts of schedules at whole-second delays (so many tie), some nested
  // (handlers that schedule at the current instant or a second on, into
  // handler slots freed mid-run), drained in partial run_until steps.  The
  // structure validates between steps, and every event fires exactly once,
  // in the strict (time, schedule order) sequence.
  sim::Simulation sim;
  Lcg rng(0x5eed);
  std::vector<std::pair<sim::Time, std::uint64_t>> fired;  // (now, token)
  std::uint64_t next_token = 0;
  std::function<void(std::uint64_t)> fire = [&](std::uint64_t token) {
    fired.emplace_back(sim.now(), token);
    if (rng.below(4) == 0) {
      const std::uint64_t child = next_token++;
      sim.schedule_after(sim::seconds(static_cast<std::int64_t>(rng.below(2))),
                         [&fire, child] { fire(child); });
    }
  };

  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 50; ++i) {
      const sim::Duration delay =
          sim::seconds(static_cast<std::int64_t>(rng.below(90) + 1));
      const std::uint64_t token = next_token++;
      sim.schedule_after(delay, [&fire, token] { fire(token); });
    }
    EXPECT_NO_THROW(sim.validate());
    sim.run_until(sim.now() + 30 * sim::kSecond);
    EXPECT_NO_THROW(sim.validate());
  }
  sim.run();
  EXPECT_NO_THROW(sim.validate());
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_GT(next_token, 40u * 50u);  // some handlers nested
  ASSERT_EQ(fired.size(), next_token);
  EXPECT_EQ(std::adjacent_find(fired.begin(), fired.end(),
                               [](const auto& a, const auto& b) {
                                 return !(a < b);
                               }),
            fired.end());
  std::vector<std::uint64_t> tokens;
  for (const auto& [at, token] : fired) {
    tokens.push_back(token);
  }
  std::sort(tokens.begin(), tokens.end());
  for (std::uint64_t i = 0; i < next_token; ++i) {
    ASSERT_EQ(tokens[i], i);
  }
}

TEST(SimulationAudit, PeriodicHookFiresOnlyInAuditBuilds) {
  sim::Simulation sim;
  sim.set_audit_interval(16);
  std::uint64_t hook_calls = 0;
  sim.add_audit_hook([&hook_calls] { ++hook_calls; });
  for (int i = 0; i < 200; ++i) {
    sim.schedule_after(sim::milliseconds(static_cast<std::int64_t>(i)),
                       [] {});
  }
  sim.run();
  if (check::kAuditEnabled) {
    EXPECT_GE(hook_calls, 200u / 16u);
  } else {
    EXPECT_EQ(hook_calls, 0u);
  }

  // A wheel-only drain: no queued event runs, yet wheel fires count toward
  // the same audit cadence.
  const std::uint64_t heap_events = sim.events_processed();
  hook_calls = 0;
  sim::TimerWheel wheel(sim.now());
  for (int i = 0; i < 200; ++i) {
    wheel.schedule(sim.now() + sim::milliseconds(static_cast<std::int64_t>(i)),
                   sim.allocate_seq(), static_cast<std::uint64_t>(i));
  }
  std::uint64_t fires = 0;
  sim.run_until(sim.now() + sim::kSecond, wheel,
                [&fires](const sim::TimerWheel::Entry&) { ++fires; });
  EXPECT_EQ(fires, 200u);
  EXPECT_EQ(sim.events_processed(), heap_events);
  if (check::kAuditEnabled) {
    EXPECT_GE(hook_calls, 200u / 16u);
    EXPECT_LE(hook_calls, 200u / 16u + 1u);
  } else {
    EXPECT_EQ(hook_calls, 0u);
  }
}

// ---------------------------------------------------------------- cache::Cache

Name numbered_name(std::uint64_t i) {
  return Name::from_string("host" + std::to_string(i) + ".example.com.");
}

TEST(CacheAudit, EmptyCacheValidates) {
  cache::Cache cache;
  EXPECT_NO_THROW(cache.validate());
}

TEST(CacheAudit, RandomizedMutationSoakStaysConsistent) {
  cache::Cache cache;
  Lcg rng(0xcac4e);
  sim::Time now{};

  for (int op = 0; op < 4000; ++op) {
    now += sim::seconds(static_cast<std::int64_t>(rng.below(5)));
    const Name name = numbered_name(rng.below(300));
    switch (rng.below(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // positive insert, mixed credibility
        dns::RRset rrset(name, dns::RClass::kIN,
                         dns::Ttl::of_seconds(static_cast<std::int64_t>(rng.below(600) + 1)));
        rrset.add(dns::ARdata{
            dns::Ipv4{static_cast<std::uint32_t>(rng.next())}});
        const auto credibility =
            rng.below(2) == 0 ? cache::Credibility::kAuthAnswer
                              : cache::Credibility::kGlue;
        cache.insert(rrset, credibility, now);
        break;
      }
      case 4: {  // negative insert
        cache.insert_negative(name, RRType::kTXT, dns::Rcode::kNXDomain,
                              dns::Ttl::of_seconds(static_cast<std::int64_t>(rng.below(300) + 1)), now);
        break;
      }
      case 5:
      case 6:  // lookups (count down TTLs, touch stale paths)
        cache.lookup(name, RRType::kA, now, rng.below(2) == 0);
        break;
      case 7:
        cache.evict(name, RRType::kA);
        break;
      case 8:
        cache.purge_expired(now);
        break;
      case 9:
        if (rng.below(50) == 0) {
          cache.clear();
        }
        break;
    }
    if (op % 128 == 0) {
      EXPECT_NO_THROW(cache.validate()) << "op " << op;
    }
  }
  EXPECT_NO_THROW(cache.validate());
}

TEST(CacheAudit, TombstoneChurnKeepsProbeChainsReachable) {
  cache::Cache cache;
  sim::Time now{};
  // Insert/evict waves force tombstones and rehash-on-grow; every entry
  // that should be present must remain reachable through its probe chain —
  // exactly what Table::validate() re-probes for.
  for (int wave = 0; wave < 8; ++wave) {
    for (std::uint64_t i = 0; i < 256; ++i) {
      dns::RRset rrset(numbered_name(i), dns::RClass::kIN, dns::Ttl{300});
      rrset.add(dns::ARdata{dns::Ipv4{static_cast<std::uint32_t>(i)}});
      cache.insert(rrset, cache::Credibility::kAuthAnswer, now);
    }
    for (std::uint64_t i = 0; i < 256; i += 2) {
      cache.evict(numbered_name(i), RRType::kA);
    }
    EXPECT_NO_THROW(cache.validate()) << "wave " << wave;
    now += 60 * sim::kSecond;
  }
}

TEST(CacheAudit, BoundedChurnStaysConsistentUnderEveryPolicy) {
  // The bounded cache threads a recency chain through the open-addressing
  // slots and keeps per-entry frequency counters; validate() re-walks the
  // chain against the tables and re-checks touch-order monotonicity and
  // freq >= 1 after every halving.  Churn a tiny cache (capacity 12, far
  // below the 300-name pool) through mixed traffic under each policy so
  // eviction runs constantly while the chain is audited mid-stream.
  for (const auto policy :
       {cache::EvictionPolicy::kLru, cache::EvictionPolicy::kLfu,
        cache::EvictionPolicy::kTtlAware}) {
    cache::Cache::Config config;
    config.max_entries = 12;
    config.policy = policy;
    config.lfu_halving_period = 64;  // force several decay sweeps
    cache::Cache cache(config);
    Lcg rng(0xb0b + static_cast<std::uint64_t>(policy));
    sim::Time now{};

    for (int op = 0; op < 3000; ++op) {
      now += sim::seconds(static_cast<std::int64_t>(rng.below(3)));
      const Name name = numbered_name(rng.below(300));
      switch (rng.below(8)) {
        case 0:
        case 1:
        case 2: {  // positive insert — each one may evict
          dns::RRset rrset(name, dns::RClass::kIN,
                           dns::Ttl::of_seconds(
                               static_cast<std::int64_t>(rng.below(120) + 1)));
          rrset.add(dns::ARdata{
              dns::Ipv4{static_cast<std::uint32_t>(rng.next())}});
          cache.insert(rrset, cache::Credibility::kAuthAnswer, now);
          break;
        }
        case 3:  // negative insert competes for the same capacity
          cache.insert_negative(name, RRType::kAAAA, dns::Rcode::kNXDomain,
                                dns::Ttl::of_seconds(static_cast<std::int64_t>(
                                    rng.below(60) + 1)),
                                now);
          break;
        case 4:
        case 5:  // hits bump freq and rewire the chain head
          cache.lookup(name, RRType::kA, now);
          break;
        case 6:
          cache.lookup_negative(name, RRType::kAAAA, now);
          break;
        case 7:
          cache.purge_expired(now);
          break;
      }
      ASSERT_LE(cache.size() + cache.negative_size(), config.max_entries)
          << cache::to_string(policy) << " op " << op;
      if (op % 64 == 0) {
        EXPECT_NO_THROW(cache.validate())
            << cache::to_string(policy) << " op " << op;
      }
    }
    EXPECT_NO_THROW(cache.validate()) << cache::to_string(policy);
    EXPECT_GT(cache.stats().capacity_evictions, 0u)
        << cache::to_string(policy);
  }
}

TEST(CacheAudit, SnapshotRestoreRoundTripValidatesMidChurn) {
  // Snapshot/restore must hand back a structure the deep audit accepts at
  // any point in a churn stream, and the restored copy must keep passing
  // audits as churn continues.
  cache::Cache::Config config;
  config.max_entries = 16;
  config.policy = cache::EvictionPolicy::kLfu;
  config.lfu_halving_period = 32;
  cache::Cache cache(config);
  Lcg rng(0x5a95);
  sim::Time now{};

  for (int op = 0; op < 1200; ++op) {
    now += sim::seconds(static_cast<std::int64_t>(rng.below(2) + 1));
    const Name name = numbered_name(rng.below(64));
    dns::RRset rrset(name, dns::RClass::kIN,
                     dns::Ttl::of_seconds(
                         static_cast<std::int64_t>(rng.below(90) + 1)));
    rrset.add(dns::ARdata{dns::Ipv4{static_cast<std::uint32_t>(rng.next())}});
    cache.insert(rrset, cache::Credibility::kAuthAnswer, now);
    cache.lookup(numbered_name(rng.below(64)), RRType::kA, now);
    if (op % 200 == 199) {
      cache::Cache restored;
      ASSERT_NO_THROW(restored.restore(cache.snapshot())) << "op " << op;
      EXPECT_NO_THROW(restored.validate()) << "op " << op;
      cache = std::move(restored);  // keep churning the restored copy
    }
  }
  EXPECT_NO_THROW(cache.validate());
}

TEST(CacheAudit, SimulationHookAuditsCacheDuringRun) {
  // The intended wiring: an experiment registers its caches as audit hooks
  // so cross-structure state is checked while events drain.
  sim::Simulation sim;
  cache::Cache cache;
  sim.set_audit_interval(8);
  sim.add_audit_hook([&cache] { cache.validate(); });

  Lcg rng(0x417);
  for (int i = 0; i < 100; ++i) {
    const sim::Duration at =
        sim::seconds(static_cast<std::int64_t>(i + 1));
    const std::uint64_t serial = rng.below(40);
    sim.schedule_after(at, [&cache, &sim, serial] {
      dns::RRset rrset(numbered_name(serial), dns::RClass::kIN, dns::Ttl{120});
      rrset.add(dns::ARdata{dns::Ipv4{static_cast<std::uint32_t>(serial)}});
      cache.insert(rrset, cache::Credibility::kAuthAnswer, sim.now());
      cache.purge_expired(sim.now());
    });
  }
  EXPECT_NO_THROW(sim.run());
  EXPECT_NO_THROW(cache.validate());
}

TEST(CacheAudit, BorrowedHitEndsAtTheNextInsertOrRemoval) {
  // A hit borrows its entry's RRset.  Every call that inserts or removes
  // entries ends the loan, and audit builds refuse to read the hit after
  // one; lookups only update recency, which moves nothing.  Other builds
  // run no check, and a read after the loan ends is invalid there, so
  // they stop at the reads before the mutation.
  const Name held = numbered_name(1);
  const Name other = numbered_name(2);
  auto a_set = [](const Name& name, dns::Ttl ttl) {
    dns::RRset rrset(name, dns::RClass::kIN, ttl);
    rrset.add(dns::ARdata{dns::Ipv4{static_cast<std::uint32_t>(name.hash())}});
    return rrset;
  };
  const std::vector<std::pair<std::string, std::function<void(cache::Cache&)>>>
      mutations = {
          {"insert",
           [&](cache::Cache& cache) {
             cache.insert(a_set(other, dns::Ttl{600}),
                          cache::Credibility::kAuthAnswer, sim::Time{});
           }},
          {"insert_negative",
           [](cache::Cache& cache) {
             cache.insert_negative(numbered_name(3), RRType::kA,
                                   dns::Rcode::kNXDomain, dns::Ttl{60},
                                   sim::Time{});
           }},
          {"evict",
           [&](cache::Cache& cache) { cache.evict(other, RRType::kA); }},
          {"purge_expired",
           [](cache::Cache& cache) { cache.purge_expired(sim::Time{}); }},
          {"clear", [](cache::Cache& cache) { cache.clear(); }},
          {"restore",
           [](cache::Cache& cache) { cache.restore(cache.snapshot()); }},
      };
  for (const auto& [what, mutate] : mutations) {
    cache::Cache cache;
    cache.insert(a_set(held, dns::Ttl{300}), cache::Credibility::kAuthAnswer,
                 sim::Time{});
    cache.insert(a_set(other, dns::Ttl{300}),
                 cache::Credibility::kAuthAnswer, sim::Time{});
    const auto hit = cache.lookup(held, RRType::kA, sim::Time{});
    ASSERT_TRUE(hit.has_value());
    cache.lookup(other, RRType::kA, sim::Time{});
    cache.lookup(held, RRType::kA, sim::Time{});
    cache.lookup_negative(numbered_name(3), RRType::kA, sim::Time{});
    EXPECT_EQ(hit->rrset().name(), held) << "after lookups, before " << what;
    mutate(cache);
    if constexpr (check::kAuditEnabled) {
      EXPECT_THROW(hit->rrset(), check::AuditError) << what;
    }
  }
}

// ------------------------------------------------------------------ dns::Name

TEST(NameAudit, ConstructionPathsAllValidate) {
  EXPECT_NO_THROW(Name().validate());
  EXPECT_NO_THROW(Name::from_string("WWW.Example.COM.").validate());
  EXPECT_NO_THROW(Name({"a", "b", "c"}).validate());

  const Name base = Name::from_string("example.org.");
  EXPECT_NO_THROW(base.prepend("www").validate());
  EXPECT_NO_THROW(base.parent().validate());
  EXPECT_NO_THROW(base.suffix(1).validate());

  // Maximum-size labels and names must pass, one octet more must never
  // construct (so validate() can assume the limits hold).
  const std::string label63(63, 'a');
  EXPECT_NO_THROW(Name({label63}).validate());
  EXPECT_THROW(Name({label63 + "a"}), std::invalid_argument);
}

TEST(NameAudit, HashAgreesAcrossConstructionRoutes) {
  // validate() recomputes the incremental FNV-1a hash from scratch; these
  // pairs double-check the same property across independent routes.
  const Name a = Name::from_string("www.example.com.");
  const Name b = Name::from_string("example.com.").prepend("www");
  const Name c = Name({"www", "example", "com"});
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a.hash(), c.hash());
  EXPECT_NO_THROW(a.validate());
  EXPECT_NO_THROW(b.validate());
  EXPECT_NO_THROW(c.validate());
}

TEST(NameAudit, CaseFoldingPreservesValidity) {
  const Name upper = Name::from_string("MiXeD.CaSe.ORG.");
  const Name lower = Name::from_string("mixed.case.org.");
  EXPECT_EQ(upper, lower);
  EXPECT_EQ(upper.hash(), lower.hash());
  EXPECT_NO_THROW(upper.validate());
}

// ------------------------------------------------------------------ dns::Zone

/// The zone as a flat RRset list, with the RFC 1034 §4.3.2 lookup done by
/// linear scans: the brute-force oracle the hash-indexed Zone must match.
class FlatZone {
 public:
  explicit FlatZone(Name origin) : origin_(std::move(origin)) {}

  std::vector<dns::RRset>& sets() { return sets_; }

  dns::RRset* find(const Name& name, RRType type) {
    for (auto& set : sets_) {
      if (set.name() == name && set.type() == type) return &set;
    }
    return nullptr;
  }
  const dns::RRset* find(const Name& name, RRType type) const {
    for (const auto& set : sets_) {
      if (set.name() == name && set.type() == type) return &set;
    }
    return nullptr;
  }

  void add(const dns::ResourceRecord& rr) {
    dns::RRset* set = find(rr.name, rr.type());
    if (set == nullptr) {
      sets_.emplace_back(rr.name, rr.rclass, rr.ttl);
      set = &sets_.back();
    }
    set->set_ttl(rr.ttl);
    set->add(rr.rdata);
  }
  void replace(const dns::RRset& rrset) {
    if (dns::RRset* set = find(rrset.name(), rrset.type())) {
      *set = rrset;
    } else {
      sets_.push_back(rrset);
    }
  }
  bool remove(const Name& name, RRType type) {
    auto it = std::find_if(sets_.begin(), sets_.end(), [&](const auto& set) {
      return set.name() == name && set.type() == type;
    });
    if (it == sets_.end()) return false;
    sets_.erase(it);
    return true;
  }

  std::vector<dns::RRset> sorted() const {
    std::vector<dns::RRset> out = sets_;
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      if (auto cmp = a.name() <=> b.name(); cmp != 0) return cmp < 0;
      return a.type() < b.type();
    });
    return out;
  }

  dns::LookupResult lookup(const Name& qname, RRType qtype,
                           int cname_depth = 0) const {
    using Kind = dns::LookupResult::Kind;
    dns::LookupResult result;
    if (!qname.is_subdomain_of(origin_)) {
      result.kind = Kind::kNotInZone;
      return result;
    }
    for (std::size_t depth = origin_.label_count() + 1;
         depth <= qname.label_count(); ++depth) {
      if (const auto* ns = find(qname.suffix(depth), RRType::kNS)) {
        result.kind = Kind::kDelegation;
        result.authorities = ns->to_records();
        glue(result.authorities, result.additionals);
        return result;
      }
    }
    result.authoritative = true;
    std::vector<const dns::RRset*> here;
    for (const auto& set : sets_) {
      if (set.name() == qname) here.push_back(&set);
    }
    std::sort(here.begin(), here.end(),
              [](const auto* a, const auto* b) {
                return a->type() < b->type();
              });
    if (here.empty()) {
      const bool below =
          std::any_of(sets_.begin(), sets_.end(), [&](const auto& set) {
            return set.name().is_strict_subdomain_of(qname);
          });
      result.kind = below ? Kind::kNoData : Kind::kNxDomain;
      soa(result.authorities);
      return result;
    }
    const auto* cname = find(qname, RRType::kCNAME);
    if (cname != nullptr && qtype != RRType::kCNAME && qtype != RRType::kANY) {
      result.kind = Kind::kAnswer;
      result.answers = cname->to_records();
      const Name& target = std::get<dns::CnameRdata>(cname->rdatas()[0]).target;
      if (cname_depth < 8 && target.is_subdomain_of(origin_) &&
          target != qname) {
        for (auto& rr : lookup(target, qtype, cname_depth + 1).answers) {
          result.answers.push_back(rr);
        }
      }
      return result;
    }
    if (qtype == RRType::kANY) {
      result.kind = Kind::kAnswer;
      for (const auto* set : here) {
        for (auto& rr : set->to_records()) result.answers.push_back(rr);
      }
      return result;
    }
    const auto* set = find(qname, qtype);
    if (set == nullptr) {
      result.kind = Kind::kNoData;
      soa(result.authorities);
      return result;
    }
    result.kind = Kind::kAnswer;
    result.answers = set->to_records();
    const auto* sigs = find(qname, RRType::kRRSIG);
    if (qtype != RRType::kRRSIG && sigs != nullptr) {
      for (const auto& rdata : sigs->rdatas()) {
        if (std::get<dns::Shared<dns::RrsigRdata>>(rdata)->type_covered ==
            qtype) {
          result.answers.push_back({qname, sigs->rclass(), sigs->ttl(), rdata});
        }
      }
    }
    if (qtype == RRType::kNS) {
      glue(result.answers, result.additionals);
    } else if (qtype == RRType::kMX) {
      for (const auto& rr : result.answers) {
        if (rr.type() != RRType::kMX) continue;
        addresses(std::get<dns::MxRdata>(rr.rdata).exchange,
                  result.additionals);
      }
    }
    return result;
  }

 private:
  void addresses(const Name& target,
                 std::vector<dns::ResourceRecord>& out) const {
    if (!target.is_subdomain_of(origin_)) return;
    for (RRType type : {RRType::kA, RRType::kAAAA}) {
      if (const auto* set = find(target, type)) {
        for (auto& rr : set->to_records()) out.push_back(rr);
      }
    }
  }
  void glue(const std::vector<dns::ResourceRecord>& ns,
            std::vector<dns::ResourceRecord>& out) const {
    for (const auto& rr : ns) {
      if (rr.type() == RRType::kNS) {
        addresses(std::get<dns::NsRdata>(rr.rdata).nsdname, out);
      }
    }
  }
  void soa(std::vector<dns::ResourceRecord>& out) const {
    if (const auto* set = find(origin_, RRType::kSOA)) {
      out.push_back(set->to_records().front());
    }
  }

  Name origin_;
  std::vector<dns::RRset> sets_;
};

void expect_same_result(const dns::LookupResult& got,
                        const dns::LookupResult& want) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.authoritative, want.authoritative);
  EXPECT_EQ(got.answers, want.answers);
  EXPECT_EQ(got.authorities, want.authorities);
  EXPECT_EQ(got.additionals, want.additionals);
}

TEST(ZoneAudit, RandomizedEditsMatchBruteForceOracle) {
  const Name origin = Name::from_string("example.org");
  auto at = [&origin](const std::string& relative) {
    return relative.empty() ? origin
                            : Name::from_string(relative + ".example.org");
  };
  // Owners: the apex, a delegation (sub) with in-bailiwick glue below its
  // cut, empty non-terminals above a.b/c.b and deep.x.y, CNAME chains and
  // loops through the CNAME targets, MX and NS targets in and out of the
  // zone.  Probes add names that never hold data and a foreign name.
  std::vector<Name> owners;
  for (const char* relative :
       {"", "www", "a.b", "c.b", "b", "deep.x.y", "mail", "sub", "ns1.sub",
        "host.sub", "alias", "loop1", "loop2", "ns"}) {
    owners.push_back(at(relative));
  }
  std::vector<Name> probes = owners;
  for (const char* relative : {"x.y", "nope", "z.a.b", "q.host.sub"}) {
    probes.push_back(at(relative));
  }
  probes.push_back(Name::from_string("example.com"));
  const std::vector<Name> targets = {
      at("ns"),    at("ns1.sub"), at("www"),  at("alias"),
      at("loop1"), at("loop2"),   at("mail"),
      Name::from_string("ns.other.net")};
  const std::vector<RRType> types = {RRType::kA,     RRType::kAAAA,
                                     RRType::kNS,    RRType::kMX,
                                     RRType::kCNAME, RRType::kTXT,
                                     RRType::kRRSIG, RRType::kSOA};
  const std::vector<RRType> probe_types = {
      RRType::kA,   RRType::kAAAA, RRType::kNS,    RRType::kMX,  RRType::kCNAME,
      RRType::kTXT, RRType::kSOA,  RRType::kRRSIG, RRType::kANY};

  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Lcg rng(seed);
    dns::Zone zone{origin};
    FlatZone oracle{origin};
    auto pick_owner = [&] { return owners[rng.below(owners.size())]; };
    auto pick_type = [&] { return types[rng.below(types.size())]; };
    auto record = [&](const Name& owner, RRType type) {
      const dns::Ttl ttl{static_cast<std::uint32_t>(60 + 60 * rng.below(4))};
      const Name& target = targets[rng.below(targets.size())];
      const auto n = static_cast<std::uint8_t>(rng.below(3));
      switch (type) {
        case RRType::kA:
          return dns::make_a(owner, ttl, dns::Ipv4(10, 0, 0, n));
        case RRType::kAAAA:
          return dns::make_aaaa(owner, ttl,
                                dns::Ipv6::from_string("2001:db8::" +
                                                       std::to_string(n)));
        case RRType::kNS:
          return dns::make_ns(owner, ttl, target);
        case RRType::kMX:
          return dns::make_mx(owner, ttl, n, target);
        case RRType::kCNAME:
          return dns::make_cname(owner, ttl, target);
        case RRType::kTXT:
          return dns::make_txt(owner, ttl, "t" + std::to_string(n));
        case RRType::kRRSIG: {
          dns::RrsigRdata sig;
          sig.type_covered = n == 0 ? RRType::kA : RRType::kMX;
          sig.signer = origin;
          sig.signature = "s" + std::to_string(n);
          return dns::ResourceRecord{owner, dns::RClass::kIN, ttl, sig};
        }
        default:  // SOA lives at the apex only
          return dns::make_soa(origin, ttl, at("ns"), n);
      }
    };

    for (int op = 0; op < 250; ++op) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " op " +
                   std::to_string(op));
      const Name owner = pick_owner();
      const RRType type = pick_type();
      switch (rng.below(12)) {
        case 0:
        case 1:
        case 2:
        case 3:
        case 4: {
          const auto rr = record(owner, type);
          zone.add(rr);
          oracle.add(rr);
          break;
        }
        case 5: {
          auto first = record(owner, type);
          dns::RRset set(first.name, first.rclass, first.ttl);
          set.add(first.rdata);
          set.add(record(owner, type).rdata);
          zone.replace(set);
          oracle.replace(set);
          break;
        }
        case 6:
        case 7:
          EXPECT_EQ(zone.remove(owner, type), oracle.remove(owner, type));
          break;
        case 8: {
          const dns::Ttl ttl{static_cast<std::uint32_t>(rng.below(1000))};
          dns::RRset* set = oracle.find(owner, type);
          if (set != nullptr) set->set_ttl(ttl);
          EXPECT_EQ(zone.set_ttl(owner, type, ttl), set != nullptr);
          break;
        }
        case 9:
        case 10: {
          const dns::Ipv4 address(10, 9, 9, static_cast<std::uint8_t>(op));
          dns::RRset* set = oracle.find(owner, RRType::kA);
          if (set != nullptr) {
            dns::RRset fresh(owner, set->rclass(), set->ttl());
            fresh.add(dns::ARdata{address});
            *set = fresh;
          }
          EXPECT_EQ(zone.renumber_a(owner, address), set != nullptr);
          break;
        }
        default:
          if (rng.below(4) == 0) {
            zone.clear();
            oracle.sets().clear();
          }
          break;
      }
      ASSERT_NO_THROW(zone.validate());
      ASSERT_EQ(zone.rrset_count(), oracle.sets().size());
      ASSERT_EQ(zone.all_rrsets(), oracle.sorted());
      for (const Name& qname : probes) {
        for (RRType qtype : probe_types) {
          SCOPED_TRACE(qname.to_string() + " " +
                       std::string(dns::to_string(qtype)));
          expect_same_result(zone.lookup(qname, qtype),
                             oracle.lookup(qname, qtype));
        }
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace dnsttl
