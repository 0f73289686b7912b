#ifndef DNSTTL_BENCH_QUICK_SUITE_H
#define DNSTTL_BENCH_QUICK_SUITE_H

// Hand-timed hot-path microbenchmarks behind `bench_micro_library`.  They
// run in a fixed, fast amount of time and report throughput numbers
// suitable for the machine-readable BENCH_*.json trajectory (see
// bench_common.h JsonReport).  They only use public library APIs, so the
// identical file can be compiled against any revision to compare builds.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "dns/name.h"
#include "dns/rr.h"
#include "par/pool.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "sim/time.h"
#include "sim/timer_wheel.h"

namespace dnsttl::bench {

struct QuickMetric {
  std::string name;        ///< e.g. "event_loop"
  std::string unit;        ///< e.g. "events/sec"
  std::uint64_t ops = 0;   ///< operations timed
  double wall_seconds = 0;
  double ops_per_sec = 0;
};

namespace detail {

inline double elapsed_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

inline QuickMetric finish(std::string name, std::string unit,
                          std::uint64_t ops,
                          std::chrono::steady_clock::time_point start) {
  QuickMetric metric;
  metric.name = std::move(name);
  metric.unit = std::move(unit);
  metric.ops = ops;
  metric.wall_seconds = elapsed_seconds(start);
  metric.ops_per_sec =
      metric.wall_seconds > 0 ? static_cast<double>(ops) / metric.wall_seconds
                              : 0.0;
  return metric;
}

}  // namespace detail

/// Event-loop throughput: a self-rescheduling event ring, the pattern every
/// experiment's probe/measurement scheduling follows.  Handler captures are
/// sized like the real measurement lambdas (several pointers + ids).
inline QuickMetric bench_event_loop(std::uint64_t total_events) {
  sim::Simulation simulation;
  std::uint64_t fired = 0;
  std::uint64_t payload_a = 1;  // padding captures: realistic handler size
  std::uint64_t payload_b = 2;
  std::uint64_t payload_c = 3;
  struct Chain {
    sim::Simulation* simulation;
    std::uint64_t* fired;
    std::uint64_t total;
    std::uint64_t* a;
    std::uint64_t* b;
    std::uint64_t* c;
    void operator()() const {
      ++*fired;
      *a ^= *b + *c;
      if (*fired + 63 < total) {
        simulation->schedule_after(sim::kMillisecond, *this);
      }
    }
  };
  auto start = std::chrono::steady_clock::now();
  for (int lane = 0; lane < 64; ++lane) {
    simulation.schedule_at(
        static_cast<sim::Time>(lane),
        Chain{&simulation, &fired, total_events, &payload_a, &payload_b,
              &payload_c});
  }
  simulation.run();
  return detail::finish("event_loop", "events/sec",
                        simulation.events_processed(), start);
}

/// Cache lookup throughput over a warm working set: the per-query probe
/// every simulated resolver pays, most often a hit.
inline QuickMetric bench_cache_lookup(std::uint64_t total_lookups) {
  cache::Cache cache;
  constexpr std::size_t kEntries = 4096;
  std::vector<dns::Name> names;
  names.reserve(kEntries);
  for (std::size_t i = 0; i < kEntries; ++i) {
    names.push_back(dns::Name::from_string(
        "host" + std::to_string(i) + ".zone" + std::to_string(i % 64) +
        ".example.org"));
  }
  for (std::size_t i = 0; i < kEntries; ++i) {
    dns::RRset rrset(names[i], dns::RClass::kIN, dns::Ttl{86400});
    rrset.add(dns::ARdata{dns::Ipv4(static_cast<std::uint32_t>(i))});
    cache.insert(rrset, cache::Credibility::kAuthAnswer, sim::Time{});
  }
  std::uint64_t hits = 0;
  auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < total_lookups; ++i) {
    auto hit = cache.lookup(names[i & (kEntries - 1)], dns::RRType::kA,
                            sim::at(sim::kSecond));
    hits += hit.has_value();
  }
  auto metric = detail::finish("cache_lookup", "lookups/sec",
                               total_lookups, start);
  if (hits != total_lookups) {
    metric.name = "cache_lookup_BROKEN";  // guard against dead-code folding
  }
  return metric;
}

/// Cache insert/expiry churn: short-TTL entries stream through the cache
/// with periodic purges, the Table 8 / TTL-0 workload shape.
inline QuickMetric bench_cache_churn(std::uint64_t total_inserts) {
  cache::Cache cache;
  constexpr std::size_t kNames = 1024;
  std::vector<dns::Name> names;
  names.reserve(kNames);
  for (std::size_t i = 0; i < kNames; ++i) {
    names.push_back(
        dns::Name::from_string("churn" + std::to_string(i) + ".example"));
  }
  sim::Time now{};
  auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < total_inserts; ++i) {
    dns::RRset rrset(names[i % kNames], dns::RClass::kIN,
                     dns::Ttl::of_seconds(static_cast<std::int64_t>(30 + i % 270)));
    rrset.add(dns::ARdata{dns::Ipv4(static_cast<std::uint32_t>(i))});
    cache.insert(rrset, cache::Credibility::kAuthAnswer, now);
    now += sim::kSecond;
    if ((i & 0x3ff) == 0x3ff) {
      cache.purge_expired(now);
    }
  }
  return detail::finish("cache_insert_churn", "inserts/sec", total_inserts,
                        start);
}

namespace detail {

/// Deterministic sub-second jitter for the dense-expiry duel: spreads an
/// actor's next due time across one second of microseconds.
inline std::int64_t dense_jitter_us(std::uint64_t actor, std::uint64_t round) {
  return static_cast<std::int64_t>(((actor * 2654435761u) ^ (round * 40503u)) %
                                   1'000'000u);
}

}  // namespace detail

/// Dense-expiry scheduling, timer-wheel side: thousands of actors each hold
/// exactly one pending timer about a second out, so whole cohorts land in
/// the same wheel slot and fire batch-wise — the workload-engine shape
/// (one arrival per stub).  Compare with sched_heap_dense below.
inline QuickMetric bench_wheel_dense(std::uint64_t total_events) {
  constexpr std::uint64_t kActors = 4096;
  sim::TimerWheel wheel;
  std::vector<std::uint64_t> rounds(kActors, 0);
  std::uint64_t seq = 0;
  auto start = std::chrono::steady_clock::now();
  for (std::uint64_t actor = 0; actor < kActors; ++actor) {
    wheel.schedule(sim::Time{} + sim::kSecond +
                       sim::microseconds(detail::dense_jitter_us(actor, 0)),
                   seq++, actor);
  }
  std::uint64_t fired = 0;
  while (fired < total_events) {
    const sim::TimerWheel::Entry entry = wheel.pop_head();
    ++fired;
    const std::uint64_t round = ++rounds[entry.payload];
    wheel.schedule(entry.at + sim::kSecond +
                       sim::microseconds(
                           detail::dense_jitter_us(entry.payload, round)),
                   seq++, entry.payload);
  }
  return detail::finish("sched_wheel_dense", "events/sec", fired, start);
}

/// Dense-expiry scheduling, Simulation-queue side: the historical
/// object-per-actor pattern — every pending arrival is its own heap record
/// plus a std::function closure.  Same arrival process as sched_wheel_dense.
inline QuickMetric bench_heap_dense(std::uint64_t total_events) {
  constexpr std::uint64_t kActors = 4096;
  sim::Simulation simulation;
  std::vector<std::uint64_t> rounds(kActors, 0);
  std::uint64_t fired = 0;
  struct Actor {
    sim::Simulation* simulation;
    std::vector<std::uint64_t>* rounds;
    std::uint64_t* fired;
    std::uint64_t total;
    std::uint64_t actor;
    void operator()() const {
      ++*fired;
      const std::uint64_t round = ++(*rounds)[actor];
      if (*fired + kActors <= total) {
        simulation->schedule_after(
            sim::kSecond +
                sim::microseconds(detail::dense_jitter_us(actor, round)),
            *this);
      }
    }
  };
  auto start = std::chrono::steady_clock::now();
  for (std::uint64_t actor = 0; actor < kActors; ++actor) {
    simulation.schedule_at(
        sim::Time{} + sim::kSecond +
            sim::microseconds(detail::dense_jitter_us(actor, 0)),
        Actor{&simulation, &rounds, &fired, total_events, actor});
  }
  simulation.run();
  return detail::finish("sched_heap_dense", "events/sec", fired, start);
}

/// Name parsing throughput (every query/record construction pays this).
inline QuickMetric bench_name_parse(std::uint64_t total_parses) {
  const std::string inputs[4] = {
      "www.example.org",
      "very.long.sub.domain.example.org",
      "a.nic.uy",
      "ns1.dns.nl",
  };
  std::size_t total_labels = 0;
  auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < total_parses; ++i) {
    total_labels += dns::Name::from_string(inputs[i & 3]).label_count();
  }
  auto metric =
      detail::finish("name_parse", "parses/sec", total_parses, start);
  if (total_labels == 0) {
    metric.name = "name_parse_BROKEN";
  }
  return metric;
}

/// Runs the whole quick suite.  @p scale stretches the iteration counts
/// (1.0 ≈ a second or two on a laptop; --quick passes 0.1).
inline std::vector<QuickMetric> run_quick_suite(double scale) {
  auto n = [scale](std::uint64_t base) {
    auto scaled = static_cast<std::uint64_t>(static_cast<double>(base) * scale);
    return scaled < 1000 ? 1000 : scaled;
  };
  std::vector<QuickMetric> metrics;
  metrics.push_back(bench_event_loop(n(4'000'000)));
  metrics.push_back(bench_wheel_dense(n(4'000'000)));
  metrics.push_back(bench_heap_dense(n(4'000'000)));
  metrics.push_back(bench_cache_lookup(n(8'000'000)));
  metrics.push_back(bench_cache_churn(n(2'000'000)));
  metrics.push_back(bench_name_parse(n(4'000'000)));
  return metrics;
}

// ---------------------------------------------------------------------------
// Experiment-suite runner (dnsttl_lab suite): schedules the independent
// experiment binaries concurrently through par::map_shards and reprints
// their captured outputs in a fixed order, so the suite's stdout is
// byte-identical at any --jobs value.
// ---------------------------------------------------------------------------

/// The 16 independent experiment binaries (bench_micro_library measures
/// the library, not the paper, and stays separate).
inline const std::vector<std::string>& experiment_binaries() {
  static const std::vector<std::string> kBinaries = {
      "bench_table1_cl",
      "bench_table2_fig1_uy",
      "bench_fig2_googleco",
      "bench_fig3_fig4_nl_passive",
      "bench_table3_4_fig678_bailiwick",
      "bench_table5_fig9_crawl",
      "bench_table6_7_dmap",
      "bench_table8_ttl0",
      "bench_table9_bailiwick_wild",
      "bench_fig10_uy_rtt",
      "bench_table10_fig11_controlled",
      "bench_ablation_policies",
      "bench_ablation_hitrate",
      "bench_extension_ddos",
      "bench_extension_parent_child",
      "bench_extra_offline_child",
  };
  return kBinaries;
}

/// One experiment binary's captured run.
struct ExperimentResult {
  std::string name;
  int exit_code = -1;
  double wall_seconds = 0;
  std::string output;  ///< stdout+stderr, verbatim
};

/// Runs one binary via the shell, capturing stdout+stderr.
inline ExperimentResult run_experiment_binary(const std::string& bin_dir,
                                              const std::string& name,
                                              const std::string& flags) {
  ExperimentResult result;
  result.name = name;
  const std::string command = bin_dir + "/" + name + " " + flags + " 2>&1";
  auto start = std::chrono::steady_clock::now();
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) {
    result.exit_code = 127;
    result.output = "cannot spawn: " + command + "\n";
    return result;
  }
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, got);
  }
  result.exit_code = ::pclose(pipe);
  result.wall_seconds = detail::elapsed_seconds(start);
  return result;
}

/// Runs every named binary with @p flags, up to @p jobs concurrently.
/// Results come back in the order of @p names regardless of completion
/// order.  Each child gets "--jobs 1" appended so inner sharding does not
/// oversubscribe the pool's workers.
inline std::vector<ExperimentResult> run_experiment_suite(
    const std::string& bin_dir, const std::vector<std::string>& names,
    const std::string& flags, std::size_t jobs) {
  return par::map_shards(names.size(), jobs, [&](std::size_t index) {
    return run_experiment_binary(bin_dir, names[index],
                                 flags + " --jobs 1");
  });
}

}  // namespace dnsttl::bench

#endif  // DNSTTL_BENCH_QUICK_SUITE_H
