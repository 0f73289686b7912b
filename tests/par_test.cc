// Tests for the deterministic parallel execution layer (src/par) and the
// sharded experiment harness built on it (src/core/sharded.h): shard
// exception semantics, fold_shards' fold order and bound, map_shards /
// map_grid result order, Rng::fork
// stream independence, and — the contract everything else rests on —
// byte-identical experiment output at --jobs 1 and --jobs 4.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <latch>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "atlas/measurement.h"
#include "atlas/platform.h"
#include "core/sharded.h"
#include "core/world.h"
#include "crawl/engine.h"
#include "par/pool.h"
#include "sim/rng.h"

namespace dnsttl {
namespace {

// --------------------------------------------------- parallel_for_shards

TEST(ParallelForShardsTest, RunsEveryShardExactlyOnce) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::atomic<int>> hits(16);
    par::parallel_for_shards(16, jobs, [&](std::size_t shard) {
      hits[shard].fetch_add(1);
    });
    for (const auto& hit : hits) {
      EXPECT_EQ(hit.load(), 1);
    }
  }
}

TEST(ParallelForShardsTest, RethrowsLowestIndexedFailure) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    std::atomic<int> ran{0};
    try {
      par::parallel_for_shards(8, jobs, [&](std::size_t shard) {
        ran.fetch_add(1);
        if (shard == 3 || shard == 5) {
          throw std::runtime_error("shard " + std::to_string(shard));
        }
      });
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& error) {
      // Both shards throw, and every shard still runs; the rethrown
      // exception is deterministically the lowest-indexed one.
      EXPECT_STREQ(error.what(), "shard 3");
    }
    EXPECT_EQ(ran.load(), 8);
  }
}

TEST(ParallelForShardsTest, MapShardsReturnsResultsInShardOrder) {
  auto results = par::map_shards(
      12, 4, [](std::size_t shard) { return shard * 10; });
  ASSERT_EQ(results.size(), 12u);
  for (std::size_t shard = 0; shard < 12; ++shard) {
    EXPECT_EQ(results[shard], shard * 10);
  }
}

// ------------------------------------------------------------ fold_shards

TEST(FoldShardsTest, FoldsInShardOrderWhenShardsFinishOutOfOrder) {
  constexpr std::size_t kShards = 12;
  for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    // At jobs > 1 shard 0 finishes after the last shard: it waits until
    // that shard, claimed after every other one, has finished.
    std::latch last_shard_ran(1);
    std::atomic<std::size_t> finished{0};
    std::vector<std::size_t> finish_rank(kShards);
    std::vector<std::size_t> folds;  // fold_shards serializes the folds
    par::fold_shards(
        kShards, jobs,
        [&](std::size_t shard) {
          if (jobs > 1 && shard == 0) last_shard_ran.wait();
          finish_rank[shard] = finished.fetch_add(1);
          if (shard == kShards - 1) last_shard_ran.count_down();
          return shard * 10;
        },
        [&](std::size_t shard, std::size_t&& result) {
          EXPECT_EQ(result, shard * 10);
          folds.push_back(shard);
        });
    std::vector<std::size_t> in_order(kShards);
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      in_order[shard] = shard;
    }
    EXPECT_EQ(folds, in_order) << "jobs " << jobs;
    EXPECT_EQ(finish_rank[0] > finish_rank[kShards - 1], jobs > 1)
        << "jobs " << jobs;
  }
}

/// A shard result that counts how many of its kind are alive.
struct LiveResult {
  static inline std::atomic<int> live{0};
  LiveResult() { ++live; }
  LiveResult(LiveResult&&) noexcept { ++live; }
  LiveResult(const LiveResult&) = delete;
  LiveResult& operator=(const LiveResult&) = delete;
  ~LiveResult() { --live; }
};

TEST(FoldShardsTest, HoldsOneUnfoldedResultAtJobs1) {
  int most_alive = 0;
  int folds = 0;
  par::fold_shards(
      16, 1,
      [&](std::size_t) {
        // Every earlier result is folded and gone before the next map.
        EXPECT_EQ(LiveResult::live.load(), 0);
        return LiveResult{};
      },
      [&](std::size_t, LiveResult&&) {
        most_alive = std::max(most_alive, LiveResult::live.load());
        ++folds;
      });
  EXPECT_EQ(folds, 16);
  EXPECT_EQ(most_alive, 1);
  EXPECT_EQ(LiveResult::live.load(), 0);
}

TEST(FoldShardsTest, AFailureStopsTheFoldAndTheLowestIsRethrown) {
  constexpr std::size_t kShards = 8;
  for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::vector<std::atomic<int>> mapped(kShards);
    std::vector<int> folded(kShards, 0);  // fold_shards serializes the folds
    try {
      par::fold_shards(
          kShards, jobs,
          [&](std::size_t shard) {
            mapped[shard].fetch_add(1);
            if (shard == 5) throw std::runtime_error("map 5");
            return shard;
          },
          [&](std::size_t shard, std::size_t&&) {
            ++folded[shard];
            if (shard == 3) throw std::runtime_error("fold 3");
          });
      FAIL() << "expected a rethrow at jobs " << jobs;
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "fold 3") << "jobs " << jobs;
    }
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      EXPECT_EQ(mapped[shard].load(), 1) << "shard " << shard;  // all ran
      EXPECT_EQ(folded[shard], shard <= 3 ? 1 : 0)
          << "shard " << shard << " jobs " << jobs;
    }
  }
}

// ---------------------------------------------------------------- map_grid

TEST(MapGridTest, MatchesTheHandNestedLoopAtAnyJobs) {
  const std::vector<int> ttls = {60, 300, 3600};
  const std::vector<bool> stale = {false, true};
  const std::vector<std::string> policies = {"lru", "lfu", "ttl", "fifo"};
  const auto point = [](int ttl, bool serve_stale, const std::string& policy) {
    return std::to_string(ttl) + (serve_stale ? "+" : "-") + policy;
  };
  std::vector<std::string> nested;
  for (int ttl : ttls) {
    for (bool serve_stale : stale) {
      for (const std::string& policy : policies) {
        nested.push_back(point(ttl, serve_stale, policy));
      }
    }
  }
  ASSERT_EQ(nested.size(), 24u);
  EXPECT_EQ(par::map_grid(1, point, ttls, stale, policies), nested);
  EXPECT_EQ(par::map_grid(4, point, ttls, stale, policies), nested);
}

TEST(MapGridTest, EmptyAxisYieldsAnEmptyResult) {
  std::atomic<int> calls{0};
  const auto count = [&calls](int, int) { return calls.fetch_add(1); };
  EXPECT_TRUE(par::map_grid(4, count, std::vector<int>{1, 2, 3},
                            std::vector<int>{})
                  .empty());
  EXPECT_EQ(calls.load(), 0);
}

TEST(MapGridTest, RethrowsLowestIndexedFailingPoint) {
  const std::vector<int> rows = {0, 1, 2};
  const std::vector<int> cols = {0, 1, 2, 3};
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    std::atomic<int> ran{0};
    try {
      par::map_grid(
          jobs,
          [&](int row, int col) {
            ran.fetch_add(1);
            if ((row == 1 && col == 2) || (row == 2 && col == 0)) {
              throw std::runtime_error(std::to_string(row) + "," +
                                       std::to_string(col));
            }
            return row * 10 + col;
          },
          rows, cols);
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "1,2");  // point 6 precedes point 8
    }
    EXPECT_EQ(ran.load(), 12);
  }
}

TEST(ShardCountTest, IsAPureFunctionOfTheWorkload) {
  EXPECT_EQ(par::shard_count_for(0), 1u);
  EXPECT_EQ(par::shard_count_for(1), 1u);
  EXPECT_EQ(par::shard_count_for(100000), 16u);  // clamped
  EXPECT_LE(par::shard_count_for(2048), 16u);
  // Same workload, same shards — never a function of jobs or hardware.
  for (std::size_t items : {std::size_t{7}, std::size_t{512},
                            std::size_t{9999}}) {
    EXPECT_EQ(par::shard_count_for(items), par::shard_count_for(items));
  }
}

// ----------------------------------------------------------- Rng::fork

TEST(RngForkTest, ForkedStreamsAreStableAndDistinct) {
  sim::Rng rng(1);
  auto a1 = rng.fork(7);
  auto a2 = rng.fork(7);
  auto b = rng.fork(8);
  bool any_differ = false;
  for (int i = 0; i < 256; ++i) {
    auto va = a1.next();
    EXPECT_EQ(va, a2.next());  // same stream id → same sequence
    any_differ = any_differ || va != b.next();
  }
  EXPECT_TRUE(any_differ);  // different stream ids → different sequences
}

TEST(RngForkTest, ForkedStreamsAreStatisticallyIndependent) {
  sim::Rng rng(42);
  auto a = rng.fork(1);
  auto b = rng.fork(2);
  constexpr int kN = 20000;
  double mean_a = 0, mean_b = 0;
  std::vector<double> xs(kN), ys(kN);
  for (int i = 0; i < kN; ++i) {
    xs[static_cast<std::size_t>(i)] = a.uniform();
    ys[static_cast<std::size_t>(i)] = b.uniform();
    mean_a += xs[static_cast<std::size_t>(i)];
    mean_b += ys[static_cast<std::size_t>(i)];
  }
  mean_a /= kN;
  mean_b /= kN;
  EXPECT_NEAR(mean_a, 0.5, 0.02);
  EXPECT_NEAR(mean_b, 0.5, 0.02);
  double cov = 0, var_a = 0, var_b = 0;
  for (int i = 0; i < kN; ++i) {
    double dx = xs[static_cast<std::size_t>(i)] - mean_a;
    double dy = ys[static_cast<std::size_t>(i)] - mean_b;
    cov += dx * dy;
    var_a += dx * dx;
    var_b += dy * dy;
  }
  double correlation = cov / std::sqrt(var_a * var_b);
  EXPECT_LT(std::abs(correlation), 0.05);
}

// ------------------------------------- end-to-end sharded determinism

core::EnvFactory tld_factory() {
  return [] {
    core::ShardEnv env;
    env.world = std::make_unique<core::World>(
        core::World::Options{1, 0.002, {}});
    env.world->add_tld("example", "a.nic", dns::kTtl2Days, dns::kTtl5Min,
                       dns::Ttl{120}, net::Location{net::Region::kEU, 1.0});
    atlas::PlatformSpec spec;
    spec.probe_count = 120;
    spec.resolver_count = 80;
    env.platform = std::make_unique<atlas::Platform>(atlas::Platform::build(
        env.world->network(), env.world->hints(), env.world->root_zone(),
        spec, env.world->rng()));
    return env;
  };
}

std::vector<atlas::MeasurementRun> run_measurement_at(std::size_t jobs) {
  core::ShardScript script = [](core::ShardEnv& env, std::size_t index,
                                std::size_t count) {
    atlas::MeasurementSpec spec;
    spec.name = "par-test";
    spec.qname = dns::Name::from_string("example");
    spec.qtype = dns::RRType::kNS;
    spec.duration = sim::kHour;
    spec.shard_count = count;
    spec.shard_index = index;
    return std::vector<atlas::MeasurementRun>{atlas::MeasurementRun::execute(
        env.world->simulation(), env.world->network(), *env.platform, spec,
        env.world->rng())};
  };
  return core::run_sharded_script(tld_factory(), 4, jobs, script);
}

void expect_same_samples(const atlas::MeasurementRun& a,
                         const atlas::MeasurementRun& b) {
  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (std::size_t i = 0; i < a.samples().size(); ++i) {
    const auto& x = a.samples()[i];
    const auto& y = b.samples()[i];
    EXPECT_EQ(x.probe_id, y.probe_id);
    EXPECT_EQ(x.sent, y.sent);
    EXPECT_EQ(x.rtt, y.rtt);
    EXPECT_EQ(x.timeout, y.timeout);
    EXPECT_EQ(x.rcode, y.rcode);
    EXPECT_EQ(x.has_answer, y.has_answer);
    EXPECT_EQ(x.ttl, y.ttl);
    EXPECT_EQ(x.rdata, y.rdata);
  }
}

TEST(ShardedDeterminismTest, MeasurementRunIdenticalAtJobs1And4) {
  auto serial = run_measurement_at(1);
  auto parallel = run_measurement_at(4);
  ASSERT_EQ(serial.size(), 1u);
  ASSERT_EQ(parallel.size(), 1u);
  EXPECT_GT(serial[0].samples().size(), 0u);
  expect_same_samples(serial[0], parallel[0]);
}

void expect_same_report(const crawl::CrawlReport& a,
                        const crawl::CrawlReport& b) {
  EXPECT_EQ(a.domains, b.domains);
  EXPECT_EQ(a.responsive, b.responsive);
  ASSERT_EQ(a.by_type.size(), b.by_type.size());
  for (const auto& [type, tally] : a.by_type) {
    const auto& other = b.by_type.at(type);
    EXPECT_EQ(tally.records, other.records);
    EXPECT_EQ(tally.unique_values, other.unique_values);
    EXPECT_EQ(tally.ttl_zero_domain_count, other.ttl_zero_domain_count);
    EXPECT_EQ(tally.ttl_cdf.runs(), other.ttl_cdf.runs());
  }
  EXPECT_EQ(a.bailiwick.responsive, b.bailiwick.responsive);
  EXPECT_EQ(a.bailiwick.respond_ns, b.bailiwick.respond_ns);
  EXPECT_EQ(a.bailiwick.out_only, b.bailiwick.out_only);
  EXPECT_EQ(a.bailiwick.in_only, b.bailiwick.in_only);
  EXPECT_EQ(a.bailiwick.mixed, b.bailiwick.mixed);
}

TEST(ShardedDeterminismTest, CrawlIdenticalAtJobs1And4AndMatchesSerial) {
  const auto params = crawl::alexa_params(3000);
  const sim::Rng list_rng = sim::Rng(1).fork(0);
  crawl::EngineOptions options;
  options.shard_count = 4;
  options.jobs = 1;
  auto sharded_j1 = crawl::crawl_engine(params, list_rng, options).report;
  options.jobs = 4;
  auto sharded_j4 = crawl::crawl_engine(params, list_rng, options).report;
  expect_same_report(sharded_j1, sharded_j4);
  // Contiguous slices + ordered fold reproduce the one-shard crawl too.
  options.shard_count = 1;
  options.jobs = 1;
  auto serial = crawl::crawl_engine(params, list_rng, options).report;
  expect_same_report(serial, sharded_j4);
}

}  // namespace
}  // namespace dnsttl
