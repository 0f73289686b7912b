#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/rng.h"
#include "sim/simulation.h"
#include "sim/time.h"
#include "sim/timer_wheel.h"

namespace dnsttl::sim {
namespace {

TEST(SimulationTest, RunsEventsInTimeOrder) {
  Simulation simulation;
  std::vector<int> order;
  simulation.schedule_at(sim::at(30 * kSecond), [&] { order.push_back(3); });
  simulation.schedule_at(sim::at(10 * kSecond), [&] { order.push_back(1); });
  simulation.schedule_at(sim::at(20 * kSecond), [&] { order.push_back(2); });
  simulation.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulation.now(), at(30 * kSecond));
  EXPECT_EQ(simulation.events_processed(), 3u);
}

TEST(SimulationTest, EqualTimestampsRunFifo) {
  Simulation simulation;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    simulation.schedule_at(sim::at(kSecond), [&order, i] { order.push_back(i); });
  }
  simulation.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulationTest, ScheduleAfterUsesCurrentTime) {
  Simulation simulation;
  Time observed{-1};
  simulation.schedule_at(sim::at(5 * kSecond), [&] {
    simulation.schedule_after(2 * kSecond, [&] { observed = simulation.now(); });
  });
  simulation.run();
  EXPECT_EQ(observed, at(7 * kSecond));
}

TEST(SimulationTest, RejectsSchedulingInThePast) {
  Simulation simulation;
  simulation.schedule_at(sim::at(10 * kSecond), [] {});
  simulation.run();
  EXPECT_THROW(simulation.schedule_at(sim::at(5 * kSecond), [] {}),
               std::invalid_argument);
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation simulation;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    simulation.schedule_at(sim::at(i * kMinute), [&] { ++count; });
  }
  simulation.run_until(sim::at(5 * kMinute));
  EXPECT_EQ(count, 5);
  EXPECT_EQ(simulation.now(), at(5 * kMinute));
  simulation.run();
  EXPECT_EQ(count, 10);
}

TEST(SimulationTest, EventsCanScheduleMoreEvents) {
  Simulation simulation;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) {
      simulation.schedule_after(kSecond, chain);
    }
  };
  simulation.schedule_after(kSecond, chain);
  simulation.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(simulation.now(), at(100 * kSecond));
}

// The queue recycles handler slots; recycling must never perturb the
// FIFO-at-equal-time guarantee that every experiment's determinism rests on.
TEST(SimulationTest, EqualTimestampsStayFifoAcrossSlotReuse) {
  Simulation simulation;
  std::vector<int> order;
  // Round 1 populates and frees slots 0..4.
  for (int i = 0; i < 5; ++i) {
    simulation.schedule_at(sim::at(kSecond), [&order, i] { order.push_back(i); });
  }
  simulation.run();
  // Round 2 reuses those slots (in LIFO free-list order, i.e. shuffled
  // relative to scheduling order) — execution must still be FIFO.
  for (int i = 5; i < 10; ++i) {
    simulation.schedule_at(sim::at(2 * kSecond), [&order, i] { order.push_back(i); });
  }
  simulation.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(SimulationTest, HandlersLargerThanInlineBufferWork) {
  // Captures far beyond std::function's small buffer are stored out of
  // line; they must behave like small ones, including through reschedules.
  Simulation simulation;
  struct Big {
    std::uint64_t pad[12];  // 96 bytes
  };
  auto big = std::make_shared<Big>();
  big->pad[11] = 7;
  std::uint64_t seen = 0;
  int hops = 0;
  std::function<void()> chain = [&, big] {
    seen = big->pad[11];
    if (++hops < 3) {
      simulation.schedule_after(kSecond, chain);
    }
  };
  simulation.schedule_after(kSecond, chain);
  simulation.run();
  EXPECT_EQ(hops, 3);
  EXPECT_EQ(seen, 7u);
}

// Differential stress: a randomized trace of schedules at few distinct
// times (so many tie), whose handlers schedule further events (some at the
// current instant), must fire exactly the sequence a naive oracle predicts:
// a std::map keyed on (time, schedule order).
TEST(SimulationTest, RandomizedTraceMatchesOracle) {
  constexpr int kInitial = 200;
  constexpr int kTokens = 600;
  // Whether fired token t schedules a child, and how far out: a pure
  // function of t, so the queue and the oracle make the same choices.
  const auto nests = [](int t) { return t % 3 != 2; };
  const auto child_delay = [](int t) { return ((t / 3) % 4) * kSecond; };
  Rng rng(0x5eed);
  for (int round = 0; round < 20; ++round) {
    std::vector<Time> initial;
    for (int i = 0; i < kInitial; ++i) {
      initial.push_back(sim::at(
          static_cast<std::int64_t>(rng.uniform_int(0, 50)) * kSecond));
    }

    Simulation simulation;
    std::vector<int> fired;
    int next_token = 0;
    std::function<void(int)> fire = [&](int t) {
      fired.push_back(t);
      if (nests(t) && next_token < kTokens) {
        const int child = next_token++;
        simulation.schedule_after(child_delay(t),
                                  [&fire, child] { fire(child); });
      }
    };
    for (const Time at : initial) {
      const int t = next_token++;
      simulation.schedule_at(at, [&fire, t] { fire(t); });
    }
    simulation.run();

    std::map<std::pair<Time, int>, int> oracle;  // (at, token) -> token
    int oracle_next = 0;
    for (const Time at : initial) {
      const int t = oracle_next++;
      oracle[{at, t}] = t;
    }
    std::vector<int> expected;
    while (!oracle.empty()) {
      const auto [key, t] = *oracle.begin();
      oracle.erase(oracle.begin());
      expected.push_back(t);
      if (nests(t) && oracle_next < kTokens) {
        const int child = oracle_next++;
        oracle[{key.first + child_delay(t), child}] = child;
      }
    }
    EXPECT_EQ(next_token, kTokens) << "round " << round;
    EXPECT_EQ(fired, expected) << "round " << round;
  }
}

TEST(TimerWheelTest, FiresInTimeSeqOrderAcrossLevels) {
  TimerWheel wheel;
  // Entries spanning level 0 (seconds), level 1 (hours..days) and the far
  // heap (> the ~12-day wheel span), plus an equal-time pair whose relative
  // order must come from seq.
  wheel.schedule(sim::at(30 * kDay), 0, 100);           // far heap
  wheel.schedule(sim::at(3 * kSecond), 1, 101);         // level 0
  wheel.schedule(sim::at(2 * kDay), 2, 102);            // level 1
  wheel.schedule(sim::at(3 * kSecond + Duration(1)), 3, 103);
  wheel.schedule(sim::at(3 * kSecond), 4, 104);         // equal time, later seq
  wheel.schedule(sim::at(kHour), 5, 105);               // level 1
  EXPECT_EQ(wheel.pending(), 6u);
  wheel.validate();
  std::vector<std::uint64_t> order;
  while (!wheel.empty()) {
    EXPECT_EQ(wheel.head().payload, wheel.head().payload);  // head is stable
    order.push_back(wheel.pop_head().payload);
    wheel.validate();
  }
  EXPECT_EQ(order,
            (std::vector<std::uint64_t>{101, 104, 103, 105, 102, 100}));
  EXPECT_EQ(wheel.fired(), 6u);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheelTest, ZeroGapRescheduleLandsBackInTheActiveTick) {
  TimerWheel wheel;
  wheel.schedule(sim::at(5 * kSecond), 0, 0);
  wheel.schedule(sim::at(5 * kSecond + Duration(400)), 1, 1);
  // Fire the first entry, then schedule into the still-active tick both
  // before and after the remaining entry's position.
  EXPECT_EQ(wheel.pop_head().payload, 0u);
  wheel.schedule(sim::at(5 * kSecond + Duration(200)), 2, 2);
  wheel.schedule(sim::at(5 * kSecond + Duration(600)), 3, 3);
  wheel.validate();
  EXPECT_EQ(wheel.pop_head().payload, 2u);
  EXPECT_EQ(wheel.pop_head().payload, 1u);
  // Fully drained tick: a same-tick schedule must still be accepted.
  EXPECT_EQ(wheel.pop_head().payload, 3u);
  wheel.schedule(sim::at(5 * kSecond + Duration(900)), 4, 4);
  wheel.validate();
  EXPECT_EQ(wheel.pop_head().payload, 4u);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, RejectsSchedulingIntoFiredTick) {
  TimerWheel wheel;
  wheel.schedule(sim::at(10 * kSecond), 0, 0);
  wheel.pop_head();
  wheel.schedule(sim::at(10 * kSecond), 1, 1);  // same tick: still open
  EXPECT_THROW(wheel.schedule(sim::at(3 * kSecond), 2, 2),
               std::invalid_argument);
  EXPECT_EQ(wheel.pending(), 1u);
}

TEST(TimerWheelTest, PeekingLeavesTicksOpenUntilAnEntryFiresThere) {
  TimerWheel wheel;
  wheel.schedule(sim::at(10 * kSecond), 0, 10);
  wheel.pop_head();
  wheel.schedule(sim::at(100 * kSecond), 1, 100);
  EXPECT_EQ(wheel.head().payload, 100u);  // materializes the 100 s cohort
  // Due after the fired 10 s entry, before the peeked head: merged ahead.
  wheel.schedule(sim::at(60 * kSecond), 2, 60);
  EXPECT_THROW(wheel.schedule(sim::at(5 * kSecond), 3, 5),
               std::invalid_argument);
  wheel.validate();
  EXPECT_EQ(wheel.pop_head().payload, 60u);
  EXPECT_THROW(wheel.schedule(sim::at(30 * kSecond), 4, 30),
               std::invalid_argument);
  wheel.schedule(sim::at(70 * kSecond), 5, 70);
  wheel.validate();
  EXPECT_EQ(wheel.pop_head().payload, 70u);
  EXPECT_EQ(wheel.pop_head().payload, 100u);
  EXPECT_TRUE(wheel.empty());
}

// Differential oracle: the timer wheel must fire the exact (time, seq)
// sequence Simulation's queue fires for the same trace — 5 fuzzed seeds x
// 10k events, with chained reschedules decided by an identically seeded
// stream on both sides, times spanning both wheel levels and the far heap
// (up to 40 days) at microsecond (sub-tick) granularity.
TEST(TimerWheelTest, DifferentialOracleMatchesSimulationQueue) {
  constexpr int kSeeds = 5;
  constexpr std::size_t kEvents = 10'000;
  const std::size_t kInitial = kEvents / 2;
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng trace_rng(0x77ee1000u + static_cast<std::uint64_t>(seed));
    std::vector<std::int64_t> initial_us;
    initial_us.reserve(kInitial);
    for (std::size_t i = 0; i < kInitial; ++i) {
      const double pick = trace_rng.uniform();
      std::uint64_t us = 0;
      if (pick < 0.70) {
        us = trace_rng.uniform_int(0, 2'000'000'000);  // dense: 0..2000 s
      } else if (pick < 0.90) {
        us = trace_rng.uniform_int(0, 1'100'000'000'000);  // spans level 1
      } else {
        us = trace_rng.uniform_int(0, 3'456'000'000'000);  // up to 40 days
      }
      initial_us.push_back(static_cast<std::int64_t>(us));
    }

    const std::uint64_t chain_seed = 0xc4a11000u + static_cast<std::uint64_t>(seed);
    std::vector<int> queue_fired;
    {
      Simulation simulation;
      Rng chain_rng(chain_seed);
      std::size_t scheduled = 0;
      int next_token = 0;
      std::function<void(int)> fire = [&](int token) {
        queue_fired.push_back(token);
        if (scheduled < kEvents && chain_rng.chance(0.5)) {
          const auto gap = static_cast<std::int64_t>(
              chain_rng.uniform_int(0, 3'000'000'000));  // 0..3000 s
          const Time due = simulation.now() + Duration(gap);
          const int t = next_token++;
          ++scheduled;
          simulation.schedule_at(due, [&fire, t] { fire(t); });
        }
      };
      for (const std::int64_t us : initial_us) {
        const int t = next_token++;
        ++scheduled;
        simulation.schedule_at(Time(us), [&fire, t] { fire(t); });
      }
      simulation.run();
    }

    std::vector<int> wheel_fired;
    {
      TimerWheel wheel;
      Rng chain_rng(chain_seed);
      std::uint64_t next_seq = 0;
      std::size_t scheduled = 0;
      int next_token = 0;
      for (const std::int64_t us : initial_us) {
        wheel.schedule(Time(us), next_seq++,
                       static_cast<std::uint64_t>(next_token++));
        ++scheduled;
      }
      std::size_t ops = 0;
      while (!wheel.empty()) {
        const TimerWheel::Entry entry = wheel.pop_head();
        wheel_fired.push_back(static_cast<int>(entry.payload));
        if (scheduled < kEvents && chain_rng.chance(0.5)) {
          const auto gap = static_cast<std::int64_t>(
              chain_rng.uniform_int(0, 3'000'000'000));
          wheel.schedule(entry.at + Duration(gap), next_seq++,
                         static_cast<std::uint64_t>(next_token++));
          ++scheduled;
        }
        if (++ops % 1024 == 0) {
          wheel.validate();
        }
      }
      wheel.validate();
      EXPECT_EQ(scheduled, wheel.fired());
    }
    ASSERT_EQ(wheel_fired.size(), queue_fired.size()) << "seed " << seed;
    EXPECT_EQ(wheel_fired, queue_fired) << "seed " << seed;
  }
}

TEST(SimulationSourceTest, SourceEntriesInterleaveWithHeapEvents) {
  Simulation simulation;
  TimerWheel wheel;
  std::vector<int> order;
  simulation.schedule_at(sim::at(2 * kSecond), [&] { order.push_back(2); });
  wheel.schedule(sim::at(kSecond), simulation.allocate_seq(), 1);
  wheel.schedule(sim::at(3 * kSecond), simulation.allocate_seq(), 3);
  simulation.schedule_at(sim::at(4 * kSecond), [&] { order.push_back(4); });
  // Equal-time pair: allocation order (queued event first here) decides.
  simulation.schedule_at(sim::at(5 * kSecond), [&] { order.push_back(5); });
  wheel.schedule(sim::at(5 * kSecond), simulation.allocate_seq(), 6);
  simulation.run_until(sim::at(5 * kSecond), wheel,
                       [&](const TimerWheel::Entry& entry) {
                         order.push_back(static_cast<int>(entry.payload));
                       });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(simulation.now(), at(5 * kSecond));
  // Only the three queued events count as processed events.
  EXPECT_EQ(simulation.events_processed(), 3u);
}

TEST(SimulationSourceTest, HeapEventScheduledMidBatchInterruptsTheBatch) {
  // A fired wheel entry queues an event *earlier* than the wheel's next
  // entry; the drain loop must pick it next.  This is why run_until picks
  // the next event again after every fire.
  Simulation simulation;
  TimerWheel wheel;
  std::vector<int> order;
  wheel.schedule(sim::at(10 * kSecond), simulation.allocate_seq(), 10);
  wheel.schedule(sim::at(30 * kSecond), simulation.allocate_seq(), 30);
  // Far queued event: without the per-fire re-check the wheel would fire 30
  // right after 10, racing past the event at 11 s.
  simulation.schedule_at(sim::at(40 * kSecond), [&] { order.push_back(40); });
  simulation.run_until(sim::at(40 * kSecond), wheel,
                       [&](const TimerWheel::Entry& entry) {
                         order.push_back(static_cast<int>(entry.payload));
                         if (entry.payload == 10) {
                           simulation.schedule_after(
                               kSecond, [&] { order.push_back(11); });
                         }
                       });
  EXPECT_EQ(order, (std::vector<int>{10, 11, 30, 40}));
}

TEST(SimulationSourceTest, QueuedEventSchedulesAheadOfThePeekedWheelHead) {
  // run_until peeks the wheel, materializing its 100 s cohort, before it
  // runs the earlier queued event; that event then schedules a wheel entry
  // due between the two.  Nothing at or after 60 s has fired, so the entry
  // is accepted and fires in (time, seq) order.
  Simulation simulation;
  TimerWheel wheel;
  std::vector<int> order;
  wheel.schedule(sim::at(100 * kSecond), simulation.allocate_seq(), 100);
  simulation.schedule_at(sim::at(50 * kSecond), [&] {
    order.push_back(50);
    wheel.schedule(sim::at(60 * kSecond), simulation.allocate_seq(), 60);
  });
  simulation.run_until(sim::at(200 * kSecond), wheel,
                       [&](const TimerWheel::Entry& entry) {
                         order.push_back(static_cast<int>(entry.payload));
                       });
  EXPECT_EQ(order, (std::vector<int>{50, 60, 100}));
  EXPECT_TRUE(wheel.empty());
  EXPECT_EQ(simulation.now(), at(200 * kSecond));
}

TEST(SimulationSourceTest, RunUntilStopsSourcesAtDeadline) {
  Simulation simulation;
  TimerWheel wheel;
  std::vector<int> order;
  const auto fire = [&](const TimerWheel::Entry& entry) {
    order.push_back(static_cast<int>(entry.payload));
  };
  for (int i = 1; i <= 6; ++i) {
    wheel.schedule(sim::at(i * kMinute), simulation.allocate_seq(),
                   static_cast<std::uint64_t>(i));
  }
  simulation.run_until(sim::at(3 * kMinute), wheel, fire);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulation.now(), at(3 * kMinute));
  simulation.run_until(sim::at(6 * kMinute), wheel, fire);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(wheel.empty());
}

TEST(SimulationSourceTest, RunUntilRejectsAWheelEntryBehindTheClock) {
  Simulation simulation;
  simulation.run_until(sim::at(10 * kSecond));
  TimerWheel wheel;  // starts at the epoch, behind the clock
  wheel.schedule(sim::at(5 * kSecond), simulation.allocate_seq(), 0);
  EXPECT_THROW(simulation.run_until(sim::at(20 * kSecond), wheel,
                                    [](const TimerWheel::Entry&) {}),
               std::invalid_argument);
}

TEST(SimulationSourceTest, SeqBlockReservationInterleavesDeterministically) {
  // An engine that pre-reserves a contiguous seq block fires its rounds in
  // block order against later-allocated queued events.
  Simulation simulation;
  TimerWheel wheel;
  std::vector<int> order;
  const std::uint64_t base = simulation.allocate_seq_block(3);
  EXPECT_EQ(simulation.allocate_seq(), base + 3);
  // Queued event at the same timestamp as the block's second round.  Its
  // seq is allocated *after* the block, so the block entry wins the tie
  // even though the queued event was scheduled first in program order.
  simulation.schedule_at(sim::at(2 * kSecond), [&] { order.push_back(99); });
  wheel.schedule(sim::at(kSecond), base + 0, 1);
  wheel.schedule(sim::at(2 * kSecond), base + 1, 2);
  wheel.schedule(sim::at(3 * kSecond), base + 2, 3);
  simulation.run_until(sim::at(3 * kSecond), wheel,
                       [&](const TimerWheel::Entry& entry) {
                         order.push_back(static_cast<int>(entry.payload));
                       });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 99, 3}));
}

TEST(TimeTest, FormatsHoursMinutesSeconds) {
  EXPECT_EQ(format_time(Time{}), "0:00:00");
  EXPECT_EQ(format_time(sim::at(59 * kSecond)), "0:00:59");
  EXPECT_EQ(format_time(sim::at(2 * kHour + 3 * kMinute + 4 * kSecond)),
            "2:03:04");
}

TEST(TimeTest, ConversionHelpers) {
  EXPECT_EQ(approx_seconds(1.5).count(), 1'500'000);
  EXPECT_EQ(approx_milliseconds(2.5).count(), 2'500);
  EXPECT_DOUBLE_EQ(to_milliseconds(kSecond), 1000.0);
  EXPECT_DOUBLE_EQ(to_seconds(kMinute), 60.0);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    auto v = rng.uniform_int(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
  EXPECT_THROW(rng.uniform_int(5, 4), std::invalid_argument);
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.exponential(10.0);
  }
  EXPECT_NEAR(sum / n, 10.0, 0.2);
}

TEST(RngTest, NormalMomentsApproximatelyCorrect) {
  Rng rng(13);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double x = rng.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(RngTest, ChanceFrequencyMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(RngTest, WeightedIndexMatchesWeights) {
  Rng rng(19);
  std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.weighted_index(weights)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
  EXPECT_THROW(rng.weighted_index({}), std::invalid_argument);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), std::invalid_argument);
}

TEST(RngTest, ForkIsStableAndIndependent) {
  Rng parent(99);
  parent.next();  // consuming the parent must not change forks
  Rng fork_a = parent.fork(1);
  Rng parent2(99);
  Rng fork_b = parent2.fork(1);
  EXPECT_EQ(fork_a.next(), fork_b.next());
  EXPECT_NE(parent.fork(1).next(), parent.fork(2).next());
}

}  // namespace
}  // namespace dnsttl::sim
