// Timer wheel unit + property suite.
//
// The unit tests pin the contract edges: exact (deadline, schedule
// order) firing, <=t inclusivity, cascade and rollover across level
// windows, overdue scheduling, cancellation (head / middle / overdue),
// the horizon guard, and reset reuse. The seed-parameterized property
// test drives a random schedule/advance/cancel interleaving and checks
// the fired sequence against a naive per-timer deadline-scan reference —
// the same oracle a bounded-FIFO server would implement by scanning
// every queued request at each dequeue.
#include "sim/timer_wheel.h"

#include <algorithm>
#include <vector>

#include "gtest/gtest.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "support/alloc_counter.h"

namespace {

using deepnote::sim::Duration;
using deepnote::sim::Rng;
using deepnote::sim::SimTime;
using deepnote::sim::TimerWheel;
using deepnote::test_support::heap_allocations;

SimTime ns(std::int64_t v) { return SimTime{v}; }

std::vector<TimerWheel::Expired> fire_until(TimerWheel& wheel, SimTime t) {
  std::vector<TimerWheel::Expired> out;
  wheel.advance(t, out);
  return out;
}

TEST(TimerWheelTest, FiresInDeadlineOrderWithScheduleOrderTies) {
  TimerWheel wheel;
  wheel.schedule(ns(5'000'000), 1);
  wheel.schedule(ns(2'000'000), 2);
  wheel.schedule(ns(5'000'000), 3);  // same deadline as payload 1
  wheel.schedule(ns(1'000'000), 4);
  const auto fired = fire_until(wheel, ns(10'000'000));
  ASSERT_EQ(fired.size(), 4u);
  EXPECT_EQ(fired[0].payload, 4u);
  EXPECT_EQ(fired[1].payload, 2u);
  EXPECT_EQ(fired[2].payload, 1u);  // scheduled before payload 3
  EXPECT_EQ(fired[3].payload, 3u);
  EXPECT_EQ(fired[2].deadline, fired[3].deadline);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, AdvanceIsInclusiveOfTheTargetInstant) {
  TimerWheel wheel;
  wheel.schedule(ns(1000), 1);
  wheel.schedule(ns(1001), 2);
  auto fired = fire_until(wheel, ns(1000));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].payload, 1u);
  EXPECT_EQ(fired[0].deadline.ns(), 1000);
  fired = fire_until(wheel, ns(1001));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].payload, 2u);
}

TEST(TimerWheelTest, SubTickDeadlinesSplitCorrectlyAcrossAdvances) {
  TimerWheel wheel;
  const std::int64_t tick = wheel.tick_nanos();
  // Two timers inside the same tick bucket; advancing into the middle of
  // the bucket must fire only the earlier one.
  wheel.schedule(ns(tick + 10), 1);
  wheel.schedule(ns(tick + 20), 2);
  auto fired = fire_until(wheel, ns(tick + 15));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].payload, 1u);
  EXPECT_EQ(wheel.pending(), 1u);
  fired = fire_until(wheel, ns(tick + 20));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].payload, 2u);
}

TEST(TimerWheelTest, CascadesAcrossLevelBoundaries) {
  TimerWheel wheel;
  const std::int64_t tick = wheel.tick_nanos();
  // One timer per wheel level: within the level-0 window (64 ticks),
  // past it (level 1), past the level-1 window (64^2 ticks), level 2,
  // and level 3.
  const std::int64_t deadlines[] = {
      3 * tick,         63 * tick,         64 * tick,
      100 * tick,       4096 * tick,       5000 * tick,
      262144 * tick,    300000 * tick,     16777216 * tick};
  std::uint64_t payload = 0;
  for (const std::int64_t d : deadlines) wheel.schedule(ns(d), payload++);
  // Advance in awkward strides (prime tick counts) so cascades land
  // mid-window rather than on clean boundaries.
  std::vector<TimerWheel::Expired> fired;
  std::int64_t t = 0;
  while (!wheel.empty()) {
    t += 977 * tick;
    wheel.advance(ns(t), fired);
  }
  ASSERT_EQ(fired.size(), std::size(deadlines));
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i].payload, i) << "cascade broke firing order";
    EXPECT_EQ(fired[i].deadline.ns(), deadlines[i]);
  }
}

TEST(TimerWheelTest, RolloverAtExactWindowBoundaries) {
  TimerWheel wheel;
  const std::int64_t tick = wheel.tick_nanos();
  // Deadlines sitting exactly on window-boundary ticks at every level.
  for (std::int64_t boundary : {std::int64_t{64}, std::int64_t{128},
                                std::int64_t{4096}, std::int64_t{8192},
                                std::int64_t{262144}}) {
    wheel.schedule(ns(boundary * tick), static_cast<std::uint64_t>(boundary));
  }
  // Stop one nanosecond short of each boundary, then cross it.
  std::vector<TimerWheel::Expired> fired;
  for (std::int64_t boundary : {std::int64_t{64}, std::int64_t{128},
                                std::int64_t{4096}, std::int64_t{8192},
                                std::int64_t{262144}}) {
    fired.clear();
    wheel.advance(ns(boundary * tick - 1), fired);
    EXPECT_TRUE(fired.empty()) << "fired early at boundary " << boundary;
    wheel.advance(ns(boundary * tick), fired);
    ASSERT_EQ(fired.size(), 1u) << "missed boundary " << boundary;
    EXPECT_EQ(fired[0].payload, static_cast<std::uint64_t>(boundary));
  }
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, OverdueScheduleFiresOnNextAdvanceAtItsOwnDeadline) {
  TimerWheel wheel;
  fire_until(wheel, ns(1'000'000));
  // A batch boundary can replay an arrival from before the frontier:
  // its deadline is already past. It must still fire, stamped with the
  // past deadline, on the next advance — even one that goes "backward".
  wheel.schedule(ns(400'000), 7);
  EXPECT_EQ(wheel.pending(), 1u);
  const auto fired = fire_until(wheel, ns(500'000));  // t < now: clamped
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].payload, 7u);
  EXPECT_EQ(fired[0].deadline.ns(), 400'000);
  EXPECT_EQ(wheel.now().ns(), 1'000'000);
}

TEST(TimerWheelTest, CancelHeadMiddleAndOverdue) {
  TimerWheel wheel;
  const auto a = wheel.schedule(ns(1000), 1);
  const auto b = wheel.schedule(ns(1000), 2);
  const auto c = wheel.schedule(ns(1000), 3);
  (void)a;
  (void)c;
  wheel.cancel(b);  // middle of the bucket list
  wheel.cancel(c);  // head of the bucket list
  auto fired = fire_until(wheel, ns(2000));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].payload, 1u);

  const auto overdue = wheel.schedule(ns(100), 4);  // deadline <= now
  wheel.cancel(overdue);
  fired = fire_until(wheel, ns(3000));
  EXPECT_TRUE(fired.empty());
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, HorizonGuardThrows) {
  TimerWheel wheel;
  const std::int64_t horizon = wheel.tick_nanos() * (std::int64_t{1} << 36);
  EXPECT_THROW(wheel.schedule(ns(horizon + 1), 0), std::invalid_argument);
  // In-horizon schedule still works afterwards (no node leaked).
  wheel.schedule(ns(1000), 1);
  const auto fired = fire_until(wheel, ns(1000));
  ASSERT_EQ(fired.size(), 1u);
}

TEST(TimerWheelTest, ResetRewindsAndReusesTheSlab) {
  TimerWheel wheel;
  for (int i = 0; i < 100; ++i) {
    wheel.schedule(ns(1000 + i), static_cast<std::uint64_t>(i));
  }
  fire_until(wheel, ns(10'000));
  const std::size_t slots = wheel.slab_slots();
  wheel.reset();
  EXPECT_TRUE(wheel.empty());
  EXPECT_EQ(wheel.now().ns(), 0);
  // Warm replay: same load, no new slab growth, no heap allocation.
  std::vector<TimerWheel::Expired> out;
  out.reserve(128);
  const std::uint64_t before = heap_allocations();
  for (int i = 0; i < 100; ++i) {
    wheel.schedule(ns(1000 + i), static_cast<std::uint64_t>(i));
  }
  wheel.advance(ns(10'000), out);
  const std::uint64_t after = heap_allocations();
  EXPECT_EQ(after - before, 0u) << "warm wheel must not allocate";
  EXPECT_EQ(wheel.slab_slots(), slots);
  ASSERT_EQ(out.size(), 100u);
}

// ---------------------------------------------------------------------------
// Property test: random interleaving vs a naive deadline-scan reference.

struct NaiveTimer {
  std::int64_t deadline_ns;
  std::uint64_t seq;
  std::uint64_t payload;
};

class TimerWheelPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(TimerWheelPropertyTest, MatchesNaiveDeadlineScanReference) {
  Rng rng(GetParam());
  TimerWheel wheel(Duration::from_micros(1 + rng.uniform_int(0, 200)));
  std::vector<NaiveTimer> naive;
  std::vector<std::pair<TimerWheel::TimerId, std::uint64_t>> live;  // id, seq
  std::uint64_t next_seq = 0;
  std::uint64_t next_payload = 0;
  std::int64_t now = 0;
  std::vector<TimerWheel::Expired> fired;

  for (int step = 0; step < 4000; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.55) {
      // Schedule: mostly near-future, sometimes far (cascade levels),
      // sometimes at-or-before now (overdue path).
      std::int64_t deadline;
      const double kind = rng.next_double();
      if (kind < 0.1) {
        deadline = now - rng.uniform_int(0, 1'000'000);
        if (deadline < 0) deadline = 0;
      } else if (kind < 0.85) {
        deadline = now + rng.uniform_int(1, 5'000'000);
      } else {
        deadline = now + rng.uniform_int(1, 20'000'000'000);
      }
      const std::uint64_t payload = next_payload++;
      const auto id = wheel.schedule(ns(deadline), payload);
      naive.push_back(NaiveTimer{deadline, next_seq, payload});
      live.emplace_back(id, next_seq);
      ++next_seq;
    } else if (roll < 0.65 && !live.empty()) {
      // Cancel a random live timer — but only if the wheel still holds
      // it (overdue timers fire on the next advance regardless).
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const auto [id, seq] = live[pick];
      wheel.cancel(id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      naive.erase(std::find_if(naive.begin(), naive.end(),
                               [seq](const NaiveTimer& t) {
                                 return t.seq == seq;
                               }));
    } else {
      // Advance; occasionally try to go backward (must clamp).
      std::int64_t target = now + rng.uniform_int(0, 2'000'000);
      if (rng.next_double() < 0.05) target = now - 1000;
      fired.clear();
      wheel.advance(ns(target), fired);
      const std::int64_t effective = std::max(target, now);
      // Reference: scan every pending timer, take deadline <= t, order
      // by (deadline, schedule seq).
      std::vector<NaiveTimer> due;
      for (const NaiveTimer& t : naive) {
        if (t.deadline_ns <= effective ||
            t.deadline_ns <= now /* overdue at schedule time */) {
          due.push_back(t);
        }
      }
      std::sort(due.begin(), due.end(),
                [](const NaiveTimer& a, const NaiveTimer& b) {
                  if (a.deadline_ns != b.deadline_ns) {
                    return a.deadline_ns < b.deadline_ns;
                  }
                  return a.seq < b.seq;
                });
      ASSERT_EQ(fired.size(), due.size()) << "step " << step;
      for (std::size_t i = 0; i < due.size(); ++i) {
        EXPECT_EQ(fired[i].payload, due[i].payload) << "step " << step;
        EXPECT_EQ(fired[i].deadline.ns(), due[i].deadline_ns)
            << "step " << step;
      }
      for (const NaiveTimer& t : due) {
        live.erase(std::find_if(live.begin(), live.end(),
                                [&](const auto& entry) {
                                  return entry.second == t.seq;
                                }));
        naive.erase(std::find_if(naive.begin(), naive.end(),
                                 [&](const NaiveTimer& n) {
                                   return n.seq == t.seq;
                                 }));
      }
      now = effective;
      ASSERT_EQ(wheel.pending(), naive.size()) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimerWheelPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u, 144u, 233u));

// Cancel-under-load: the hedge-cancellation path cancels most of what it
// schedules (a healthy cluster wins most hedges), so the wheel spends its
// life near a 90% cancel ratio with deep buckets. Batch-schedule bursts
// into few distinct buckets, cancel the bulk in adversarial orders
// (reverse = head-of-list each time, shuffled = arbitrary splices), then
// verify the few survivors fire exactly, in order, with pending counts
// honest at every step.
class TimerWheelCancelLoadTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimerWheelCancelLoadTest, HighCancelRatioKeepsTheWheelExact) {
  Rng rng(GetParam());
  TimerWheel wheel(Duration::from_micros(1 + rng.uniform_int(0, 100)));
  std::vector<NaiveTimer> naive;
  std::vector<std::pair<TimerWheel::TimerId, std::uint64_t>> live;
  std::uint64_t next_seq = 0;
  std::int64_t now = 0;
  std::vector<TimerWheel::Expired> fired;

  for (int round = 0; round < 60; ++round) {
    // Burst: 64-256 timers into at most 8 distinct deadlines, so bucket
    // lists get long and cancellation has to splice mid-list constantly.
    const int burst = static_cast<int>(rng.uniform_int(64, 256));
    std::int64_t deadlines[8];
    for (std::int64_t& d : deadlines) {
      d = now + rng.uniform_int(1, 50'000'000);
    }
    for (int i = 0; i < burst; ++i) {
      const std::int64_t deadline = deadlines[rng.uniform_int(0, 7)];
      const auto id = wheel.schedule(ns(deadline), next_seq);
      naive.push_back(NaiveTimer{deadline, next_seq, next_seq});
      live.emplace_back(id, next_seq);
      ++next_seq;
    }
    // Cancel ~90% of everything live, in reverse (LIFO: always the
    // bucket head) or shuffled order depending on the round.
    std::vector<std::size_t> order(live.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    if (round % 2 == 0) {
      std::reverse(order.begin(), order.end());
    } else {
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[static_cast<std::size_t>(
                                    rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
      }
    }
    std::vector<std::pair<TimerWheel::TimerId, std::uint64_t>> survivors;
    for (const std::size_t pick : order) {
      if (rng.next_double() < 0.9) {
        const auto [id, seq] = live[pick];
        wheel.cancel(id);
        naive.erase(std::find_if(
            naive.begin(), naive.end(),
            [seq](const NaiveTimer& t) { return t.seq == seq; }));
      } else {
        survivors.push_back(live[pick]);
      }
    }
    live = std::move(survivors);
    ASSERT_EQ(wheel.pending(), naive.size()) << "round " << round;

    // Advance past a random subset of the burst window and check the
    // survivors fire in (deadline, schedule seq) order.
    const std::int64_t target = now + rng.uniform_int(0, 60'000'000);
    fired.clear();
    wheel.advance(ns(target), fired);
    std::vector<NaiveTimer> due;
    for (const NaiveTimer& t : naive) {
      if (t.deadline_ns <= target) due.push_back(t);
    }
    std::sort(due.begin(), due.end(),
              [](const NaiveTimer& a, const NaiveTimer& b) {
                if (a.deadline_ns != b.deadline_ns) {
                  return a.deadline_ns < b.deadline_ns;
                }
                return a.seq < b.seq;
              });
    ASSERT_EQ(fired.size(), due.size()) << "round " << round;
    for (std::size_t i = 0; i < due.size(); ++i) {
      EXPECT_EQ(fired[i].payload, due[i].payload) << "round " << round;
      EXPECT_EQ(fired[i].deadline.ns(), due[i].deadline_ns)
          << "round " << round;
    }
    for (const NaiveTimer& t : due) {
      live.erase(std::find_if(
          live.begin(), live.end(),
          [&](const auto& entry) { return entry.second == t.seq; }));
      naive.erase(std::find_if(
          naive.begin(), naive.end(),
          [&](const NaiveTimer& n) { return n.seq == t.seq; }));
    }
    now = target;
    ASSERT_EQ(wheel.pending(), naive.size()) << "round " << round;
  }
  // Drain: whatever survived every cancel wave still fires.
  fired.clear();
  wheel.advance(ns(now + 100'000'000'000), fired);
  EXPECT_EQ(fired.size(), naive.size());
  EXPECT_TRUE(wheel.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimerWheelCancelLoadTest,
                         ::testing::Values(7u, 11u, 42u, 1729u, 0xc0ffeeu,
                                           0xdeadu));

}  // namespace
