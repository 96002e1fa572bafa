// Unit tests for the discrete-event engine: clock advance, determinism,
// event ordering, flags/notifiers, deadlock detection, error propagation,
// and the fiber processes themselves (thread, stack depth, exception state,
// teardown).
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace sim = mv2gnc::sim;

TEST(SimTime, UnitConstructors) {
  EXPECT_EQ(sim::nanoseconds(5), 5);
  EXPECT_EQ(sim::microseconds(3), 3'000);
  EXPECT_EQ(sim::milliseconds(2), 2'000'000);
  EXPECT_EQ(sim::seconds(1), 1'000'000'000);
}

TEST(SimTime, Conversions) {
  EXPECT_DOUBLE_EQ(sim::to_us(1500), 1.5);
  EXPECT_DOUBLE_EQ(sim::to_ms(2'500'000), 2.5);
  EXPECT_DOUBLE_EQ(sim::to_sec(1'000'000'000), 1.0);
}

TEST(SimTime, Format) {
  EXPECT_EQ(sim::format_time(500), "500 ns");
  EXPECT_EQ(sim::format_time(sim::microseconds(12)), "12.00 us");
  EXPECT_EQ(sim::format_time(sim::milliseconds(40)), "40.00 ms");
  EXPECT_EQ(sim::format_time(sim::seconds(12)), "12.000 s");
}

TEST(Engine, EmptyRunFinishesAtTimeZero) {
  sim::Engine eng;
  eng.run();
  EXPECT_EQ(eng.now(), 0);
}

TEST(Engine, SingleProcessDelayAdvancesClock) {
  sim::Engine eng;
  sim::SimTime observed = -1;
  eng.spawn("p", [&] {
    eng.delay(sim::microseconds(10));
    observed = eng.now();
  });
  eng.run();
  EXPECT_EQ(observed, sim::microseconds(10));
  EXPECT_EQ(eng.now(), sim::microseconds(10));
}

TEST(Engine, ZeroAndNegativeDelaysDoNotMoveClockBackwards) {
  sim::Engine eng;
  eng.spawn("p", [&] {
    eng.delay(sim::microseconds(5));
    eng.delay(0);
    EXPECT_EQ(eng.now(), sim::microseconds(5));
    eng.delay(-100);  // clamped to zero
    EXPECT_EQ(eng.now(), sim::microseconds(5));
  });
  eng.run();
}

TEST(Engine, ProcessesInterleaveByVirtualTime) {
  sim::Engine eng;
  std::vector<int> order;
  eng.spawn("slow", [&] {
    eng.delay(100);
    order.push_back(1);
    eng.delay(100);  // wakes at 200
    order.push_back(3);
  });
  eng.spawn("fast", [&] {
    eng.delay(150);
    order.push_back(2);
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, SameTimeEventsRunFifo) {
  sim::Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    eng.spawn("p" + std::to_string(i), [&, i] {
      eng.delay(100);
      order.push_back(i);
    });
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Engine, ScheduleAtRunsActionAtRequestedTime) {
  sim::Engine eng;
  sim::SimTime fired_at = -1;
  eng.schedule_at(sim::microseconds(7), [&] { fired_at = eng.now(); });
  eng.run();
  EXPECT_EQ(fired_at, sim::microseconds(7));
}

TEST(Engine, ScheduleAfterFromProcessIsRelative) {
  sim::Engine eng;
  sim::SimTime fired_at = -1;
  eng.spawn("p", [&] {
    eng.delay(100);
    eng.schedule_after(50, [&] { fired_at = eng.now(); });
    eng.delay(1000);  // keep sim alive past the event
  });
  eng.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Engine, EventFlagWakesAllWaiters) {
  sim::Engine eng;
  sim::EventFlag flag(eng);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    eng.spawn("waiter" + std::to_string(i), [&] {
      flag.wait();
      ++woken;
      EXPECT_EQ(eng.now(), 500);
    });
  }
  eng.spawn("trigger", [&] {
    eng.delay(500);
    flag.trigger();
  });
  eng.run();
  EXPECT_EQ(woken, 3);
}

TEST(Engine, EventFlagWaitAfterTriggerReturnsImmediately) {
  sim::Engine eng;
  sim::EventFlag flag(eng);
  eng.spawn("p", [&] {
    flag.trigger();
    flag.wait();  // must not block
    EXPECT_EQ(eng.now(), 0);
  });
  eng.run();
}

TEST(Engine, EventFlagResetBlocksAgain) {
  sim::Engine eng;
  sim::EventFlag flag(eng);
  std::vector<sim::SimTime> wakes;
  eng.spawn("waiter", [&] {
    flag.wait();
    wakes.push_back(eng.now());
    flag.reset();
    flag.wait();
    wakes.push_back(eng.now());
  });
  eng.spawn("trigger", [&] {
    eng.delay(10);
    flag.trigger();  // waiter wakes at t=10 and resets the flag
    eng.delay(10);
    flag.trigger();  // flag was reset, so this wakes the waiter again
  });
  eng.run();
  ASSERT_EQ(wakes.size(), 2u);
  EXPECT_EQ(wakes[0], 10);
  EXPECT_EQ(wakes[1], 20);
}

TEST(Engine, NotifierCoalescesPendingNotifications) {
  sim::Engine eng;
  sim::Notifier n(eng);
  int wakeups = 0;
  eng.spawn("consumer", [&] {
    n.wait();  // should see the 3 pre-deposited tokens as one wake
    ++wakeups;
    n.wait();  // blocks until the producer's later notify
    ++wakeups;
    EXPECT_EQ(eng.now(), 100);
  });
  eng.spawn("producer", [&] {
    n.notify();
    n.notify();
    n.notify();
    eng.delay(100);
    n.notify();
  });
  eng.run();
  EXPECT_EQ(wakeups, 2);
}

TEST(Engine, NotifierTryConsume) {
  sim::Engine eng;
  sim::Notifier n(eng);
  eng.spawn("p", [&] {
    EXPECT_FALSE(n.try_consume());
    n.notify();
    n.notify();
    EXPECT_TRUE(n.try_consume());
    EXPECT_FALSE(n.try_consume());
  });
  eng.run();
}

TEST(Engine, DeadlockDetectedWithDiagnostics) {
  sim::Engine eng;
  sim::EventFlag never(eng);
  eng.spawn("stuck-process", [&] { never.wait("waiting-for-godot"); });
  try {
    eng.run();
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stuck-process"), std::string::npos);
    EXPECT_NE(what.find("waiting-for-godot"), std::string::npos);
  }
}

TEST(Engine, ExceptionInProcessPropagatesToRun) {
  sim::Engine eng;
  eng.spawn("thrower", [&] {
    eng.delay(10);
    throw std::runtime_error("boom");
  });
  eng.spawn("bystander", [&] { eng.delay(sim::seconds(100)); });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, SpawnFromRunningProcess) {
  sim::Engine eng;
  std::vector<std::string> log;
  eng.spawn("parent", [&] {
    eng.delay(10);
    eng.spawn("child", [&] {
      log.push_back("child@" + std::to_string(eng.now()));
      eng.delay(5);
      log.push_back("child-done@" + std::to_string(eng.now()));
    });
    log.push_back("parent@" + std::to_string(eng.now()));
    eng.delay(100);
  });
  eng.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], "parent@10");
  EXPECT_EQ(log[1], "child@10");
  EXPECT_EQ(log[2], "child-done@15");
}

TEST(Engine, CurrentProcessNameVisibleInsideProcess) {
  sim::Engine eng;
  std::string seen;
  eng.spawn("rank-3", [&] { seen = eng.current_process_name(); });
  eng.run();
  EXPECT_EQ(seen, "rank-3");
  EXPECT_EQ(eng.current_process_name(), "");
}

TEST(Engine, BlockingPrimitiveOffProcessThrows) {
  sim::Engine eng;
  EXPECT_THROW(eng.delay(10), std::logic_error);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Engine eng;
    std::vector<std::pair<std::string, sim::SimTime>> log;
    for (int i = 0; i < 5; ++i) {
      eng.spawn("p" + std::to_string(i), [&, i] {
        for (int k = 0; k < 4; ++k) {
          eng.delay(17 * (i + 1));
          log.emplace_back("p" + std::to_string(i), eng.now());
        }
      });
    }
    eng.run();
    return log;
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(Engine, ManyEventsStressAndCount) {
  sim::Engine eng;
  constexpr int kSteps = 2000;
  eng.spawn("looper", [&] {
    for (int i = 0; i < kSteps; ++i) eng.delay(1);
  });
  eng.run();
  EXPECT_EQ(eng.now(), kSteps);
  EXPECT_GE(eng.events_executed(), static_cast<std::uint64_t>(kSteps));
}

TEST(Engine, SeededRngIsDeterministic) {
  auto draw = [](std::uint64_t seed) {
    sim::Engine eng;
    eng.seed_rng(seed);
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 16; ++i) out.push_back(eng.rand_u64());
    return out;
  };
  EXPECT_EQ(draw(123), draw(123));
  EXPECT_NE(draw(123), draw(124));
}

TEST(Engine, RandHelpersStayInRange) {
  sim::Engine eng;
  eng.seed_rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = eng.rand_uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(eng.rand_below(17), 17u);
  }
  EXPECT_EQ(eng.rand_below(0), 0u);
  EXPECT_EQ(eng.rand_below(1), 0u);
}

TEST(Engine, TimerFiresAtScheduledTime) {
  sim::Engine eng;
  sim::SimTime fired_at = -1;
  eng.spawn("driver", [&] {
    eng.schedule_timer(eng.now() + 500, [&] { fired_at = eng.now(); });
    eng.delay(1000);
  });
  eng.run();
  EXPECT_EQ(fired_at, 500);
}

TEST(Engine, CancelledTimerNeverFiresNorAdvancesClock) {
  sim::Engine eng;
  bool fired = false;
  eng.spawn("driver", [&] {
    const sim::TimerId id =
        eng.schedule_timer(eng.now() + 10'000, [&] { fired = true; });
    eng.delay(100);
    EXPECT_TRUE(eng.cancel_timer(id));
    EXPECT_FALSE(eng.cancel_timer(id));  // second cancel is a no-op
  });
  eng.run();
  EXPECT_FALSE(fired);
  // The orphaned timer event is discarded without dragging the clock out to
  // its deadline.
  EXPECT_EQ(eng.now(), 100);
}

TEST(Engine, BlockingPrimitiveInScheduledActionThrows) {
  sim::Engine eng;
  eng.spawn("p", [&] { eng.delay(100); });
  eng.schedule_at(10, [&] { eng.delay(1); });
  EXPECT_THROW(eng.run(), std::logic_error);
}

TEST(Engine, ProcessesRunOnTheThreadThatCallsRun) {
  sim::Engine eng;
  std::vector<std::thread::id> seen;
  for (int i = 0; i < 3; ++i) {
    eng.spawn("p" + std::to_string(i), [&] {
      seen.push_back(std::this_thread::get_id());
      eng.delay(10);
      seen.push_back(std::this_thread::get_id());
    });
  }
  eng.run();
  ASSERT_EQ(seen.size(), 6u);
  for (const std::thread::id id : seen) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(Engine, EachProcessKeepsItsOwnCaughtException) {
  // Both processes block inside a catch handler while the other throws and
  // catches. The exception being handled is per process: each still reads
  // its own, and a bare rethrow rethrows its own.
  sim::Engine eng;
  std::vector<std::string> read_after_wait;
  std::vector<std::string> rethrown;
  for (int i = 0; i < 2; ++i) {
    eng.spawn("p" + std::to_string(i), [&, i] {
      eng.delay(i);  // p0 enters its handler first, p1 one tick later
      try {
        throw std::runtime_error("exception of p" + std::to_string(i));
      } catch (const std::runtime_error& e) {
        eng.delay(10);
        read_after_wait.emplace_back(e.what());
        EXPECT_EQ(std::uncaught_exceptions(), 0);
        try {
          throw;
        } catch (const std::runtime_error& again) {
          rethrown.emplace_back(again.what());
        }
      }
    });
  }
  eng.run();
  const std::vector<std::string> expected{"exception of p0",
                                          "exception of p1"};
  EXPECT_EQ(read_after_wait, expected);
  EXPECT_EQ(rethrown, expected);
  EXPECT_EQ(std::uncaught_exceptions(), 0);
}

namespace {

// Sets a flag when destroyed: proves a blocked process's stack unwound.
struct UnwindGuard {
  bool* unwound;
  ~UnwindGuard() { *unwound = true; }
};

// Recurses through `depth` frames of 4 KiB each. Every frame's bytes feed
// the result, so the frames cannot be optimized away.
std::uint64_t recurse_with_frames(int depth) {
  volatile unsigned char frame[4096];
  frame[0] = static_cast<unsigned char>(depth);
  frame[sizeof(frame) - 1] = static_cast<unsigned char>(depth >> 8);
  if (depth == 0) return frame[0];
  return recurse_with_frames(depth - 1) + frame[0] + frame[sizeof(frame) - 1];
}

}  // namespace

TEST(Engine, BlockedProcessUnwindsWhenRunDeadlocks) {
  sim::Engine eng;
  sim::EventFlag never(eng);
  bool unwound = false;
  eng.spawn("stuck", [&] {
    UnwindGuard guard{&unwound};
    never.wait("never triggered");
  });
  EXPECT_THROW(eng.run(), sim::DeadlockError);
  EXPECT_TRUE(unwound);
}

TEST(Engine, BlockedProcessUnwindsWhenSiblingThrows) {
  sim::Engine eng;
  sim::EventFlag never(eng);
  bool unwound = false;
  eng.spawn("blocked", [&] {
    UnwindGuard guard{&unwound};
    never.wait("never triggered");
  });
  eng.spawn("thrower", [&] {
    eng.delay(5);
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(eng.run(), std::runtime_error);
  EXPECT_TRUE(unwound);
}

TEST(Engine, ProcessStackHoldsTwoMebibytesOfFrames) {
  constexpr int kDepth = 512;  // 512 frames x 4 KiB
  sim::Engine eng;
  std::uint64_t result = 0;
  eng.spawn("deep", [&] {
    eng.delay(1);
    result = recurse_with_frames(kDepth);
  });
  eng.run();
  std::uint64_t expected = 0;
  for (int d = kDepth; d > 0; --d) {
    expected += static_cast<unsigned char>(d) +
                static_cast<unsigned char>(d >> 8);
  }
  EXPECT_EQ(result, expected);
}
