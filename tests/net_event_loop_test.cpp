// EventLoop unit tests: deadline-heap timer semantics (sub-millisecond
// delays, long delays, cancellation, tombstones), the microsecond sleep,
// cross-thread post, and poll() wait budgeting.
#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "net/event_loop.h"
#include "obs/metrics.h"

namespace amnesia::net {
namespace {

/// Polls until `done` or `budget_us` of wall time has passed.
template <typename Pred>
bool pump_until(EventLoop& loop, Pred done, Micros budget_us) {
  const Micros deadline = loop.clock().now_us() + budget_us;
  while (!done()) {
    if (loop.clock().now_us() >= deadline) return false;
    loop.poll(10'000);
  }
  return true;
}

TEST(EventLoop, SubMillisecondTimerFiresPromptly) {
  EventLoop loop;
  bool fired = false;
  const Micros t0 = loop.clock().now_us();
  loop.add_timer(200, [&] { fired = true; });
  ASSERT_TRUE(pump_until(loop, [&] { return fired; }, 1'000'000));
  // Kernel timer slack plus scheduling noise on a loaded host.
  EXPECT_LT(loop.clock().now_us() - t0, 100'000);
}

TEST(EventLoop, PollSleepsToTheMicrosecondDeadline) {
  // One poll with a generous budget sleeps exactly until a 200 us timer
  // is due and fires it. A sleep rounded up to whole milliseconds takes
  // at least 1 ms every time.
  EventLoop loop;
  std::vector<Micros> took;
  for (int trial = 0; trial < 21; ++trial) {
    bool fired = false;
    loop.add_timer(200, [&] { fired = true; });
    const Micros t0 = loop.clock().now_us();
    loop.poll(1'000'000);
    took.push_back(loop.clock().now_us() - t0);
    EXPECT_TRUE(fired) << "trial " << trial;
    ASSERT_TRUE(pump_until(loop, [&] { return fired; }, 1'000'000));
  }
  std::nth_element(took.begin(), took.begin() + 10, took.end());
  EXPECT_LT(took[10], 700) << "median poll " << took[10] << " us";
}

TEST(EventLoop, TimersFireInDeadlineOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.add_timer(30'000, [&] { order.push_back(2); });
  loop.add_timer(5'000, [&] { order.push_back(1); });
  loop.add_timer(60'000, [&] { order.push_back(3); });
  ASSERT_TRUE(pump_until(loop, [&] { return order.size() == 3; }, 2'000'000));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, LongDelayNeverFiresEarly) {
  // A 400 ms timer sits in the heap while shorter timers fire past it.
  EventLoop loop;
  bool fired = false;
  bool early = false;
  const Micros t0 = loop.clock().now_us();
  loop.add_timer(400'000, [&] {
    fired = true;
    early = (loop.clock().now_us() - t0) < 400'000;
  });
  // Keep short timers churning so the heap reorders around it.
  for (int i = 1; i <= 10; ++i) loop.add_timer(i * 20'000, [] {});
  ASSERT_TRUE(pump_until(loop, [&] { return fired; }, 5'000'000));
  EXPECT_FALSE(early) << "timer fired before its deadline";
}

TEST(EventLoop, CancelledTimerNeverFires) {
  EventLoop loop;
  bool fired = false;
  const EventLoop::TimerId id = loop.add_timer(20'000, [&] { fired = true; });
  EXPECT_TRUE(loop.cancel_timer(id));
  EXPECT_FALSE(loop.cancel_timer(id)) << "double cancel must report false";
  bool sentinel = false;
  loop.add_timer(60'000, [&] { sentinel = true; });
  ASSERT_TRUE(pump_until(loop, [&] { return sentinel; }, 2'000'000));
  EXPECT_FALSE(fired);
  EXPECT_EQ(loop.pending_timers(), 0u);
}

TEST(EventLoop, CancelledTimersBelowTheTopArePruned) {
  // Closing connections cancel far-off idle timers while nearer timers
  // sit on top, so their tombstones pile up below it until the heap is
  // rebuilt. Rebuilding keeps every live timer, in deadline order.
  EventLoop loop;
  std::vector<int> order;
  loop.add_timer(2'000, [&] { order.push_back(1); });
  loop.add_timer(4'000, [&] { order.push_back(2); });
  bool cancelled_fired = false;
  for (int i = 0; i < 10'000; ++i) {
    const EventLoop::TimerId id =
        loop.add_timer(30'000'000 + i, [&] { cancelled_fired = true; });
    ASSERT_TRUE(loop.cancel_timer(id));
  }
  loop.add_timer(6'000, [&] { order.push_back(3); });
  EXPECT_EQ(loop.pending_timers(), 3u);
  ASSERT_TRUE(pump_until(loop, [&] { return order.size() == 3; }, 2'000'000));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(cancelled_fired);
  EXPECT_EQ(loop.pending_timers(), 0u);
}

TEST(EventLoop, TimerAddedByATimerWaitsForTheNextPoll) {
  // A callback that re-arms at delay 0 must not run again in the same
  // pass, or a self-re-arming timer would starve the fds.
  EventLoop loop;
  int first = 0;
  int second = 0;
  loop.add_timer(0, [&] {
    ++first;
    loop.add_timer(0, [&] { ++second; });
  });
  loop.poll(0);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 0);
  loop.poll(0);
  EXPECT_EQ(second, 1);
}

TEST(EventLoop, PostFromAnotherThreadRunsOnLoop) {
  EventLoop loop;
  std::atomic<bool> posted{false};
  std::thread t([&] {
    loop.post([&] { posted.store(true, std::memory_order_relaxed); });
  });
  ASSERT_TRUE(pump_until(
      loop, [&] { return posted.load(std::memory_order_relaxed); },
      2'000'000));
  t.join();
}

TEST(EventLoop, LoopHealthMetricsPopulate) {
  obs::MetricsRegistry reg;
  EventLoop loop;
  loop.set_metrics(&reg);

  // Timers and posted work drive the callback/timer-slip histograms.
  bool fired = false;
  loop.add_timer(200, [&] { fired = true; });
  ASSERT_TRUE(pump_until(loop, [&] { return fired; }, 2'000'000));

  // A readable pipe drives the fd-dispatch path, which is where
  // wake_dispatch_us (epoll return -> handler start) is measured.
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  bool readable = false;
  loop.add_fd(pipe_fds[0], EPOLLIN, [&](std::uint32_t) {
    char byte;
    [[maybe_unused]] const ssize_t r = ::read(pipe_fds[0], &byte, 1);
    readable = true;
  });
  ASSERT_EQ(::write(pipe_fds[1], "x", 1), 1);
  ASSERT_TRUE(pump_until(loop, [&] { return readable; }, 2'000'000));
  loop.del_fd(pipe_fds[0]);
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);

  // A burst posted from a foreign thread while the loop is parked:
  // exactly one eventfd wakeup should drain the whole batch, and the
  // observed mailbox depth lands in the post_depth gauges.
  std::atomic<int> ran{0};
  std::thread t([&] {
    for (int i = 0; i < 8; ++i) {
      loop.post([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  });
  ASSERT_TRUE(pump_until(
      loop, [&] { return ran.load(std::memory_order_relaxed) == 8; },
      2'000'000));
  t.join();

  const obs::Snapshot snap = reg.snapshot();
  EXPECT_GT(snap.histograms.at("net.loop.callback_us").count, 0u);
  EXPECT_GT(snap.histograms.at("net.loop.wake_dispatch_us").count, 0u);
  EXPECT_GT(snap.histograms.at("net.loop.timer_slip_us").count, 0u);
  EXPECT_GE(snap.gauges.at("net.loop.post_depth_max"), 1);
  ASSERT_TRUE(snap.counters.contains("net.loop.eventfd_wakeups"));
  const std::uint64_t wakeups = snap.counters.at("net.loop.eventfd_wakeups");
  EXPECT_GE(wakeups, 1u) << "a parked loop must be woken via the eventfd";
  EXPECT_LE(wakeups, 8u)
      << "wakeup coalescing: at most one eventfd write per posted batch "
       "already in flight";
}

TEST(EventLoop, PollWaitIsBoundedByNearestTimer) {
  EventLoop loop;
  bool fired = false;
  loop.add_timer(20'000, [&] { fired = true; });
  // A single poll with a generous budget must return once the timer is
  // due, not sleep the full budget.
  const Micros t0 = loop.clock().now_us();
  while (!fired) loop.poll(5'000'000);
  EXPECT_LT(loop.clock().now_us() - t0, 1'000'000);
}

TEST(EventLoop, StopMakesRunReturn) {
  EventLoop loop;
  std::atomic<bool> running{false};
  std::thread t([&] {
    running.store(true);
    loop.run();
  });
  while (!running.load()) std::this_thread::yield();
  loop.stop();
  t.join();  // hangs (and times out the test) if stop() is lost
}

TEST(EventLoop, StopBeforeRunIsNotLost) {
  // A pool stopped right after start() may stop a loop whose thread has
  // not entered run() yet; run() must still return.
  EventLoop loop;
  loop.stop();
  loop.run();  // hangs (and times out the test) if the stop is lost
  // That stop is consumed: the next run() lasts until its own stop.
  bool posted_ran = false;
  loop.post([&] {
    posted_ran = true;
    loop.stop();
  });
  loop.run();
  EXPECT_TRUE(posted_ran);
}

TEST(EventLoop, RunAfterMatchesExecutorContract) {
  EventLoop loop;
  int calls = 0;
  Executor& exec = loop;
  exec.post([&] { ++calls; });
  exec.run_after(1'000, [&] { ++calls; });
  ASSERT_TRUE(pump_until(loop, [&] { return calls == 2; }, 2'000'000));
  EXPECT_GT(exec.clock().now_us(), 0);
}

}  // namespace
}  // namespace amnesia::net
