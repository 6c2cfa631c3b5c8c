// EventLoop: epoll-based reactor with a deadline heap and an eventfd
// wakeup channel.
//
// One loop drives any number of fds (listeners, connections) plus timers
// (RPC timeouts, idle eviction) and cross-thread posted work. Everything
// except post()/stop() must be called from the thread running the loop;
// post() writes the wakeup fd so another thread can hand work in — that is
// how benchmarks and tests inject traffic while the loop runs.
//
// Timers live in one binary min-heap keyed by (deadline, id), so timers
// due at the same instant fire in the order they were added. Insert is
// O(log n); cancel drops the callback at once and leaves a tombstone that
// is skipped when it reaches the top (the heap is rebuilt once tombstones
// outnumber live timers by more than 64). poll() sleeps in epoll_pwait2
// with a microsecond timeout, exactly until the earliest deadline: an
// idle loop with one 30 s timer sleeps 30 s, and a 200 us timer fires
// after about 200 us plus the kernel's timer slack. Timers never fire
// early. epoll_pwait2 needs Linux 5.11 and glibc 2.35.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "net/executor.h"
#include "obs/metrics.h"

namespace amnesia::net {

class EventLoop final : public Executor {
 public:
  /// Receives the ready EPOLL* event bits for a registered fd.
  using IoHandler = std::function<void(std::uint32_t events)>;
  using TimerId = std::uint64_t;

  EventLoop();
  ~EventLoop() override;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // ---- fd registration (loop thread only) ----------------------------
  void add_fd(int fd, std::uint32_t events, IoHandler handler);
  void mod_fd(int fd, std::uint32_t events);
  void del_fd(int fd);

  // ---- timers (loop thread only) -------------------------------------
  /// One-shot timer `delay_us` from now (clamped to >= 0). Returns an id
  /// for cancel_timer.
  TimerId add_timer(Micros delay_us, std::function<void()> fn);
  /// Returns false if the timer already fired or was cancelled.
  bool cancel_timer(TimerId id);
  std::size_t pending_timers() const { return timers_.size(); }

  // ---- Executor ------------------------------------------------------
  /// Thread-safe: enqueues `fn` and wakes the loop via the eventfd.
  void post(std::function<void()> fn) override;
  void run_after(Micros delay_us, std::function<void()> fn) override;
  Clock& clock() override { return clock_; }

  // ---- running -------------------------------------------------------
  /// Runs until stop(). May be called again after it returns.
  void run();
  /// Thread-safe: makes run() return after the current iteration, or at
  /// once if run() has not started yet.
  void stop();
  /// One iteration: waits at most `max_wait_us` (bounded further by the
  /// next timer deadline, to the microsecond), dispatches ready fds,
  /// posted work, and due timers. Returns the number of callbacks
  /// dispatched.
  std::size_t poll(Micros max_wait_us);

  /// Publishes the loop-health series into `registry`. Besides the
  /// original net.epoll_wakeups / net.timers_fired counters this wires
  /// the shard-per-core vitals:
  ///   net.loop.callback_us       histogram, run time of every dispatched
  ///                              callback (fd handler, posted fn, timer)
  ///   net.loop.wake_dispatch_us  histogram, epoll wake -> handler start
  ///                              (head-of-line blocking inside a batch)
  ///   net.loop.timer_slip_us     histogram, how late each timer fired
  ///   net.loop.post_depth        gauge, posted-queue depth after the
  ///                              latest cross-thread post()
  ///   net.loop.post_depth_max    gauge, high watermark of the above
  ///   net.loop.dispatch_delay_us gauge, last observed wake->dispatch
  ///                              delay (read at request admission)
  ///   net.loop.eventfd_wakeups   counter, wakeups via the post eventfd
  /// Null histogram pointers short-circuit every probe, so an
  /// uninstrumented loop pays one predictable branch per callback.
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  /// A heap entry; the callback lives in timers_ until it fires or is
  /// cancelled, so an entry whose id is gone from timers_ is a tombstone.
  struct HeapEntry {
    Micros deadline;
    TimerId id;
  };
  /// The heap order for std::push_heap/pop_heap: the earliest (deadline,
  /// id) on top.
  static bool later(const HeapEntry& a, const HeapEntry& b) {
    if (a.deadline != b.deadline) return a.deadline > b.deadline;
    return a.id > b.id;
  }
  struct FdEntry {
    IoHandler handler;
  };

  std::size_t drain_posted();
  std::size_t process_timers();
  void drop_cancelled_top();
  Micros wait_budget(Micros max_wait_us) const;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  WallClock clock_;
  std::map<int, std::shared_ptr<FdEntry>> fds_;

  std::vector<HeapEntry> heap_;
  std::unordered_map<TimerId, std::function<void()>> timers_;  // live only
  TimerId next_timer_id_ = 1;

  mutable std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;
  std::atomic<bool> stop_{false};

  obs::Counter* wakeups_ = nullptr;
  obs::Counter* timers_fired_ = nullptr;
  obs::Counter* eventfd_wakeups_ = nullptr;
  obs::Gauge* post_depth_ = nullptr;
  obs::Gauge* post_depth_max_ = nullptr;
  obs::Gauge* dispatch_delay_ = nullptr;
  obs::Histogram* callback_us_ = nullptr;
  obs::Histogram* wake_dispatch_us_ = nullptr;
  obs::Histogram* timer_slip_us_ = nullptr;
};

}  // namespace amnesia::net
