#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>

#include "common/error.h"
#include "common/logging.h"

namespace amnesia::net {

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw NetError(std::string("epoll_create1: ") + std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    throw NetError(std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    ::close(wake_fd_);
    ::close(epoll_fd_);
    throw NetError(std::string("epoll_ctl(wakeup): ") + std::strerror(errno));
  }
}

EventLoop::~EventLoop() {
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void EventLoop::set_metrics(obs::MetricsRegistry* registry) {
  if (!registry) {
    wakeups_ = nullptr;
    timers_fired_ = nullptr;
    eventfd_wakeups_ = nullptr;
    post_depth_ = nullptr;
    post_depth_max_ = nullptr;
    dispatch_delay_ = nullptr;
    callback_us_ = nullptr;
    wake_dispatch_us_ = nullptr;
    timer_slip_us_ = nullptr;
    return;
  }
  wakeups_ = &registry->counter("net.epoll_wakeups");
  timers_fired_ = &registry->counter("net.timers_fired");
  eventfd_wakeups_ = &registry->counter("net.loop.eventfd_wakeups");
  post_depth_ = &registry->gauge("net.loop.post_depth");
  post_depth_max_ = &registry->gauge("net.loop.post_depth_max");
  dispatch_delay_ = &registry->gauge("net.loop.dispatch_delay_us");
  // Loop intervals live far below the default bounds' 100 us floor.
  callback_us_ = &registry->histogram("net.loop.callback_us",
                                      obs::fine_latency_bounds());
  wake_dispatch_us_ = &registry->histogram("net.loop.wake_dispatch_us",
                                           obs::fine_latency_bounds());
  timer_slip_us_ = &registry->histogram("net.loop.timer_slip_us",
                                        obs::fine_latency_bounds());
}

// ---- fds ---------------------------------------------------------------

void EventLoop::add_fd(int fd, std::uint32_t events, IoHandler handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    throw NetError(std::string("epoll_ctl(add): ") + std::strerror(errno));
  }
  fds_[fd] = std::make_shared<FdEntry>(FdEntry{std::move(handler)});
}

void EventLoop::mod_fd(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
    throw NetError(std::string("epoll_ctl(mod): ") + std::strerror(errno));
  }
}

void EventLoop::del_fd(int fd) {
  // Best effort: the fd may already be closed (EBADF) on teardown paths.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  fds_.erase(fd);
}

// ---- timers ------------------------------------------------------------

namespace {
// Tombstones beyond the live count tolerated before the heap is rebuilt.
constexpr std::size_t kTombstoneSlack = 64;
}  // namespace

EventLoop::TimerId EventLoop::add_timer(Micros delay_us,
                                        std::function<void()> fn) {
  if (delay_us < 0) delay_us = 0;
  const TimerId id = next_timer_id_++;
  heap_.push_back(HeapEntry{clock_.now_us() + delay_us, id});
  std::push_heap(heap_.begin(), heap_.end(), later);
  timers_.emplace(id, std::move(fn));
  return id;
}

bool EventLoop::cancel_timer(TimerId id) {
  if (timers_.erase(id) == 0) return false;
  // The heap entry stays as a tombstone until it reaches the top, unless
  // tombstones now outnumber live timers: a loop that keeps re-arming one
  // far-off timer would otherwise grow the heap without bound.
  if (heap_.size() > 2 * timers_.size() + kTombstoneSlack) {
    std::erase_if(heap_, [this](const HeapEntry& e) {
      return !timers_.contains(e.id);
    });
    std::make_heap(heap_.begin(), heap_.end(), later);
  }
  drop_cancelled_top();
  return true;
}

void EventLoop::drop_cancelled_top() {
  // Keeps the top live, so wait_budget() sleeps to a real deadline.
  while (!heap_.empty() && !timers_.contains(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }
}

std::size_t EventLoop::process_timers() {
  const Micros now = clock_.now_us();
  // Timers the callbacks below add wait for the next pass even when they
  // are already due, so a timer re-arming itself at delay 0 cannot starve
  // the fds. Such a timer's deadline is >= now, so every older due entry
  // sorts ahead of it.
  const TimerId first_new = next_timer_id_;
  std::size_t fired = 0;
  while (!heap_.empty() && heap_.front().deadline <= now &&
         heap_.front().id < first_new) {
    const HeapEntry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
    const auto it = timers_.find(top.id);
    if (it == timers_.end()) continue;  // cancelled
    std::function<void()> fn = std::move(it->second);
    timers_.erase(it);
    ++fired;
    if (timers_fired_) timers_fired_->inc();
    if (timer_slip_us_) {
      timer_slip_us_->record(now - top.deadline);
      const Micros t0 = clock_.now_us();
      fn();
      callback_us_->record(clock_.now_us() - t0);
    } else {
      fn();
    }
  }
  drop_cancelled_top();
  return fired;
}

// ---- posting -----------------------------------------------------------

void EventLoop::post(std::function<void()> fn) {
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    posted_.push_back(std::move(fn));
    depth = posted_.size();
  }
  // Queue-depth visibility for cross-thread mailbox pressure: the gauge
  // tracks the depth after the latest post, the _max gauge the worst
  // backlog since reset. Written outside the lock — last writer wins is
  // exactly a gauge's semantics.
  if (post_depth_) {
    post_depth_->set(static_cast<std::int64_t>(depth));
    post_depth_max_->track_max(static_cast<std::int64_t>(depth));
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::run_after(Micros delay_us, std::function<void()> fn) {
  add_timer(delay_us, std::move(fn));
}

std::size_t EventLoop::drain_posted() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    batch.swap(posted_);
  }
  if (post_depth_ && !batch.empty()) post_depth_->set(0);
  for (auto& fn : batch) {
    if (callback_us_) {
      const Micros t0 = clock_.now_us();
      fn();
      callback_us_->record(clock_.now_us() - t0);
    } else {
      fn();
    }
  }
  return batch.size();
}

// ---- loop --------------------------------------------------------------

Micros EventLoop::wait_budget(Micros max_wait_us) const {
  Micros budget = max_wait_us < 0 ? 0 : max_wait_us;
  if (!heap_.empty()) {
    const Micros until = heap_.front().deadline - clock_.now_us();
    if (until < budget) budget = until < 0 ? 0 : until;
  }
  {
    // Pending posted work means no sleeping at all.
    std::lock_guard<std::mutex> lock(post_mu_);
    if (!posted_.empty()) budget = 0;
  }
  return budget;
}

std::size_t EventLoop::poll(Micros max_wait_us) {
  const Micros budget = wait_budget(max_wait_us);
  const timespec timeout{static_cast<time_t>(budget / 1'000'000),
                         static_cast<long>(budget % 1'000'000) * 1'000};

  epoll_event events[64];
  const int n = ::epoll_pwait2(epoll_fd_, events, 64, &timeout, nullptr);
  if (wakeups_) wakeups_->inc();
  std::size_t dispatched = 0;
  if (n > 0) {
    // One timestamp for the whole batch: wake_dispatch measures how long
    // each handler waited behind its batch-mates (head-of-line blocking),
    // so it is the gap from epoll return to this handler's start.
    const Micros woke_at = callback_us_ ? clock_.now_us() : 0;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        if (eventfd_wakeups_) eventfd_wakeups_->inc();
        std::uint64_t drain = 0;
        [[maybe_unused]] ssize_t r = ::read(wake_fd_, &drain, sizeof(drain));
        continue;
      }
      // Look the entry up per event: an earlier handler in this batch may
      // have del_fd()'d this fd.
      const auto it = fds_.find(fd);
      if (it == fds_.end()) continue;
      const std::shared_ptr<FdEntry> entry = it->second;
      if (callback_us_) {
        const Micros t0 = clock_.now_us();
        wake_dispatch_us_->record(t0 - woke_at);
        dispatch_delay_->set(t0 - woke_at);
        entry->handler(events[i].events);
        callback_us_->record(clock_.now_us() - t0);
      } else {
        entry->handler(events[i].events);
      }
      ++dispatched;
    }
  } else if (n < 0 && errno != EINTR) {
    // ENOSYS here means a kernel older than 5.11 (no epoll_pwait2).
    throw NetError(std::string("epoll_pwait2: ") + std::strerror(errno));
  }
  dispatched += drain_posted();
  dispatched += process_timers();
  return dispatched;
}

void EventLoop::run() {
  while (!stop_.load(std::memory_order_relaxed)) {
    poll(1'000'000);
  }
  // Consumed here, not reset on entry: a stop() that lands before run()
  // starts (a pool stopped right after start()) must still end it.
  stop_.store(false, std::memory_order_relaxed);
}

void EventLoop::stop() {
  stop_.store(true, std::memory_order_relaxed);
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

}  // namespace amnesia::net
