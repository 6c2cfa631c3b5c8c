// Deterministic discrete-event simulation core.
//
// All distributed pieces of the reproduction — browser, Amnesia server,
// rendezvous service, phone, cloud storage — run as endpoints inside one
// Simulation. Virtual time advances only when events fire, so a full
// latency experiment (Fig. 3: 2x100 trials) runs in milliseconds of real
// time and is bit-for-bit reproducible from the seed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "net/executor.h"

namespace amnesia::simnet {

/// Simulation implements net::Executor so protocol components written
/// against the executor surface (HttpServer's worker model, RPC timeouts)
/// run unchanged in virtual time: post() is a zero-delay event,
/// run_after() is schedule_after. Unlike net::EventLoop, this executor is
/// single-threaded — call it only from the thread driving the simulation.
class Simulation : public net::Executor {
 public:
  /// Seeds the simulation's private RandomSource (delay sampling, loss).
  explicit Simulation(std::uint64_t seed);
  ~Simulation() override;

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  Micros now() const { return now_; }

  /// Schedules `fn` at absolute virtual time `t` (>= now). Events at equal
  /// times fire in scheduling order.
  void schedule_at(Micros t, std::function<void()> fn);

  /// Schedules `fn` after `delta` microseconds (clamped to >= 0).
  void schedule_after(Micros delta, std::function<void()> fn);

  /// Runs until the event queue drains. Returns the number of events run.
  std::size_t run();

  /// Runs exactly one event; returns false if the queue was empty. Lets
  /// callers stop as soon as a condition holds (e.g. a reply arrived)
  /// without fast-forwarding through unrelated future timers.
  bool step();

  /// Runs events with time <= `t`, then sets now to `t`.
  std::size_t run_until(Micros t);

  /// Safety-capped run: drains the queue but throws Error after
  /// `max_events` (runaway-loop guard in tests).
  std::size_t run_capped(std::size_t max_events);

  bool idle() const { return queue_.empty(); }

  /// Virtual time of the earliest queued event; -1 when idle. Lets a
  /// real-time driver (server::ClockBridge) sleep exactly until the next
  /// simulated event is due instead of polling.
  Micros next_event_time() const {
    return idle() ? -1 : queue_.front().time;
  }

  /// Called with the event's time whenever a newly scheduled event becomes
  /// the earliest queued one (not for events behind the current head), so
  /// a real-time driver can re-arm its wakeup without polling the queue.
  /// One hook per simulation (installing a second throws Error); an empty
  /// function detaches it. Sim-only runs never install one.
  void set_head_hook(std::function<void(Micros)> hook);

  RandomSource& rng() { return *rng_; }

  // ---- net::Executor ---------------------------------------------------
  void post(std::function<void()> fn) override { schedule_after(0, std::move(fn)); }
  void run_after(Micros delay_us, std::function<void()> fn) override {
    schedule_after(delay_us, std::move(fn));
  }
  /// A Clock view of virtual time, for injection into protocol components.
  Clock& clock() override { return clock_view_; }

 private:
  struct Event {
    Micros time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  /// The heap order for std::push_heap/pop_heap: the earliest (time, seq)
  /// on top.
  static bool later(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  class SimClockView final : public Clock {
   public:
    explicit SimClockView(const Simulation& sim) : sim_(sim) {}
    Micros now_us() const override { return sim_.now(); }

   private:
    const Simulation& sim_;
  };

  bool pop_and_run();

  Micros now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Event> queue_;  // a heap on (time, seq), earliest on top
  std::function<void(Micros)> head_hook_;
  std::unique_ptr<RandomSource> rng_;
  SimClockView clock_view_{*this};
};

}  // namespace amnesia::simnet
