#include "simnet/sim.h"

#include <algorithm>

#include "common/error.h"
#include "crypto/drbg.h"

namespace amnesia::simnet {

Simulation::Simulation(std::uint64_t seed)
    : rng_(std::make_unique<crypto::ChaChaDrbg>(seed)) {}

Simulation::~Simulation() = default;

void Simulation::schedule_at(Micros t, std::function<void()> fn) {
  if (t < now_) t = now_;
  const bool new_head = queue_.empty() || t < queue_.front().time;
  queue_.push_back(Event{t, next_seq_++, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), later);
  if (new_head && head_hook_) head_hook_(t);
}

void Simulation::set_head_hook(std::function<void(Micros)> hook) {
  if (hook && head_hook_) {
    throw Error("Simulation: a head hook is already installed");
  }
  head_hook_ = std::move(hook);
}

void Simulation::schedule_after(Micros delta, std::function<void()> fn) {
  schedule_at(now_ + std::max<Micros>(delta, 0), std::move(fn));
}

bool Simulation::pop_and_run() {
  if (queue_.empty()) return false;
  // Moved out of the heap before it runs, so handlers may schedule freely.
  std::pop_heap(queue_.begin(), queue_.end(), later);
  Event ev = std::move(queue_.back());
  queue_.pop_back();
  now_ = ev.time;
  ev.fn();
  return true;
}

std::size_t Simulation::run() {
  std::size_t count = 0;
  while (pop_and_run()) ++count;
  return count;
}

bool Simulation::step() { return pop_and_run(); }

std::size_t Simulation::run_until(Micros t) {
  std::size_t count = 0;
  while (!queue_.empty() && queue_.front().time <= t) {
    pop_and_run();
    ++count;
  }
  if (now_ < t) now_ = t;
  return count;
}

std::size_t Simulation::run_capped(std::size_t max_events) {
  std::size_t count = 0;
  while (pop_and_run()) {
    if (++count > max_events) {
      throw Error("Simulation::run_capped: event budget exceeded");
    }
  }
  return count;
}

}  // namespace amnesia::simnet
