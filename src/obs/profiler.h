// Always-on sampling CPU profiler (Google-Wide-Profiling style).
//
// The tracing layer answers "where did this request's time go"; this
// module answers "where does the *CPU* go" — the other half of the
// attribution story the capacity harness (ROADMAP item 2) reports
// through. Design:
//
//   * one POSIX per-thread CPU-time timer per registered thread
//     (timer_create on the thread's CPU clock, SIGEV_THREAD_ID), so a
//     thread is only sampled while it is actually running — an idle
//     reactor parked in epoll_pwait2 costs nothing;
//   * the SIGPROF handler captures a raw `backtrace()` into a lock-free
//     per-thread sample ring (all-atomic slots, drop-oldest). The
//     handler is async-signal-safe: no locks, no allocation, errno
//     saved/restored; the one lazy initialization inside glibc's
//     backtrace (loading the unwinder) is forced at start() time,
//     outside signal context;
//   * symbolization is lazy: raw pcs are resolved via dladdr +
//     __cxa_demangle only at scrape time, with a pc->name cache, so the
//     steady-state cost of a sample is one backtrace + ~30 relaxed
//     atomic stores;
//   * export is the collapsed-stack ("folded") text format flamegraph
//     tooling eats: `thread;outer;...;leaf count` lines under a
//     `# amnesia profile v1` header. merge_collapsed() sums identical
//     stacks across shards/replicas, which is how the shard router
//     serves one aggregate GET /profile exactly like /metrics.
//
// The profiler is a process-wide singleton because SIGPROF is a
// process-wide resource. Shards and cluster replicas that share one
// process (every testbed, and the per-core shards in production) are
// distinguished by *thread*: each ReactorPool thread registers as
// "reactor-<i>", and a per-shard scrape filters on its thread name.
//
// Platform: Linux + glibc (execinfo.h, timer_create). On anything else
// supported() is false and every entry point degrades to a no-op that
// still returns a well-formed (empty) profile.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"

namespace amnesia::obs {

/// One parsed line of a collapsed-stack profile.
struct CollapsedLine {
  std::string stack;  // "thread;outer;...;leaf"
  std::uint64_t count = 0;

  bool operator==(const CollapsedLine&) const = default;
};

class Profiler {
 public:
  /// The process-wide instance (SIGPROF has process scope).
  static Profiler& instance();

  /// True when the platform has the pieces (execinfo + POSIX per-thread
  /// CPU timers). When false, start/register are no-ops and collapsed()
  /// returns just the header.
  static bool supported();

  /// Arms sampling: installs the SIGPROF handler, registers the calling
  /// thread (as "main", unless it already registered under another
  /// name), and starts a CPU-time timer for every registered thread.
  /// Idempotent; a second call with a different period re-arms at the
  /// new period.
  void start(Micros period_us = kDefaultPeriodUs);

  /// Disarms all timers. Rings keep their samples (scrapes still work).
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  Micros period_us() const {
    return period_us_.load(std::memory_order_relaxed);
  }

  /// Registers the calling thread's sample ring under `name` and, if the
  /// profiler is running, arms its timer. Calling again on the same
  /// thread renames its ring. Thread names are sanitized to the collapsed
  /// format's alphabet (no whitespace, no ';').
  void register_thread(const std::string& name);

  /// Disarms and retires the calling thread's ring. Must run on the
  /// thread itself, before it exits (ReactorPool does this for its
  /// threads). Retired rings stay scrapeable until clear() or until the
  /// retired-ring cap evicts them.
  void unregister_thread();

  /// Collapsed-stack export. `window_us` > 0 keeps only samples taken in
  /// the last window (CLOCK_MONOTONIC domain — the /profile?ms=N query);
  /// 0 exports everything retained. A non-empty `thread_filter` keeps
  /// only rings whose thread name matches exactly (the per-shard scrape).
  std::string collapsed(Micros window_us = 0,
                        const std::string& thread_filter = std::string());

  /// Drops every retained sample and all retired rings.
  void clear();

  /// Samples captured process-wide since start (monotonic, relaxed).
  std::uint64_t samples_captured() const {
    return samples_.load(std::memory_order_relaxed);
  }

  static constexpr Micros kDefaultPeriodUs = 2'000;  // 500 Hz per thread
  static constexpr std::size_t kMaxDepth = 24;
  static constexpr std::size_t kRingSlots = 1024;
  /// Retired (unregistered-thread) rings retained for scraping.
  static constexpr std::size_t kMaxRetired = 8;

  /// One thread's sample ring; defined in the .cpp (public only so the
  /// signal handler's thread-local pointer can name the type).
  struct ThreadRing;

 private:
  Profiler() = default;

  void arm_locked(ThreadRing& ring);
  void disarm_locked(ThreadRing& ring);

  std::atomic<bool> running_{false};
  std::atomic<Micros> period_us_{kDefaultPeriodUs};
  std::atomic<std::uint64_t> samples_{0};

  // Registry of rings + the symbol cache; the signal handler never takes
  // this mutex (it reaches its ring through a thread-local pointer).
  struct State;
  State* state_ = nullptr;  // allocated on first use, never freed
  State& state();
};

/// Parses a collapsed profile (header + `stack count` lines). Unknown or
/// malformed lines are skipped — scrape merging must not fail because one
/// shard produced a torn line.
std::vector<CollapsedLine> parse_collapsed(const std::string& text);

/// Sums identical stacks across several collapsed profiles and re-emits
/// one deterministic profile (count descending, then stack ascending) —
/// the shard router's aggregate GET /profile.
std::string merge_collapsed(const std::vector<std::string>& parts);

/// The `n` hottest stacks of a collapsed profile (same order as
/// merge_collapsed output) — the bench hotspot table.
std::vector<CollapsedLine> top_collapsed(const std::string& text,
                                         std::size_t n);

}  // namespace amnesia::obs
