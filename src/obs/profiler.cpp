#include "obs/profiler.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

#if defined(__linux__) && __has_include(<execinfo.h>)
#define AMNESIA_PROFILER_SUPPORTED 1
#include <dlfcn.h>
#include <execinfo.h>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <cxxabi.h>

// glibc < 2.35 spells the SIGEV_THREAD_ID field through the union only.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif
#else
#define AMNESIA_PROFILER_SUPPORTED 0
#endif

namespace amnesia::obs {

namespace {

constexpr const char kProfileHeader[] = "# amnesia profile v1";

}  // namespace

#if AMNESIA_PROFILER_SUPPORTED

namespace {

/// Stack frames the handler itself contributes (the handler and the
/// kernel's signal trampoline) — skipped so samples start at the
/// interrupted pc.
constexpr std::size_t kSkipFrames = 2;

/// Replaces the collapsed format's structural characters (';' separates
/// frames, whitespace separates stack from count) inside one token.
std::string sanitize_token(const std::string& s) {
  std::string out = s.empty() ? std::string("?") : s;
  for (char& c : out) {
    if (c == ';' || c == ' ' || c == '\t' || c == '\n' || c == '\r') c = '_';
  }
  return out;
}

}  // namespace

/// One thread's sample ring. The signal handler (the only writer, always
/// on the owning thread) fills the slot at head % kRingSlots field by
/// field with relaxed atomics, then publishes with a release store of
/// head+1. The scraper walks newest-to-oldest from an acquire load of
/// head and re-checks head after copying a slot: if the writer lapped it
/// mid-copy the sample is torn and the walk stops. Every shared field is
/// an atomic, so the protocol is clean under TSan as well as in theory.
struct Profiler::ThreadRing {
  struct Slot {
    std::atomic<std::int64_t> at{0};  // CLOCK_MONOTONIC us
    std::atomic<std::uint32_t> depth{0};
    std::atomic<std::uintptr_t> pc[kMaxDepth];
  };

  std::string name;  // registry-mutex-protected; fixed while armed
  pid_t tid = 0;
  pthread_t pthread{};
  timer_t timer{};
  bool armed = false;
  bool active = true;  // false once the owning thread unregistered
  std::uint64_t retired_seq = 0;
  std::atomic<std::uint64_t> head{0};
  Slot slots[kRingSlots];
};

namespace {

/// The calling thread's ring. Plain pointer TLS: reads in the signal
/// handler are one mov, with no lazy-init guard to trip over.
thread_local Profiler::ThreadRing* t_ring = nullptr;

std::atomic<bool> g_sampling{false};
std::atomic<std::uint64_t>* g_sample_counter = nullptr;

std::int64_t monotonic_us() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000 +
         ts.tv_nsec / 1'000;
}

extern "C" void amnesia_sigprof_handler(int /*signo*/, siginfo_t* /*info*/,
                                        void* /*ucontext*/) {
  const int saved_errno = errno;
  Profiler::ThreadRing* ring = t_ring;
  if (ring != nullptr && g_sampling.load(std::memory_order_relaxed)) {
    void* frames[Profiler::kMaxDepth + kSkipFrames];
    const int n =
        ::backtrace(frames, Profiler::kMaxDepth + kSkipFrames);
    const std::size_t depth =
        n > static_cast<int>(kSkipFrames)
            ? static_cast<std::size_t>(n) - kSkipFrames
            : 0;
    const std::uint64_t h = ring->head.load(std::memory_order_relaxed);
    auto& slot = ring->slots[h % Profiler::kRingSlots];
    slot.at.store(monotonic_us(), std::memory_order_relaxed);
    slot.depth.store(static_cast<std::uint32_t>(depth),
                     std::memory_order_relaxed);
    for (std::size_t i = 0; i < depth; ++i) {
      slot.pc[i].store(
          reinterpret_cast<std::uintptr_t>(frames[i + kSkipFrames]),
          std::memory_order_relaxed);
    }
    ring->head.store(h + 1, std::memory_order_release);
    if (g_sample_counter != nullptr) {
      g_sample_counter->fetch_add(1, std::memory_order_relaxed);
    }
  }
  errno = saved_errno;
}

}  // namespace

struct Profiler::State {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadRing>> rings;
  std::unordered_map<std::uintptr_t, std::string> symbol_cache;
  std::uint64_t retired_seq = 0;
  bool handler_installed = false;
};

Profiler::State& Profiler::state() {
  static std::once_flag once;
  std::call_once(once, [this] {
    state_ = new State();
    g_sample_counter = &samples_;
  });
  return *state_;
}

Profiler& Profiler::instance() {
  static Profiler* p = new Profiler();  // leaked: outlives every thread
  return *p;
}

bool Profiler::supported() { return true; }

void Profiler::arm_locked(ThreadRing& ring) {
  if (ring.armed || !ring.active) return;
  clockid_t cpu_clock{};
  if (pthread_getcpuclockid(ring.pthread, &cpu_clock) != 0) return;
  sigevent sev{};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = ring.tid;
  if (timer_create(cpu_clock, &sev, &ring.timer) != 0) return;
  const Micros period = period_us_.load(std::memory_order_relaxed);
  itimerspec its{};
  its.it_interval.tv_sec = period / 1'000'000;
  its.it_interval.tv_nsec = (period % 1'000'000) * 1'000;
  its.it_value = its.it_interval;
  if (timer_settime(ring.timer, 0, &its, nullptr) != 0) {
    timer_delete(ring.timer);
    return;
  }
  ring.armed = true;
}

void Profiler::disarm_locked(ThreadRing& ring) {
  if (!ring.armed) return;
  timer_delete(ring.timer);
  ring.armed = false;
}

void Profiler::start(Micros period_us) {
  State& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  if (period_us <= 0) period_us = kDefaultPeriodUs;
  const bool reperiod =
      period_us != period_us_.load(std::memory_order_relaxed);
  period_us_.store(period_us, std::memory_order_relaxed);
  if (!st.handler_installed) {
    // Force glibc's unwinder to do its one-time lazy setup (it may
    // allocate) outside signal context.
    void* warmup[2];
    ::backtrace(warmup, 2);
    struct sigaction sa{};
    sa.sa_sigaction = amnesia_sigprof_handler;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    st.handler_installed = true;
  }
  if (t_ring == nullptr) {
    auto ring = std::make_unique<ThreadRing>();
    ring->name = "main";
    ring->tid = static_cast<pid_t>(::syscall(SYS_gettid));
    ring->pthread = pthread_self();
    t_ring = ring.get();
    st.rings.push_back(std::move(ring));
  }
  g_sampling.store(true, std::memory_order_relaxed);
  running_.store(true, std::memory_order_release);
  for (auto& ring : st.rings) {
    if (reperiod) disarm_locked(*ring);
    arm_locked(*ring);
  }
}

void Profiler::stop() {
  State& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  g_sampling.store(false, std::memory_order_relaxed);
  running_.store(false, std::memory_order_release);
  for (auto& ring : st.rings) disarm_locked(*ring);
}

void Profiler::register_thread(const std::string& name) {
  State& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  if (t_ring != nullptr && t_ring->active) {
    t_ring->name = sanitize_token(name);
    return;
  }
  auto ring = std::make_unique<ThreadRing>();
  ring->name = sanitize_token(name);
  ring->tid = static_cast<pid_t>(::syscall(SYS_gettid));
  ring->pthread = pthread_self();
  t_ring = ring.get();
  st.rings.push_back(std::move(ring));
  if (running_.load(std::memory_order_relaxed)) {
    arm_locked(*st.rings.back());
  }
}

void Profiler::unregister_thread() {
  State& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  ThreadRing* ring = t_ring;
  if (ring == nullptr) return;
  disarm_locked(*ring);
  ring->active = false;
  ring->retired_seq = ++st.retired_seq;
  t_ring = nullptr;
  // Cap retired rings (drop oldest) so short-lived pools in long test
  // runs cannot grow the registry without bound. Active rings are owned
  // by live threads and never evicted here.
  std::size_t retired = 0;
  for (const auto& r : st.rings) retired += r->active ? 0 : 1;
  while (retired > kMaxRetired) {
    auto oldest = st.rings.end();
    for (auto it = st.rings.begin(); it != st.rings.end(); ++it) {
      if ((*it)->active) continue;
      if (oldest == st.rings.end() ||
          (*it)->retired_seq < (*oldest)->retired_seq) {
        oldest = it;
      }
    }
    if (oldest == st.rings.end()) break;
    st.rings.erase(oldest);
    --retired;
  }
}

namespace {

/// dladdr + demangle, falling back to `module+0x<off>` then raw hex.
std::string symbolize(std::uintptr_t pc) {
  Dl_info info{};
  if (dladdr(reinterpret_cast<void*>(pc), &info) != 0) {
    if (info.dli_sname != nullptr) {
      int status = 0;
      char* demangled =
          abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
      std::string out =
          status == 0 && demangled != nullptr ? demangled : info.dli_sname;
      std::free(demangled);
      return sanitize_token(out);
    }
    if (info.dli_fname != nullptr) {
      const char* base = std::strrchr(info.dli_fname, '/');
      base = base != nullptr ? base + 1 : info.dli_fname;
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s+0x%zx", base,
                    static_cast<std::size_t>(
                        pc - reinterpret_cast<std::uintptr_t>(
                                 info.dli_fbase)));
      return sanitize_token(buf);
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%zx", static_cast<std::size_t>(pc));
  return buf;
}

}  // namespace

std::string Profiler::collapsed(Micros window_us,
                                const std::string& thread_filter) {
  State& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  const std::int64_t cutoff =
      window_us > 0 ? monotonic_us() - window_us : 0;
  std::map<std::string, std::uint64_t> stacks;
  std::uintptr_t pcs[kMaxDepth];
  for (const auto& ring : st.rings) {
    if (!thread_filter.empty() && ring->name != thread_filter) continue;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t lo = head > kRingSlots ? head - kRingSlots : 0;
    for (std::uint64_t i = head; i-- > lo;) {
      const auto& slot = ring->slots[i % kRingSlots];
      const std::int64_t at = slot.at.load(std::memory_order_relaxed);
      const std::uint32_t depth =
          std::min<std::uint32_t>(slot.depth.load(std::memory_order_relaxed),
                                  kMaxDepth);
      for (std::uint32_t f = 0; f < depth; ++f) {
        pcs[f] = slot.pc[f].load(std::memory_order_relaxed);
      }
      // Torn-sample check: if the writer lapped this slot while we were
      // copying it, everything at and before it is being overwritten.
      if (ring->head.load(std::memory_order_acquire) > i + kRingSlots) break;
      if (at < cutoff) break;  // slots are time-ordered newest-to-oldest
      if (depth == 0) continue;
      std::string stack = ring->name;
      for (std::uint32_t f = depth; f-- > 0;) {  // root ... leaf
        auto [it, inserted] = st.symbol_cache.emplace(pcs[f], std::string());
        if (inserted) it->second = symbolize(pcs[f]);
        stack += ';';
        stack += it->second;
      }
      ++stacks[stack];
    }
  }
  std::vector<CollapsedLine> lines;
  lines.reserve(stacks.size());
  for (auto& [stack, count] : stacks) lines.push_back({stack, count});
  std::sort(lines.begin(), lines.end(), [](const auto& a, const auto& b) {
    return a.count != b.count ? a.count > b.count : a.stack < b.stack;
  });
  std::ostringstream out;
  out << kProfileHeader << '\n';
  for (const auto& line : lines) {
    out << line.stack << ' ' << line.count << '\n';
  }
  return out.str();
}

void Profiler::clear() {
  State& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  for (auto it = st.rings.begin(); it != st.rings.end();) {
    if (!(*it)->active) {
      it = st.rings.erase(it);
      continue;
    }
    // Dropping head to 0 would let the ring's writer republish stale
    // slots; instead mark every retained slot as ancient so window and
    // full scrapes both skip it.
    for (auto& slot : (*it)->slots) {
      slot.depth.store(0, std::memory_order_relaxed);
      slot.at.store(0, std::memory_order_relaxed);
    }
    ++it;
  }
  st.symbol_cache.clear();
}

#else  // !AMNESIA_PROFILER_SUPPORTED

struct Profiler::ThreadRing {};
struct Profiler::State {};

Profiler::State& Profiler::state() {
  static State st;
  return st;
}

Profiler& Profiler::instance() {
  static Profiler* p = new Profiler();
  return *p;
}

bool Profiler::supported() { return false; }
void Profiler::arm_locked(ThreadRing&) {}
void Profiler::disarm_locked(ThreadRing&) {}
void Profiler::start(Micros period_us) {
  if (period_us > 0) period_us_.store(period_us, std::memory_order_relaxed);
}
void Profiler::stop() {}
void Profiler::register_thread(const std::string&) {}
void Profiler::unregister_thread() {}
std::string Profiler::collapsed(Micros, const std::string&) {
  return std::string(kProfileHeader) + "\n";
}
void Profiler::clear() {}

#endif  // AMNESIA_PROFILER_SUPPORTED

// ------------------------------------------------- collapsed-text utils

std::vector<CollapsedLine> parse_collapsed(const std::string& text) {
  std::vector<CollapsedLine> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0 ||
        space + 1 >= line.size()) {
      continue;  // torn line from a faulted scrape leg: skip, don't fail
    }
    std::uint64_t count = 0;
    bool numeric = true;
    for (std::size_t i = space + 1; i < line.size(); ++i) {
      const char c = line[i];
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
      count = count * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (!numeric || count == 0) continue;
    out.push_back({line.substr(0, space), count});
  }
  return out;
}

std::string merge_collapsed(const std::vector<std::string>& parts) {
  std::map<std::string, std::uint64_t> stacks;
  for (const std::string& part : parts) {
    for (const CollapsedLine& line : parse_collapsed(part)) {
      stacks[line.stack] += line.count;
    }
  }
  std::vector<CollapsedLine> lines;
  lines.reserve(stacks.size());
  for (auto& [stack, count] : stacks) lines.push_back({stack, count});
  std::sort(lines.begin(), lines.end(), [](const auto& a, const auto& b) {
    return a.count != b.count ? a.count > b.count : a.stack < b.stack;
  });
  std::ostringstream out;
  out << kProfileHeader << '\n';
  for (const auto& line : lines) {
    out << line.stack << ' ' << line.count << '\n';
  }
  return out.str();
}

}  // namespace amnesia::obs
