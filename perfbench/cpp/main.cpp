// Open-loop layered benchmark (see ../README.md).
//
//   amnesia_perfbench --workload <login-kdf|password-round|replicated-write>
//                     --seed <n> --seconds <s> --trace <0|1>
//                     [--smoke] [--corrupt-oracle]
//
// One generator thread (this one, on its own net::EventLoop) offers a
// Poisson stream of requests at a fixed rate over real loopback TCP and
// times each from when it was due. --trace 0 reports the end-to-end
// metrics of a nominal-rate phase. --trace 1 reports the per-layer
// metrics: an untraced window, then a traced window with the sampling
// profiler on, then the layer replays and a geometric ramp for capacity.
// --smoke makes a seconds-long run for the self-test; --corrupt-oracle
// breaks one expected password to prove the oracle check fails the run.
// The last stdout line is one JSON object; the exit code is non-zero if
// any check failed.
#include <sys/epoll.h>
#include <sys/timerfd.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "client/browser.h"
#include "crypto/drbg.h"
#include "deployment.h"
#include "layers.h"
#include "net/event_loop.h"
#include "net/rpc.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "stats.h"
#include "websvc/client.h"
#include "websvc/http.h"
#include "websvc/pool.h"

namespace perfbench {
namespace {

using amnesia::Result;
using amnesia::Status;
namespace obs = amnesia::obs;
namespace websvc = amnesia::websvc;

// ---------------------------------------------------------------- workloads

enum class OpKind { kLogin, kRead, kRound, kAdd, kRotate };
enum OpClass { kLoginClass, kReadClass, kRoundClass, kWriteClass, kClasses };
const char* const kClassNames[kClasses] = {"login", "read", "round", "write"};

OpClass class_of(OpKind k) {
  switch (k) {
    case OpKind::kLogin: return kLoginClass;
    case OpKind::kRead: return kReadClass;
    case OpKind::kRound: return kRoundClass;
    default: return kWriteClass;
  }
}

struct WorkloadDef {
  std::string name;
  DeploymentSpec deployment;
  // Traffic mix; the rest of 1 are writes, alternately add and rotate.
  double login = 0, read = 0, round = 0;
  double nominal_rps = 0;
  double ramp_from_rps = 0;  // where the capacity ramp starts
  OpClass primary = kReadClass;
  OpClass secondary = kReadClass;
  double slo_ms = 0;  // ramp limit on the primary class's p99
  std::size_t visit_connections = 0;  // TCP connections logins use
  std::size_t pool_connections = 4;
};

std::vector<WorkloadDef> workloads() {
  std::vector<WorkloadDef> w(3);
  w[0].name = "login-kdf";
  w[0].deployment.topology = Topology::kSharded;
  w[0].deployment.servers = 2;
  w[0].login = 0.1;
  w[0].read = 0.9;
  w[0].nominal_rps = 300;
  w[0].ramp_from_rps = 900;
  w[0].primary = kLoginClass;
  w[0].secondary = kReadClass;
  w[0].slo_ms = 500;
  w[0].visit_connections = 2;
  w[0].pool_connections = 2;

  w[1].name = "password-round";
  w[1].deployment.topology = Topology::kSharded;
  w[1].deployment.servers = 2;
  w[1].round = 0.8;
  w[1].read = 0.2;
  w[1].nominal_rps = 500;
  w[1].ramp_from_rps = 8000;
  w[1].primary = kRoundClass;
  w[1].secondary = kReadClass;
  w[1].slo_ms = 50;

  w[2].name = "replicated-write";
  w[2].deployment.topology = Topology::kReplicated;
  w[2].deployment.servers = 3;
  w[2].deployment.rotating_account = true;
  w[2].round = 0.6;
  w[2].read = 0.2;
  w[2].nominal_rps = 400;
  w[2].ramp_from_rps = 1200;
  w[2].primary = kWriteClass;
  w[2].secondary = kRoundClass;
  w[2].slo_ms = 50;
  return w;
}

// Run validity bounds at the nominal rate.
constexpr double kLagBoundUs = 20'000;  // generator lateness, p99
// Logins that forget their ticket first, so they pay a full X25519
// handshake instead of a resume.
constexpr double kColdLoginShare = 0.1;
constexpr std::size_t kBacklogBound = 256;  // ops in flight, max
// The generator wakes this long before each arrival and spins until it:
// long enough to cover waking an idle vCPU, short enough (2% of a core at
// 400 req/s) to leave the cores to the server.
constexpr std::int64_t kSpinUs = 50;
constexpr std::size_t kMinClassSamples = 200;
// The profiler's per-thread CPU-time timers expire on the scheduler tick,
// so a reactor yields at most CONFIG_HZ samples per busy second (250 on
// the build host): at the nominal rates a 27 s traced window gives about
// 700-1300. Asking for 1 kHz makes sure the timer, not the period, is the
// limit.
constexpr std::uint64_t kMinProfileSamples = 500;
constexpr amnesia::Micros kProfilePeriodUs = 1'000;
// Traced runs: an untraced window this long (the CPU-per-op baseline the
// tracing overhead is measured from), then the traced window.
constexpr std::int64_t kUntracedUs = 5'000'000;
// The capacity ramp (traced runs, after the replays) climbs from the
// workload's ramp_from_rps in 5% steps of 0.3 s until a step fails. A
// step is judged once its ops have had the SLO to finish, over a window
// of kJudgeSteps steps ending at it, so its p99 rests on enough samples
// that one slow op does not decide it. A shard that stalls (a round holds
// a modelled worker until its phone token, which needs one too, arrives)
// therefore fails its step within a second instead of hanging the run;
// the ops it leaves behind are abandoned after kRampDrainUs.
// kMaxRampSteps (10.4x ramp_from_rps) is a safety stop.
constexpr double kRampStep = 1.05;
constexpr int kMaxRampSteps = 48;
constexpr std::int64_t kRampStepUs = 300'000;
constexpr std::int64_t kRampDrainUs = 2'000'000;
constexpr int kJudgeSteps = 5;
// End-to-end runs set up this many times and report the median set-up.
constexpr int kSetups = 3;
// End-to-end runs split the nominal phase into this many windows and
// report the median of the per-window figures.
constexpr int kWindows = 9;
// --smoke: a seconds-long run for the self-test, with fewer users, one
// set-up, half the nominal rate and no sample-count minimums.
constexpr std::size_t kSmokeUsers = 16;
constexpr double kSmokeRateScale = 0.5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  bool corrupt_oracle = false;
};

// ------------------------------------------------------------------ runner

struct Op {
  OpKind kind = OpKind::kRead;
  std::uint32_t user = 0;
  std::uint32_t site = 0;
  bool cold = false;
  int phase = 0;
  std::int64_t due = 0;
  std::int64_t sent = 0;
  std::int64_t done = 0;
  bool finished = false;
  bool ok = false;
  bool abandoned = false;
};

struct Span {
  const char* name;
  std::size_t op;
  std::int64_t start;
  std::int64_t end;
};

/// A browser tab: a wire-backed browser whose secure channel is reset
/// for every login, so it carries one login at a time.
struct Tab {
  std::unique_ptr<amnesia::crypto::ChaChaDrbg> rng;
  std::unique_ptr<amnesia::client::Browser> browser;
  bool busy = false;
};

/// One "visit" TCP connection. Its tabs' channels share it, so logins
/// queue only when every tab is mid-login.
struct Visit {
  std::unique_ptr<amnesia::net::TcpTransport> tcp;
  std::unique_ptr<amnesia::net::RpcClient> rpc;
  std::vector<std::unique_ptr<Tab>> tabs;
  std::deque<std::size_t> queue;
  std::size_t in_flight = 0;  // queued + running logins
};
constexpr std::size_t kTabsPerVisit = 8;

enum Phase : int { kWarmup = 0, kMeasured = 1, kTraced = 2, kRamp0 = 3 };

class Runner {
 public:
  Runner(Deployment& dep, const WorkloadDef& wl, std::uint64_t seed)
      : dep_(dep),
        wl_(wl),
        rng_(seed * 0x9e3779b97f4a7c15ull + 1),
        user_zipf_(dep.spec().users, 1.0),
        site_zipf_(dep.spec().sites, 1.0),
        seed_(seed),
        client_rng_(seed + 77) {
    wake_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    if (wake_fd_ < 0) throw std::runtime_error("timerfd_create failed");
    loop_.add_fd(wake_fd_, EPOLLIN, [this](std::uint32_t) {
      std::uint64_t expirations;
      [[maybe_unused]] const ssize_t n =
          read(wake_fd_, &expirations, sizeof expirations);
    });
  }

  /// Dials the pool and the visit connections. With SO_REUSEPORT the
  /// kernel picks each connection's shard; connections are redialed until
  /// every shard holds an equal share, so every run measures the same
  /// topology rather than a random one.
  void connect() {
    const bool spread = dep_.spec().topology == Topology::kSharded;
    for (std::size_t attempt = 0;; ++attempt) {
      if (attempt == kMaxDialAttempts) {
        throw std::runtime_error("could not spread the pool over the shards");
      }
      const auto before = dep_.open_connections();
      make_pool();
      // Concurrent requests make the pool dial one entry each.
      std::size_t done = 0;
      for (std::size_t i = 0; i < wl_.pool_connections; ++i) {
        http_[i]->get("/healthz",
                      [&done](Result<websvc::Response>) { ++done; });
      }
      wait_for([&] { return done == wl_.pool_connections; }, "pool dial");
      const auto added = wait_dialed(before, wl_.pool_connections);
      if (!spread || evenly_spread(added)) break;
      pool_.reset();
      http_.clear();
      wait_for([&] { return dep_.open_connections() == before; }, "pool close");
    }
    std::vector<std::size_t> per_shard(dep_.open_connections().size(), 0);
    const std::size_t quota =
        (wl_.visit_connections + per_shard.size() - 1) / per_shard.size();
    for (std::size_t v = 0, attempt = 0; v < wl_.visit_connections;
         ++attempt) {
      if (attempt == kMaxDialAttempts) {
        throw std::runtime_error("could not spread the visits over the shards");
      }
      const auto before = dep_.open_connections();
      auto visit = make_visit(v);
      bool answered = false;
      visit->tabs.front()->browser->list_accounts(
          [&answered](Result<std::vector<std::string>>) { answered = true; });
      wait_for([&] { return answered; }, "visit dial");
      const auto added = wait_dialed(before, 1);
      const std::size_t shard = static_cast<std::size_t>(
          std::max_element(added.begin(), added.end()) - added.begin());
      if (!spread || per_shard[shard] < quota) {
        ++per_shard[shard];
        visits_.push_back(std::move(visit));
        ++v;
        continue;
      }
      visit->rpc->close();
      visit.reset();
      wait_for([&] { return dep_.open_connections() == before; },
               "visit close");
    }
  }

  ~Runner() {
    closing_ = true;
    // The pool first, while the HttpClients its callbacks reach are alive.
    pool_.reset();
    http_.clear();
    for (auto& v : visits_) v->rpc->close();
    visits_.clear();
    loop_.del_fd(wake_fd_);
    close(wake_fd_);
  }

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// Setup logins: one POST /login per user over the pool, so every
  /// user's cookie jar holds a live session.
  void login_all() {
    std::size_t done = 0, failed = 0;
    for (std::size_t u = 0; u < http_.size(); ++u) {
      http_[u]->post_form(
          "/login",
          {{"user", user_name(u)}, {"master_password", kMasterPassword}},
          [&done, &failed](Result<websvc::Response> r) {
            if (!r.ok() || r.value().status != 200) ++failed;
            ++done;
          });
    }
    const std::int64_t deadline = now_us() + 120'000'000;
    while (done < http_.size() && now_us() < deadline) loop_.poll(1'000);
    if (done < http_.size() || failed > 0) {
      throw std::runtime_error("setup logins failed");
    }
  }

  /// Offers a Poisson stream at `rate` for `duration_us`; `tick` runs
  /// about every 250 ms.
  void run(double rate, std::int64_t duration_us, int phase,
           const std::function<void()>& tick = {}) {
    std::exponential_distribution<double> gap(rate / 1e6);
    const std::int64_t begin = now_us();
    const std::int64_t end = begin + duration_us;
    double next = static_cast<double>(begin) + gap(rng_);
    std::int64_t last_tick = begin;
    for (;;) {
      const std::int64_t now = now_us();
      if (next <= static_cast<double>(now) && next < static_cast<double>(end)) {
        const double c0 = thread_cpu_us();
        while (next <= static_cast<double>(now) &&
               next < static_cast<double>(end)) {
          new_op(static_cast<std::int64_t>(next), phase);
          next += gap(rng_);
        }
        gen_busy_cpu_us_ += thread_cpu_us() - c0;
      }
      if (now >= end) break;
      // epoll_wait sleeps in whole milliseconds, so the generator sleeps
      // in the loop until a response or a timerfd set kSpinUs before the
      // next arrival, and spins from there. It sees every response as it
      // lands and is awake when an op falls due, so neither the latency
      // nor the lag carries the generator's own wake-up. It must not nap
      // between polls: an op that finishes during a nap pays the rest of
      // it, which splits a fast op's latencies into two modes and leaves
      // their p50 to jump between them from run to run.
      const std::int64_t due =
          static_cast<std::int64_t>(std::min(next, static_cast<double>(end)));
      std::int64_t wait_us = 0;
      if (due - now > kSpinUs) {
        arm_wake(due - kSpinUs);
        wait_us = due - kSpinUs - now + 1'000;
      }
      const double c0 = thread_cpu_us();
      if (loop_.poll(wait_us) > 0) gen_busy_cpu_us_ += thread_cpu_us() - c0;
      if (tick && now - last_tick >= 250'000) {
        tick();
        last_tick = now;
      }
    }
  }

  /// Waits for every op in flight; ops still open at the deadline are
  /// abandoned (and count as failed). Returns whether all finished.
  bool drain(std::int64_t timeout_us) {
    const std::int64_t deadline = now_us() + timeout_us;
    while (in_flight_ > 0 && now_us() < deadline) loop_.poll(1'000);
    if (in_flight_ == 0) return true;
    for (Op& op : ops_) {
      if (!op.finished && !op.abandoned) op.abandoned = true;
    }
    in_flight_ = 0;
    return false;
  }

  /// Polls the client loop for `us` without offering load.
  void idle(std::int64_t us) {
    const std::int64_t end = now_us() + us;
    while (now_us() < end) loop_.poll(1'000);
  }

  const std::vector<Op>& ops() const { return ops_; }
  /// Grows the op log ahead of a phase, so it is not copied mid-phase.
  void reserve(std::size_t ops) { ops_.reserve(ops_.size() + ops); }
  std::size_t in_flight() const { return in_flight_; }
  std::size_t take_max_in_flight() {
    const std::size_t m = max_in_flight_;
    max_in_flight_ = in_flight_;
    return m;
  }
  std::uint64_t oracle_mismatches() const { return oracle_mismatches_; }
  double gen_busy_cpu_us() const { return gen_busy_cpu_us_; }
  obs::MetricsRegistry& client_metrics() { return client_metrics_; }
  void set_capture(bool on) { capture_ = on; }
  const WireCapture& wire() const { return wire_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  static constexpr std::size_t kMaxDialAttempts = 64;

  /// Sets the wake timerfd to fire at `at_us` on the now_us() clock
  /// (steady_clock, which is CLOCK_MONOTONIC).
  void arm_wake(std::int64_t at_us) {
    if (at_us == armed_us_) return;
    armed_us_ = at_us;
    itimerspec t{};
    t.it_value.tv_sec = at_us / 1'000'000;
    t.it_value.tv_nsec = (at_us % 1'000'000) * 1'000;
    timerfd_settime(wake_fd_, TFD_TIMER_ABSTIME, &t, nullptr);
  }

  void make_pool() {
    websvc::ConnectionPoolConfig pc;
    pc.max_connections = wl_.pool_connections;
    pc.metrics = &client_metrics_;
    pool_ = std::make_unique<websvc::ConnectionPool>(
        loop_, "127.0.0.1", dep_.port(), dep_.public_key(), client_rng_, pc);
    websvc::ByteTransport base = pool_->transport();
    // Every request goes through here: the pool-pick span and the wire
    // capture the layer replays run on.
    websvc::ByteTransport traced = [this, base](
        amnesia::Bytes req,
        std::function<void(Result<amnesia::Bytes>)> cb) {
      if (!capture_) {
        base(std::move(req), std::move(cb));
        return;
      }
      auto copy = std::make_shared<amnesia::Bytes>(req);
      const std::int64_t t0 = now_us();
      base(std::move(req), [this, copy, t0, cb = std::move(cb)](
                               Result<amnesia::Bytes> r) {
        if (capture_ && r.ok()) {
          wire_.add(*copy, r.value());
          spans_.push_back(Span{"pool.roundtrip", 0, t0, now_us()});
        }
        cb(std::move(r));
      });
      spans_.push_back(Span{"pool.send", 0, t0, now_us()});
    };
    http_.clear();
    for (std::size_t u = 0; u < dep_.spec().users; ++u) {
      http_.push_back(std::make_unique<websvc::HttpClient>(traced));
    }
  }

  std::unique_ptr<Visit> make_visit(std::size_t v) {
    auto visit = std::make_unique<Visit>();
    visit->tcp = std::make_unique<amnesia::net::TcpTransport>(
        loop_, "127.0.0.1", dep_.port());
    visit->rpc = std::make_unique<amnesia::net::RpcClient>(*visit->tcp);
    for (std::size_t t = 0; t < kTabsPerVisit; ++t) {
      auto tab = std::make_unique<Tab>();
      tab->rng = std::make_unique<amnesia::crypto::ChaChaDrbg>(
          seed_ + 1000 * (v + 1) + t);
      tab->browser = std::make_unique<amnesia::client::Browser>(
          visit->rpc->wire(), dep_.public_key(), *tab->rng,
          "perfbench-visit-" + std::to_string(v) + "-" + std::to_string(t));
      tab->browser->channel().set_metrics(&client_metrics_, &loop_.clock());
      visit->tabs.push_back(std::move(tab));
    }
    return visit;
  }

  void wait_for(const std::function<bool()>& pred, const char* what) {
    const std::int64_t deadline = now_us() + 10'000'000;
    while (!pred()) {
      if (now_us() > deadline) {
        throw std::runtime_error(std::string("setup stalled: ") + what);
      }
      loop_.poll(1'000);
    }
  }

  /// Per-shard connections opened since `before`, once `n` have appeared.
  std::vector<std::int64_t> wait_dialed(const std::vector<std::int64_t>& before,
                                        std::size_t n) {
    std::vector<std::int64_t> added;
    wait_for(
        [&] {
          const auto now = dep_.open_connections();
          added.assign(now.size(), 0);
          std::int64_t total = 0;
          for (std::size_t k = 0; k < now.size(); ++k) {
            added[k] = now[k] - before[k];
            total += added[k];
          }
          return total == static_cast<std::int64_t>(n);
        },
        "connection count");
    return added;
  }

  static bool evenly_spread(const std::vector<std::int64_t>& added) {
    const auto [lo, hi] = std::minmax_element(added.begin(), added.end());
    return *hi - *lo <= 1;
  }

  void new_op(std::int64_t due, int phase) {
    Op op;
    op.due = due;
    op.phase = phase;
    // Fixed draws per op, so the sequence of inputs depends on the seed
    // alone, whatever the timing.
    const double pick = std::uniform_real_distribution<double>(0, 1)(rng_);
    op.user = static_cast<std::uint32_t>(user_zipf_(rng_));
    op.site = static_cast<std::uint32_t>(site_zipf_(rng_));
    op.cold = std::uniform_real_distribution<double>(0, 1)(rng_) <
              kColdLoginShare;
    if (pick < wl_.login) {
      op.kind = OpKind::kLogin;
    } else if (pick < wl_.login + wl_.read) {
      op.kind = OpKind::kRead;
    } else if (pick < wl_.login + wl_.read + wl_.round) {
      op.kind = OpKind::kRound;
    } else {
      op.kind = (ops_.size() % 2 == 0) ? OpKind::kAdd : OpKind::kRotate;
    }
    ops_.push_back(op);
    issue(ops_.size() - 1);
  }

  void issue(std::size_t i) {
    Op& op = ops_[i];
    op.sent = now_us();
    ++in_flight_;
    max_in_flight_ = std::max(max_in_flight_, in_flight_);
    websvc::HttpClient& http = *http_[op.user];
    const std::string user = user_name(op.user);
    switch (op.kind) {
      case OpKind::kLogin: {
        Visit* best = visits_.front().get();
        for (auto& v : visits_) {
          if (v->in_flight < best->in_flight) best = v.get();
        }
        ++best->in_flight;
        best->queue.push_back(i);
        start_logins(*best);
        break;
      }
      case OpKind::kRead:
        http.get("/accounts", [this, i](Result<websvc::Response> r) {
          // Every user holds site-0, so its line must be listed.
          complete(i, r.ok() && r.value().status == 200 &&
                          r.value().body.find(site_domain(0)) !=
                              std::string::npos);
        });
        break;
      case OpKind::kRound: {
        websvc::Request req;
        req.method = websvc::Method::kPost;
        req.path = "/password/request";
        req.headers["Content-Type"] = "application/x-www-form-urlencoded";
        req.headers["X-Origin-IP"] = "perfbench";
        req.body = websvc::form_encode(
            {{"username", user}, {"domain", site_domain(op.site)}});
        http.send(std::move(req), [this, i](Result<websvc::Response> r) {
          if (closing_) return;
          bool ok = r.ok() && r.value().status == 200;
          if (ok) {
            const auto form = r.value().form();
            const auto it = form.find("password");
            const Op& o = ops_[i];
            if (it == form.end() || it->second != dep_.expected(o.user, o.site)) {
              ++oracle_mismatches_;
              ok = false;
            }
          }
          complete(i, ok);
        });
        break;
      }
      case OpKind::kAdd:
        http.post_form(
            "/accounts/add",
            {{"username", user},
             {"domain", "w-" + std::to_string(write_seq_++) + ".example"}},
            [this, i](Result<websvc::Response> r) {
              complete(i, r.ok() && r.value().status == 200);
            });
        break;
      case OpKind::kRotate:
        http.post_form("/accounts/rotate",
                       {{"username", user}, {"domain", kRotatingDomain}},
                       [this, i](Result<websvc::Response> r) {
                         complete(i, r.ok() && r.value().status == 200);
                       });
        break;
    }
  }

  /// Hands queued logins to free tabs: each gets a fresh secure channel
  /// (a ticket resume, or a full X25519 handshake for a cold login).
  void start_logins(Visit& v) {
    for (auto& tab_ptr : v.tabs) {
      if (closing_ || v.queue.empty()) return;
      Tab& tab = *tab_ptr;
      if (tab.busy) continue;
      const std::size_t i = v.queue.front();
      v.queue.pop_front();
      tab.busy = true;
      const Op& op = ops_[i];
      if (op.cold) tab.browser->channel().forget_ticket();
      tab.browser->channel().reset();
      const std::int64_t t0 = now_us();
      tab.browser->login(user_name(op.user), kMasterPassword,
                         [this, &v, &tab, i, t0](Status s) {
                           if (closing_) return;
                           if (capture_) {
                             spans_.push_back(
                                 Span{"visit.login", i, t0, now_us()});
                           }
                           tab.busy = false;
                           --v.in_flight;
                           complete(i, s.ok());
                           start_logins(v);
                         });
    }
  }

  void complete(std::size_t i, bool ok) {
    if (closing_) return;
    Op& op = ops_[i];
    if (op.finished || op.abandoned) return;
    op.finished = true;
    op.ok = ok;
    op.done = now_us();
    --in_flight_;
    if (capture_) {
      spans_.push_back(Span{"op.wait", i, op.due, op.sent});
      spans_.push_back(Span{"op", i, op.due, op.done});
    }
  }

  Deployment& dep_;
  const WorkloadDef& wl_;
  std::mt19937_64 rng_;
  Zipf user_zipf_;
  Zipf site_zipf_;
  std::vector<Op> ops_;
  std::size_t in_flight_ = 0;
  std::size_t max_in_flight_ = 0;
  std::uint64_t oracle_mismatches_ = 0;
  std::uint64_t write_seq_ = 0;
  std::uint64_t seed_;
  double gen_busy_cpu_us_ = 0;
  bool capture_ = false;
  bool closing_ = false;
  WireCapture wire_;
  std::vector<Span> spans_;
  obs::MetricsRegistry client_metrics_{nullptr};
  // Declared after everything the clients' callbacks touch, and before
  // the clients themselves, so it outlives them.
  amnesia::net::EventLoop loop_;
  int wake_fd_ = -1;  // timerfd for the next arrival, watched by loop_
  std::int64_t armed_us_ = -1;
  amnesia::crypto::ChaChaDrbg client_rng_;
  std::unique_ptr<websvc::ConnectionPool> pool_;
  std::vector<std::unique_ptr<websvc::HttpClient>> http_;
  std::vector<std::unique_ptr<Visit>> visits_;
};

// ------------------------------------------------------------ phase stats

struct ClassStats {
  std::vector<double> latency_ms;  // completed ok, from due time
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double p50() const { return percentile(latency_ms, 0.50); }
  double p99() const { return percentile(latency_ms, 0.99); }
};

struct PhaseStats {
  ClassStats cls[kClasses];
  ClassStats all;  // counts only
  std::vector<double> lag_us;
  std::size_t completed_ok = 0;
};

PhaseStats phase_stats(const std::vector<Op>& ops, int phase) {
  PhaseStats s;
  for (const Op& op : ops) {
    if (op.phase != phase) continue;
    ClassStats& c = s.cls[class_of(op.kind)];
    ++c.attempted;
    ++s.all.attempted;
    s.lag_us.push_back(static_cast<double>(op.sent - op.due));
    if (op.finished && op.ok) {
      const double ms = static_cast<double>(op.done - op.due) / 1e3;
      c.latency_ms.push_back(ms);
      ++s.completed_ok;
    } else {
      ++c.failed;
      ++s.all.failed;
    }
  }
  return s;
}

// --------------------------------------------------------- registry views

obs::Snapshot merged(const std::vector<obs::MetricsRegistry*>& regs) {
  obs::Snapshot out;
  for (obs::MetricsRegistry* r : regs) obs::merge_snapshot(out, r->snapshot());
  return out;
}

double counter_delta(const obs::Snapshot& a, const obs::Snapshot& b,
                     const std::string& name) {
  const auto ia = a.counters.find(name);
  const auto ib = b.counters.find(name);
  const double va = ia == a.counters.end() ? 0 : static_cast<double>(ia->second);
  const double vb = ib == b.counters.end() ? 0 : static_cast<double>(ib->second);
  return vb - va;
}

/// The histogram's recordings between two snapshots.
obs::HistogramSnapshot hist_delta(const obs::Snapshot& a,
                                  const obs::Snapshot& b,
                                  const std::string& name) {
  obs::HistogramSnapshot d;
  const auto ib = b.histograms.find(name);
  if (ib == b.histograms.end()) return d;
  d = ib->second;
  d.exemplars.clear();
  d.min = 0;
  const auto ia = a.histograms.find(name);
  if (ia != a.histograms.end() && ia->second.counts.size() == d.counts.size()) {
    d.count -= ia->second.count;
    d.sum -= ia->second.sum;
    for (std::size_t i = 0; i < d.counts.size(); ++i) {
      d.counts[i] -= ia->second.counts[i];
    }
  }
  return d;
}

/// Upper bound of the highest non-empty bucket (the window's max, to
/// bucket resolution).
double hist_max(const obs::HistogramSnapshot& h) {
  for (std::size_t i = h.counts.size(); i-- > 0;) {
    if (h.counts[i] == 0) continue;
    return i < h.bounds.size() ? static_cast<double>(h.bounds[i])
                               : static_cast<double>(h.max);
  }
  return 0;
}

double gauge_max(const std::vector<obs::MetricsRegistry*>& regs,
                 const std::string& name) {
  double m = 0;
  for (obs::MetricsRegistry* r : regs) {
    m = std::max(m, static_cast<double>(r->gauge(name).value()));
  }
  return m;
}

// --------------------------------------------------------------- printing

void print_host(const Options& opt, const WorkloadDef& wl, double rate) {
  utsname un{};
  uname(&un);
  std::printf("host: nproc=%ld kernel=%s build_type=%s cxx_flags=\"%s\" "
              "native=0 compiler=\"gcc %s\"\n",
              sysconf(_SC_NPROCESSORS_ONLN), un.release, PERFBENCH_BUILD_TYPE,
              PERFBENCH_CXX_FLAGS, __VERSION__);
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d "
              "offered_rps=%.1f users=%zu sites=%zu\n",
              wl.name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace, rate, wl.deployment.users,
              wl.deployment.sites);
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::printf("WARNING: %s build; timings are not comparable to Release\n",
                PERFBENCH_BUILD_TYPE);
  }
}

void print_phase(const char* label, const PhaseStats& s, double seconds) {
  std::printf("%s: attempted=%zu failed=%zu achieved_rps=%.1f "
              "gen_lag_us p50=%.0f p99=%.0f max=%.0f\n",
              label, s.all.attempted, s.all.failed,
              static_cast<double>(s.completed_ok) / seconds,
              percentile(s.lag_us, 0.5), percentile(s.lag_us, 0.99),
              percentile(s.lag_us, 1.0));
  for (int c = 0; c < kClasses; ++c) {
    if (s.cls[c].attempted == 0) continue;
    const auto& l = s.cls[c].latency_ms;
    std::printf("  %-6s n=%-6zu p25=%.3f p50=%.3f p75=%.3f p90=%.3f "
                "p99=%.3f ms failed=%zu\n",
                kClassNames[c], l.size(), percentile(l, 0.25),
                percentile(l, 0.5), percentile(l, 0.75), percentile(l, 0.9),
                percentile(l, 0.99), s.cls[c].failed);
  }
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const MetricList& metrics) {
  for (const Metric& m : metrics.items()) {
    std::printf("metric %-34s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.items()) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + json_escape(m.name) + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + json_escape(m.unit) +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Writes the spans to spans/<workload>-seed<n>.jsonl beside the binary.
void write_spans(const std::string& workload, std::uint64_t seed,
                 const Runner& r) {
  std::error_code ec;
  const auto dir =
      std::filesystem::read_symlink("/proc/self/exe", ec).parent_path() /
      "spans";
  std::filesystem::create_directories(dir, ec);
  std::ofstream out(dir / (workload + "-seed" + std::to_string(seed) + ".jsonl"));
  if (!out) return;
  const auto& ops = r.ops();
  for (const Span& s : r.spans()) {
    out << "{\"name\": \"" << s.name << "\", \"start_us\": " << s.start
        << ", \"end_us\": " << s.end;
    if (std::strncmp(s.name, "pool.", 5) != 0) {
      out << ", \"op\": " << s.op << ", \"class\": \""
          << kClassNames[class_of(ops[s.op].kind)] << "\"";
    }
    out << "}\n";
  }
}

// ------------------------------------------------------------- the runs

struct Checks {
  bool ok = true;
  void require(bool cond, const std::string& what) {
    if (!cond) {
      ok = false;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
};

/// Validity of a measured phase at the nominal rate.
void check_phase(Checks& checks, bool count_samples, const WorkloadDef& wl,
                 const PhaseStats& s, std::size_t max_backlog,
                 std::uint64_t mismatches) {
  checks.require(s.all.failed == 0,
                 std::to_string(s.all.failed) + " ops failed at nominal rate");
  checks.require(mismatches == 0, std::to_string(mismatches) +
                                      " rounds returned a password that "
                                      "differs from the oracle");
  const double lag = percentile(s.lag_us, 0.99);
  checks.require(lag <= kLagBoundUs, "generator lag p99 " +
                                         std::to_string(lag) + " us over bound");
  checks.require(max_backlog <= kBacklogBound,
                 "backlog " + std::to_string(max_backlog) + " over bound");
  if (count_samples) {
    for (const OpClass c : {wl.primary, wl.secondary}) {
      checks.require(s.cls[c].latency_ms.size() >= kMinClassSamples,
                     std::string(kClassNames[c]) + " has fewer than " +
                         std::to_string(kMinClassSamples) + " samples");
    }
  }
}

struct Setup {
  std::unique_ptr<Deployment> dep;
  std::unique_ptr<Runner> runner;
  double seconds = 0;
};

Setup set_up(const WorkloadDef& wl, const Options& opt, double rate) {
  Setup s;
  const std::int64_t t0 = now_us();
  s.dep = std::make_unique<Deployment>(wl.deployment);
  if (opt.corrupt_oracle) s.dep->corrupt_expected(0, 0);
  const std::int64_t t1 = now_us();
  s.dep->start();
  s.runner = std::make_unique<Runner>(*s.dep, wl, opt.seed);
  s.runner->connect();
  const std::int64_t t2 = now_us();
  s.runner->login_all();
  s.dep->await_followers();
  const std::int64_t t3 = now_us();
  s.runner->run(rate, 500'000, kWarmup);
  s.runner->drain(10'000'000);
  const std::int64_t t4 = now_us();
  s.seconds = static_cast<double>(t4 - t0) / 1e6;
  std::printf("setup: %.3f s (provision+oracle %.3f, start+dial %.3f, "
              "logins %.3f, warmup %.3f)\n",
              s.seconds, (t1 - t0) / 1e6, (t2 - t1) / 1e6, (t3 - t2) / 1e6,
              (t4 - t3) / 1e6);
  return s;
}

/// One ramp step's verdict, over the step and up to kJudgeSteps - 1
/// steps before it, so its p99 rests on enough samples that one slow op
/// does not decide it.
struct StepResult {
  double offered = 0;
  double achieved = 0;
  double p99_ms = 0;
  bool pass = false;
  std::string why;  // the conditions a failed step broke
};

StepResult judge_step(const Runner& r, int first_phase, int last_phase,
                      double offered, const WorkloadDef& wl,
                      std::size_t backlog_start, std::size_t backlog_end) {
  StepResult res;
  res.offered = offered;
  std::size_t n = 0, ok = 0, failed = 0, misses = 0;
  std::vector<double> primary, lag_us;
  for (const Op& op : r.ops()) {
    if (op.phase < first_phase || op.phase > last_phase) continue;
    ++n;
    lag_us.push_back(static_cast<double>(op.sent - op.due));
    const bool done_ok = op.finished && op.ok;
    if (done_ok) ++ok;
    if (op.finished && !op.ok) ++failed;
    if (class_of(op.kind) != wl.primary) continue;
    if (done_ok) {
      primary.push_back(static_cast<double>(op.done - op.due) / 1e3);
    } else {
      ++misses;  // unfinished or failed: misses any limit
    }
  }
  for (std::size_t i = 0; i < misses; ++i) primary.push_back(1e12);
  res.achieved = static_cast<double>(ok) /
                 (static_cast<double>(kRampStepUs) / 1e6) /
                 static_cast<double>(last_phase - first_phase + 1);
  res.p99_ms = percentile(primary, 0.99);
  const bool growing =
      backlog_end > backlog_start + std::max<std::size_t>(16, n / 4);
  // A late generator means the step was not offered at its rate.
  const bool late = percentile(lag_us, 0.99) > kLagBoundUs;
  if (n == 0 || primary.empty()) res.why += " no-ops";
  if (failed > 0) res.why += " failed=" + std::to_string(failed);
  if (misses > 0) res.why += " misses=" + std::to_string(misses);
  if (res.p99_ms > wl.slo_ms) res.why += " over-slo";
  if (growing) res.why += " backlog-growing";
  if (late) res.why += " generator-late";
  res.pass = res.why.empty();
  return res;
}

/// The capacity ramp: geometric steps from the workload's ramp_from_rps
/// until one fails. Returns the achieved rate over the judge window of
/// the highest step that passed.
double find_capacity(Runner& r, const WorkloadDef& wl, double rate,
                     Checks& checks) {
  // A step is judged once enough later steps have run that each of its
  // ops has had the SLO to finish: an op still open then has missed it.
  const int judge_lag = std::max(
      1, static_cast<int>(std::ceil(wl.slo_ms * 1e3 / kRampStepUs)));
  std::vector<std::size_t> backlog_at;
  int passed = 0;
  double capacity = 0;
  bool failed_step = false;
  const auto judge = [&](int k) {
    const int first = std::max(0, k - kJudgeSteps + 1);
    const StepResult res =
        judge_step(r, kRamp0 + first, kRamp0 + k,
                   rate * std::pow(kRampStep, k), wl, backlog_at[first],
                   backlog_at[k + 1]);
    std::printf("ramp: offered=%.1f achieved=%.1f %s_p99=%.3f ms %s%s\n",
                res.offered, res.achieved, kClassNames[wl.primary],
                res.p99_ms > 1e9 ? -1.0 : res.p99_ms,
                res.pass ? "pass" : "FAIL:", res.why.c_str());
    if (res.pass && !failed_step) {
      capacity = res.achieved;
      ++passed;
    } else {
      failed_step = true;
    }
  };
  backlog_at.push_back(r.in_flight());
  int ran = 0;
  for (; ran < kMaxRampSteps && !failed_step; ++ran) {
    r.run(rate * std::pow(kRampStep, ran), kRampStepUs, kRamp0 + ran);
    backlog_at.push_back(r.in_flight());
    if (ran >= judge_lag) judge(ran - judge_lag);
  }
  if (!failed_step) {
    // Safety stop: give the last steps their SLO, then judge them.
    r.idle(static_cast<std::int64_t>(wl.slo_ms * 1e3));
    for (int k = std::max(0, ran - judge_lag); k < ran; ++k) judge(k);
  }
  std::printf("ramp: %d of %d steps passed, up to %.0f req/s%s\n", passed,
              ran, rate * std::pow(kRampStep, std::max(0, passed - 1)),
              failed_step ? "" : " (safety stop: no step failed)");
  checks.require(passed > 0, "the first ramp step already failed");
  // Ops a collapsed step left behind are abandoned, not failed: past
  // capacity is where the ramp is meant to end.
  r.drain(kRampDrainUs);
  checks.require(r.oracle_mismatches() == 0,
                 "ramp rounds returned wrong passwords");
  return capacity;
}

int run_e2e(const WorkloadDef& wl, const Options& opt, double rate) {
  Checks checks;
  std::vector<double> setup_s;
  Setup s;
  for (int i = 0; i < (opt.smoke ? 1 : kSetups); ++i) {
    s.runner.reset();  // the clients go before the servers they talk to
    s.dep.reset();
    s = set_up(wl, opt, rate);
    setup_s.push_back(s.seconds);
  }
  Runner& r = *s.runner;

  // The nominal phase: one Poisson stream, run as kWindows back-to-back
  // windows with the server's CPU read at each boundary.
  const std::int64_t nominal_us = static_cast<std::int64_t>(opt.seconds * 1e6);
  const std::int64_t window_us = nominal_us / kWindows;
  r.reserve(static_cast<std::size_t>(rate * (opt.seconds + 1) * 1.2));
  r.take_max_in_flight();
  const auto server_cpu_us = [] { return process_cpu_us() - thread_cpu_us(); };
  std::vector<std::int64_t> window_start;
  std::vector<double> window_cpu;
  const std::int64_t t0 = now_us();
  for (int w = 0; w < kWindows; ++w) {
    window_start.push_back(now_us());
    window_cpu.push_back(server_cpu_us());
    r.run(rate, window_us, kMeasured);
  }
  const std::size_t max_backlog = r.take_max_in_flight();
  const bool drained = r.drain(10'000'000);
  window_cpu.push_back(server_cpu_us());
  const double wall_s = static_cast<double>(now_us() - t0) / 1e6;
  const PhaseStats nominal = phase_stats(r.ops(), kMeasured);
  checks.require(drained, "nominal phase did not drain");
  check_phase(checks, !opt.smoke, wl, nominal, max_backlog,
              r.oracle_mismatches());
  print_phase("nominal", nominal, static_cast<double>(nominal_us) / 1e6);
  std::printf("nominal: fail_ratio=%.6f wall=%.3f s max_backlog=%zu\n",
              nominal.all.attempted
                  ? static_cast<double>(nominal.all.failed) /
                        static_cast<double>(nominal.all.attempted)
                  : 0.0,
              wall_s, max_backlog);

  // Each metric is the median of its per-window values, so a few seconds
  // of host noise (another tenant, a descheduled reactor) move it less.
  std::vector<ClassStats> primary(kWindows), secondary(kWindows);
  std::vector<std::size_t> completed(kWindows, 0);
  for (const Op& op : r.ops()) {
    if (op.phase != kMeasured || !op.finished || !op.ok) continue;
    const auto w = static_cast<std::size_t>(
        std::upper_bound(window_start.begin(), window_start.end(), op.due) -
        window_start.begin() - 1);
    const double ms = static_cast<double>(op.done - op.due) / 1e3;
    if (class_of(op.kind) == wl.primary) primary[w].latency_ms.push_back(ms);
    if (class_of(op.kind) == wl.secondary) secondary[w].latency_ms.push_back(ms);
    ++completed[w];
  }
  std::vector<double> primary_p50, secondary_p50, cpu_per_op;
  for (int w = 0; w < kWindows; ++w) {
    primary_p50.push_back(primary[w].p50());
    secondary_p50.push_back(secondary[w].p50());
    cpu_per_op.push_back((window_cpu[w + 1] - window_cpu[w]) /
                         static_cast<double>(std::max<std::size_t>(1, completed[w])));
  }
  std::printf("windows: %d x %.1f s; server_cpu_us_per_op min=%.1f max=%.1f; "
              "primary_p50_ms min=%.3f max=%.3f\n",
              kWindows, static_cast<double>(window_us) / 1e6,
              *std::min_element(cpu_per_op.begin(), cpu_per_op.end()),
              *std::max_element(cpu_per_op.begin(), cpu_per_op.end()),
              *std::min_element(primary_p50.begin(), primary_p50.end()),
              *std::max_element(primary_p50.begin(), primary_p50.end()));

  const PhaseStats& n = nominal;
  MetricList m;
  m.set("primary_p50_ms", median(primary_p50), "ms");
  m.set("secondary_p50_ms", median(secondary_p50), "ms");
  m.set("server_cpu_us_per_op", median(cpu_per_op), "us/op");
  m.set("setup_s", median(setup_s), "s");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
  s.runner.reset();
  s.dep.reset();
  print_result(checks.ok, n.all.attempted, n.all.failed, m);
  return checks.ok ? 0 : 1;
}

int run_traced(const WorkloadDef& wl, const Options& opt, double rate) {
  Checks checks;
  Setup s = set_up(wl, opt, rate);
  Runner& r = *s.runner;
  Deployment& dep = *s.dep;
  const auto regs = dep.registries();

  // Untraced window: the baseline the tracing overhead is measured from.
  const std::int64_t untraced_us = std::min<std::int64_t>(
      kUntracedUs, static_cast<std::int64_t>(opt.seconds * 0.5 * 1e6));
  double cpu0 = process_cpu_us(), gen0 = thread_cpu_us();
  r.run(rate, untraced_us, kMeasured);
  checks.require(r.drain(10'000'000), "untraced window did not drain");
  const double untraced_cpu =
      (process_cpu_us() - cpu0) - (thread_cpu_us() - gen0);
  const PhaseStats untraced = phase_stats(r.ops(), kMeasured);
  const double untraced_per_op =
      untraced_cpu /
      static_cast<double>(std::max<std::size_t>(1, untraced.completed_ok));
  print_phase("untraced", untraced, static_cast<double>(untraced_us) / 1e6);

  // Traced window: server sampling at 1.0, the profiler running and
  // scraped often enough that its 1024-slot rings never wrap.
  dep.set_tracing(true);
  obs::Profiler& prof = obs::Profiler::instance();
  prof.clear();
  prof.start(kProfilePeriodUs);
  const std::uint64_t captured0 = prof.samples_captured();
  r.set_capture(true);
  const std::vector<std::string> threads = dep.reactor_threads();
  std::vector<std::string> scrapes;
  std::vector<std::int64_t> scraped_at(threads.size(), now_us());
  const auto scrape = [&] {
    for (std::size_t k = 0; k < threads.size(); ++k) {
      // Each thread's window starts where its last one ended; the clock
      // is read right before the call, which reads it again inside.
      const std::int64_t now = now_us();
      scrapes.push_back(prof.collapsed(now - scraped_at[k] + 1, threads[k]));
      scraped_at[k] = now;
    }
  };
  // The loop raises this high-water mark and never lowers it: restart it
  // so it covers the traced window only.
  for (obs::MetricsRegistry* reg : regs) {
    reg->gauge("net.loop.post_depth_max").set(0);
  }
  const obs::Snapshot before = merged(regs);
  const obs::Snapshot crypto_before = dep.crypto_registry().snapshot();
  const obs::Snapshot client_before = r.client_metrics().snapshot();
  const std::vector<double> reactor0 = dep.reactor_cpu_us();
  dep.barrier_probe().take(nullptr);
  r.take_max_in_flight();
  const std::int64_t traced_us = static_cast<std::int64_t>(opt.seconds * 1e6);
  cpu0 = process_cpu_us();
  gen0 = thread_cpu_us();
  const double busy0 = r.gen_busy_cpu_us();
  r.run(rate, traced_us, kTraced, scrape);
  const std::size_t max_backlog = r.take_max_in_flight();
  checks.require(r.drain(10'000'000), "traced window did not drain");
  scrape();
  prof.stop();
  const std::uint64_t captured = prof.samples_captured() - captured0;
  const double traced_cpu =
      (process_cpu_us() - cpu0) - (thread_cpu_us() - gen0);
  const double client_cpu = r.gen_busy_cpu_us() - busy0;
  const std::vector<double> reactor1 = dep.reactor_cpu_us();
  const obs::Snapshot after = merged(regs);
  const double post_depth_max = gauge_max(regs, "net.loop.post_depth_max");
  const obs::Snapshot crypto_after = dep.crypto_registry().snapshot();
  const obs::Snapshot client_after = r.client_metrics().snapshot();
  std::uint64_t lag_max = 0;
  const std::vector<double> barrier_waits = dep.barrier_probe().take(&lag_max);
  r.set_capture(false);
  dep.set_tracing(false);

  const PhaseStats traced = phase_stats(r.ops(), kTraced);
  print_phase("traced", traced, static_cast<double>(traced_us) / 1e6);
  check_phase(checks, false, wl, traced, max_backlog, r.oracle_mismatches());
  const double ops = static_cast<double>(std::max<std::size_t>(1, traced.completed_ok));
  const auto per_op = [&](const std::string& name) {
    return counter_delta(before, after, name) / ops;
  };

  // Layer replays, on inputs captured from the traced window.
  const ReplayCosts rc =
      replay_layers(dep.replay_inputs(), r.wire(), dep.expected(0, 0));
  checks.require(rc.kdf_verified, "KDF replay rejected the provisioned record");
  checks.require(rc.generate_matches_oracle || opt.corrupt_oracle,
                 "generation replay disagrees with the oracle");
  checks.require(!r.wire().requests().empty(), "no wire bytes captured");

  // Capacity, untraced, once the windows' figures are taken.
  const double capacity = find_capacity(
      r, wl, wl.ramp_from_rps * (opt.smoke ? kSmokeRateScale : 1.0), checks);

  // Profile, bucketed by innermost amnesia::<module>:: frame.
  const auto buckets = bucket_profile(obs::merge_collapsed(scrapes));
  std::uint64_t samples = 0;
  for (const auto& [name, n] : buckets) samples += n;
  std::printf("profile: %llu reactor samples scraped, %llu captured "
              "process-wide\n",
              static_cast<unsigned long long>(samples),
              static_cast<unsigned long long>(captured));
  if (!opt.smoke) {
    checks.require(samples >= kMinProfileSamples,
                   "only " + std::to_string(samples) + " profiler samples");
  }

  MetricList m;
  const PhaseStats& t = traced;
  // Tails: too host-sensitive to gate on (see README.md), so they are
  // reported here, beside the layers.
  m.set("tail.primary_p99_ms", t.cls[wl.primary].p99(), "ms");
  m.set("tail.secondary_p99_ms", t.cls[wl.secondary].p99(), "ms");
  m.set("bench.gen_lag_p99_us", percentile(t.lag_us, 0.99), "us");
  m.set("bench.client_cpu_us_per_op", client_cpu / ops, "us/op");
  m.set("capacity_rps", capacity, "1/s");
  m.set("fail_ratio",
        t.all.attempted ? static_cast<double>(t.all.failed) /
                              static_cast<double>(t.all.attempted)
                        : 0.0,
        "ratio");

  m.set("net.loop.callback_p99_us",
        static_cast<double>(obs::quantile(
            hist_delta(before, after, "net.loop.callback_us"), 0.99)),
        "us");
  m.set("net.loop.dispatch_delay_max_us",
        hist_max(hist_delta(before, after, "net.loop.wake_dispatch_us")), "us");
  m.set("net.bytes_per_op", per_op("net.bytes_rx") + per_op("net.bytes_tx"),
        "B/op");
  m.set("net.epoll_wakeups_per_op", per_op("net.epoll_wakeups"), "1/op");
  m.set("net.loop.post_depth_max", post_depth_max, "count");

  const double handshakes = per_op("securechan.handshakes");
  const double resumptions = per_op("securechan.resumptions");
  const double records =
      per_op("securechan.records_opened") + per_op("securechan.records_sealed");
  m.set("securechan.handshakes_per_op", handshakes, "1/op");
  m.set("securechan.resumptions_per_op", resumptions, "1/op");
  m.set("securechan.resume_us",
        static_cast<double>(obs::quantile(
            hist_delta(client_before, client_after,
                       "securechan.handshake_latency_us.resumed"),
            0.5)),
        "us");
  m.set("securechan.records_per_op", records, "1/op");
  m.set("securechan.record_us", rc.record_us, "us");

  const double requests = per_op("http.requests");
  m.set("websvc.parse_us", rc.parse_us, "us");
  m.set("threadpool.queue_wait_p99_us",
        static_cast<double>(obs::quantile(
            hist_delta(before, after, "threadpool.queue_wait_us"), 0.99)),
        "us");
  m.set("http.5xx_per_op", per_op("http.responses_5xx"), "1/op");

  m.set("shard.forwarded_per_op", per_op("shard.forwarded_out"), "1/op");
  std::vector<double> reactor_cpu;
  for (std::size_t k = 0; k < reactor0.size(); ++k) {
    reactor_cpu.push_back(reactor1[k] - reactor0[k]);
  }
  const double reactor_mean = mean(reactor_cpu);
  m.set("shard.cpu_imbalance",
        reactor_mean > 0
            ? *std::max_element(reactor_cpu.begin(), reactor_cpu.end()) /
                  reactor_mean
            : 0.0,
        "ratio");

  const double kdf_calls =
      counter_delta(crypto_before, crypto_after, "crypto.pbkdf2_calls") / ops;
  m.set("crypto.pbkdf2_iters_per_op",
        counter_delta(crypto_before, crypto_after, "crypto.pbkdf2_iterations") /
            ops,
        "1/op");
  m.set("crypto.kdf_us", rc.kdf_us, "us");

  const double generated = per_op("server.passwords_generated");
  m.set("core.generate_us", rc.generate_us, "us");

  const double lookups = per_op("storage.lookups");
  const double mutations = per_op("storage.mutations");
  m.set("storage.lookups_per_op", lookups, "1/op");
  m.set("storage.mutations_per_op", mutations, "1/op");
  m.set("storage.commit_us", rc.commit_us, "us");

  m.set("cluster.barrier_wait_p50_us", percentile(barrier_waits, 0.5), "us");
  m.set("cluster.barrier_wait_p99_us", percentile(barrier_waits, 0.99), "us");
  m.set("cluster.records_shipped_per_op", per_op("cluster.records_shipped"),
        "1/op");
  m.set("cluster.barrier_timeouts",
        counter_delta(before, after, "cluster.barrier_timeouts"), "count");
  m.set("cluster.lag_max", static_cast<double>(lag_max), "count");

  for (const std::string& mod : cpu_modules()) {
    m.set("cpu_share." + mod,
          samples ? 100.0 * static_cast<double>(buckets.at(mod)) /
                        static_cast<double>(samples)
                  : 0.0,
          "%");
  }
  m.set("profile.samples", static_cast<double>(samples), "count");

  // Replay unit costs times per-op call counts, against measured CPU.
  // TCP frames: a request and a response per op, plus one exchange per
  // handshake or resumption.
  const double frames = 2.0 * (1.0 + handshakes + resumptions);
  const double explained =
      rc.kdf_us * kdf_calls + rc.handshake_us * handshakes +
      rc.resume_us * resumptions + rc.record_us * records +
      rc.net_frame_us * frames + rc.parse_us * requests +
      rc.generate_us * generated + rc.commit_us * mutations +
      rc.lookup_us * lookups;
  m.set("layers.explained_us_per_op", explained, "us/op");
  m.set("layers.unexplained_pct",
        untraced_per_op > 0
            ? 100.0 * (untraced_per_op - explained) / untraced_per_op
            : 0.0,
        "%");
  m.set("obs.trace_overhead_pct",
        untraced_per_op > 0
            ? 100.0 * (traced_cpu / ops - untraced_per_op) / untraced_per_op
            : 0.0,
        "%");
  std::printf("traced: server_cpu_us_per_op untraced=%.1f traced=%.1f "
              "explained=%.1f\n",
              untraced_per_op, traced_cpu / ops, explained);

  write_spans(opt.workload, opt.seed, r);
  const std::size_t attempted = untraced.all.attempted + t.all.attempted;
  const std::size_t failed = untraced.all.failed + t.all.failed;
  s.runner.reset();
  s.dep.reset();
  print_result(checks.ok, attempted, failed, m);
  return checks.ok ? 0 : 1;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = std::stoi(value());
    else if (a == "--smoke") o.smoke = true;
    else if (a == "--corrupt-oracle") o.corrupt_oracle = true;
    else throw std::runtime_error("unknown argument " + a);
  }
  if (o.seconds <= 0) throw std::runtime_error("--seconds must be > 0");
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options opt = parse(argc, argv);
    for (WorkloadDef wl : workloads()) {
      if (wl.name != opt.workload) continue;
      wl.deployment.seed = opt.seed;
      if (opt.smoke) wl.deployment.users = kSmokeUsers;
      const double rate = wl.nominal_rps * (opt.smoke ? kSmokeRateScale : 1.0);
      print_host(opt, wl, rate);
      return opt.trace ? run_traced(wl, opt, rate) : run_e2e(wl, opt, rate);
    }
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
