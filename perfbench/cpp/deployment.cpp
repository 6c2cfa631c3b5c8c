#include "deployment.h"

#include <chrono>
#include <exception>
#include <future>
#include <stdexcept>
#include <thread>

#include "crypto/crypto_metrics.h"
#include "net/reactor_pool.h"
#include "obs/profiler.h"
#include "stats.h"

namespace perfbench {

std::string user_name(std::size_t i) { return "pb-user-" + std::to_string(i); }
std::string site_domain(std::size_t j) {
  return "site-" + std::to_string(j) + ".example";
}

void BarrierProbe::record(double wait_us, std::uint64_t lag) {
  std::lock_guard<std::mutex> lock(mu_);
  waits_us_.push_back(wait_us);
  if (lag > lag_max_) lag_max_ = lag;
}

std::vector<double> BarrierProbe::take(std::uint64_t* lag_max) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  out.swap(waits_us_);
  if (lag_max) *lag_max = lag_max_;
  lag_max_ = 0;
  return out;
}

namespace {

void check(const amnesia::Status& s, const std::string& what) {
  if (!s.ok()) throw std::runtime_error(what + ": " + s.message());
}

/// Production server settings (PBKDF2-10k) with the virtual compute
/// charges zeroed, so the numbers measure real code.
amnesia::eval::TestbedConfig bench_config(std::uint64_t seed) {
  amnesia::eval::TestbedConfig config;
  config.seed = seed;
  // A round holds one of the modelled workers until the phone's token
  // arrives, and the token needs a worker too. With the default 10, a
  // reactor stall of a few tens of ms (seen on shared hosts) parks ten
  // rounds on one shard and deadlocks it until the 30 s phone timeout,
  // even at 500 req/s. 64 workers, as bench_net_loopback uses, keeps the
  // nominal rates clear of that cliff.
  config.server.workers = 64;
  config.server.token_compute_mean_ms = 0.0;
  config.server.token_compute_stddev_ms = 0.0;
  config.server.light_compute_ms = 0.0;
  config.phone.compute_mean_ms = 0.0;
  config.phone.compute_stddev_ms = 0.0;
  return config;
}

/// Collapses the simulated WAN/WiFi model to near-zero links (the same
/// profile bench_net_loopback uses) for every node the bed wires.
void flatten_links(amnesia::eval::Testbed& bed,
                   const std::vector<std::string>& servers) {
  amnesia::simnet::LinkProfile fast;
  fast.name = "near-zero";
  fast.base_latency_ms = 0.01;
  fast.jitter_ms = 0.0;
  fast.min_latency_ms = 0.005;
  fast.bandwidth_mbps = 40'000.0;
  fast.loss_probability = 0.0;
  auto& net = bed.net();
  net.set_default_link(fast);
  net.set_duplex_link("gcm", "phone", fast, fast);
  net.set_duplex_link("phone", "cloud", fast, fast);
  for (const std::string& s : servers) {
    net.set_duplex_link(s, "gcm", fast, fast);
    net.set_duplex_link(s, "phone", fast, fast);
    net.set_duplex_link("browser", s, fast, fast);
    net.set_duplex_link(s + ".repl", "gcm", fast, fast);
    for (const std::string& t : servers) {
      if (s < t) net.set_duplex_link(s + ".repl", t + ".repl", fast, fast);
    }
  }
}

/// Runs `fn` on `loop`'s thread and waits for its result.
template <typename Fn>
auto run_on(amnesia::net::EventLoop& loop, Fn fn) -> decltype(fn()) {
  std::promise<decltype(fn())> done;
  auto result = done.get_future();
  loop.post([&done, &fn] { done.set_value(fn()); });
  return result.get();
}

}  // namespace

Deployment::Deployment(const DeploymentSpec& spec) : spec_(spec) {
  expected_.resize(spec_.users * spec_.sites);
  if (spec_.topology == Topology::kSharded) {
    amnesia::eval::ShardedTcpConfig config;
    config.shards = spec_.servers;
    config.seed = spec_.seed;
    config.base = bench_config(spec_.seed);
    sharded_ = std::make_unique<amnesia::eval::ShardedTcpTestbed>(config);
    std::vector<std::vector<std::size_t>> owned(sharded_->shards());
    for (std::size_t u = 0; u < spec_.users; ++u) {
      owned[sharded_->owner_of(user_name(u))].push_back(u);
    }
    // The beds are independent worlds until start(), so each is
    // provisioned on its own thread.
    std::vector<std::exception_ptr> errors(sharded_->shards());
    std::vector<std::thread> workers;
    for (std::size_t k = 0; k < sharded_->shards(); ++k) {
      flatten_links(sharded_->bed(k), {"amnesia-server"});
      workers.emplace_back([this, k, &owned, &errors] {
        try {
          provision_bed(sharded_->bed(k), owned[k]);
        } catch (...) {
          errors[k] = std::current_exception();
        }
      });
    }
    for (std::thread& t : workers) t.join();
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    capture_replay_inputs(sharded_->bed(sharded_->owner_of(user_name(0))), 0);
  } else {
    amnesia::eval::ReplicatedTcpConfig config;
    config.replicas = spec_.servers;
    config.sim.base = bench_config(spec_.seed);
    replicated_ = std::make_unique<amnesia::eval::ReplicatedTcpTestbed>(config);
    std::vector<std::string> ids;
    for (std::size_t k = 0; k < spec_.servers; ++k) {
      ids.push_back(replicated_->world().replica(k).node_id());
    }
    flatten_links(replicated_->bed(), ids);
    std::vector<std::size_t> all(spec_.users);
    for (std::size_t u = 0; u < spec_.users; ++u) all[u] = u;
    provision_bed(replicated_->bed(), all);
    capture_replay_inputs(replicated_->bed(), 0);

    // Interpose on the primary's semi-sync gate: same ClusterNode::barrier,
    // plus a real-time wait measurement and a replication-lag sample.
    amnesia::cluster::ClusterNode& node = replicated_->node(0);
    BarrierProbe* probe = &barrier_;
    node.server().set_replication_barrier(
        [&node, probe](std::function<void()> fn) {
          const std::int64_t t0 = now_us();
          const std::uint64_t lag = node.replication_lag();
          node.barrier([fn = std::move(fn), t0, lag, probe] {
            probe->record(static_cast<double>(now_us() - t0), lag);
            fn();
          });
        });
  }
  // Wired last, so no server constructor re-points the process-wide hook.
  amnesia::crypto::set_crypto_metrics(&crypto_registry_);
}

Deployment::~Deployment() {
  stop();
  sharded_.reset();
  replicated_.reset();
  amnesia::crypto::detach_crypto_metrics(&crypto_registry_);
}

void Deployment::provision_bed(amnesia::eval::Testbed& bed,
                               const std::vector<std::size_t>& users) {
  for (const std::size_t u : users) {
    const std::string user = user_name(u);
    check(bed.signup(user, kMasterPassword), "signup " + user);
    check(bed.login(user, kMasterPassword), "login " + user);
    check(bed.pair_phone(user), "pair " + user);
    for (std::size_t j = 0; j < spec_.sites; ++j) {
      check(bed.add_account(user, site_domain(j)), "add_account " + user);
      auto password = bed.get_password(user, site_domain(j));
      if (!password.ok()) {
        throw std::runtime_error("oracle " + user + ": " +
                                 password.failure().message);
      }
      expected_[u * spec_.sites + j] = password.value();
    }
    if (spec_.rotating_account) {
      check(bed.add_account(user, kRotatingDomain), "add rotating " + user);
    }
  }
}

void Deployment::capture_replay_inputs(amnesia::eval::Testbed& bed,
                                       std::size_t u) {
  auto& db = bed.server().db();
  const auto user = db.get_user(user_name(u));
  const auto account =
      db.get_account(user_name(u), {user_name(u), site_domain(0)});
  if (!user || !account) throw std::runtime_error("replay inputs missing");
  replay_.mp_record = user->mp_record;
  replay_.oid = user->oid;
  replay_.account = *account;
  replay_.phone = bed.phone().secrets();
  const auto& table = db.raw().table("accounts");
  replay_.account_schema = table.schema();
  replay_.account_row = table.all().front();
}

void Deployment::start() {
  set_tracing(false);
  if (sharded_) {
    sharded_->start();
  } else {
    replicated_->start();
  }
  // start() arms the always-on profiler; the untraced phases run without it.
  amnesia::obs::Profiler::instance().stop();
}

void Deployment::await_followers() {
  if (!replicated_) return;
  // Provisioning journaled everything before the followers were wired;
  // the simulation (and with it shipping) runs once traffic pumps it.
  amnesia::cluster::ClusterNode& node = replicated_->node(0);
  const std::int64_t deadline = now_us() + 30'000'000;
  while (run_on(replicated_->loop(), [&node] {
           return node.replication_lag();
         }) != 0) {
    if (now_us() > deadline) {
      throw std::runtime_error("followers never caught up");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void Deployment::stop() {
  if (sharded_) sharded_->stop();
  if (replicated_) replicated_->stop();
  amnesia::obs::Profiler::instance().stop();
}

std::uint16_t Deployment::port() const {
  return sharded_ ? sharded_->port() : replicated_->port(0);
}

const amnesia::crypto::X25519Key& Deployment::public_key() const {
  return sharded_ ? sharded_->public_key() : replicated_->public_key();
}

void Deployment::corrupt_expected(std::size_t user, std::size_t site) {
  std::string& p = expected_[user * spec_.sites + site];
  p = p.empty() ? std::string("x") : std::string(p.rbegin(), p.rend()) + "x";
}

std::vector<amnesia::obs::MetricsRegistry*> Deployment::registries() {
  std::vector<amnesia::obs::MetricsRegistry*> out;
  if (sharded_) {
    for (std::size_t k = 0; k < sharded_->shards(); ++k) {
      out.push_back(&sharded_->bed(k).server().metrics());
    }
  } else {
    for (std::size_t k = 0; k < replicated_->world().replicas(); ++k) {
      out.push_back(&replicated_->world().replica(k).metrics());
    }
  }
  return out;
}

std::vector<std::int64_t> Deployment::open_connections() {
  std::vector<std::int64_t> out;
  for (amnesia::obs::MetricsRegistry* r : registries()) {
    out.push_back(r->gauge("net.connections_active").value());
  }
  return out;
}

std::vector<std::string> Deployment::reactor_threads() const {
  std::vector<std::string> out;
  const std::size_t n = sharded_ ? sharded_->shards() : 1;
  for (std::size_t k = 0; k < n; ++k) {
    out.push_back(amnesia::net::ReactorPool::thread_name(k));
  }
  return out;
}

std::vector<amnesia::net::EventLoop*> Deployment::reactor_loops() {
  std::vector<amnesia::net::EventLoop*> out;
  if (sharded_) {
    for (std::size_t k = 0; k < sharded_->shards(); ++k) {
      out.push_back(&sharded_->pool().loop(k));
    }
  } else {
    out.push_back(&replicated_->loop());
  }
  return out;
}

std::vector<double> Deployment::reactor_cpu_us() {
  std::vector<double> out;
  for (amnesia::net::EventLoop* loop : reactor_loops()) {
    out.push_back(run_on(*loop, [] { return thread_cpu_us(); }));
  }
  return out;
}

void Deployment::set_tracing(bool on) {
  for (amnesia::obs::MetricsRegistry* r : registries()) {
    r->tracer().set_sample_probability(on ? 1.0 : 0.0);
  }
}

}  // namespace perfbench
