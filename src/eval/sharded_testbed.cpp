#include "eval/sharded_testbed.h"

#include <algorithm>

#include "common/error.h"
#include "obs/profiler.h"

namespace amnesia::eval {

ShardedSimTestbed::ShardedSimTestbed(ShardedSimConfig config)
    : config_(std::move(config)) {
  const std::size_t n = std::max<std::size_t>(1, config_.shards);
  // One shared ticket-key store for the whole deployment: a session
  // ticket minted by any shard resumes against any other. Installing it
  // does not perturb any shard's rng stream (the SecureServer ctor draws
  // its own default store regardless), so shards==1 stays bit-compatible
  // with a plain Testbed.
  crypto::ChaChaDrbg ticket_rng(config_.base.seed * 4096 + 39);
  ticket_keys_ = securechan::TicketKeyStore::generate(ticket_rng);
  TestbedConfig base = config_.base;
  base.server.ticket_keys = ticket_keys_;
  base.server.session_token_prefix = server::shard_token_prefix(0, n);
  base.server.request_id_first = 1;
  base.server.request_id_stride = n;
  if (!config_.db_dir.empty()) {
    base.server.db_path = config_.db_dir + "/shard-0.db";
  }
  bed_ = std::make_unique<Testbed>(base);
  refs_.push_back(
      server::ShardRef{&bed_->server(), &bed_->sim(), nullptr});

  for (std::size_t k = 1; k < n; ++k) {
    // Each shard draws from its own deterministic stream, offset well
    // clear of the base testbed's seed*4+i streams.
    shard_rngs_.push_back(
        std::make_unique<crypto::ChaChaDrbg>(base.seed * 4096 + 40 + k));
    server::AmnesiaServerConfig sc = base.server;
    sc.node_id = "amnesia-server-" + std::to_string(k);
    sc.session_token_prefix = server::shard_token_prefix(k, n);
    sc.request_id_first = k + 1;
    sc.request_id_stride = n;
    sc.db_path = config_.db_dir.empty()
                     ? std::string()
                     : config_.db_dir + "/shard-" + std::to_string(k) + ".db";
    extras_.push_back(std::make_unique<server::AmnesiaServer>(
        bed_->sim(), bed_->net(), *shard_rngs_.back(), sc));
    // The extra shard pushes through the same rendezvous service over the
    // same datacenter LAN shard 0 uses.
    bed_->net().set_duplex_link(sc.node_id, "gcm", simnet::profiles().dc_lan,
                                simnet::profiles().dc_lan);
    refs_.push_back(
        server::ShardRef{extras_.back().get(), &bed_->sim(), nullptr});
  }
  router_ = std::make_unique<server::ShardRouter>(refs_);
}

server::AmnesiaServer& ShardedSimTestbed::shard(std::size_t k) {
  return k == 0 ? bed_->server() : *extras_[k - 1];
}

std::size_t ShardedSimTestbed::owner_of(const std::string& user) const {
  return server::shard_of_user(user, refs_.size());
}

// ----------------------------------------------------------------- TCP

ShardedTcpTestbed::ShardedTcpTestbed(ShardedTcpConfig config)
    : config_(std::move(config)) {
  const std::size_t n = std::max<std::size_t>(1, config_.shards);
  crypto::ChaChaDrbg key_rng(config_.seed * 4096 + 7);
  keys_ = crypto::x25519_generate(key_rng);
  // Like the pinned channel key: one ticket-key store for the fleet, so
  // resumption works whichever reactor SO_REUSEPORT lands a client on.
  ticket_keys_ = securechan::TicketKeyStore::generate(key_rng);
  pool_ = std::make_unique<net::ReactorPool>(n);
  for (std::size_t k = 0; k < n; ++k) {
    TestbedConfig bc = config_.base;
    bc.seed = config_.seed + 17 * (k + 1);  // distinct deterministic worlds
    bc.server.channel_keys = keys_;
    bc.server.ticket_keys = ticket_keys_;
    bc.server.session_token_prefix = server::shard_token_prefix(k, n);
    bc.server.request_id_first = k + 1;
    bc.server.request_id_stride = n;
    // The profiler samples the whole process; each shard's GET /profile
    // filters to its own reactor thread so the router's merged view sums
    // disjoint sample streams (no double-counting).
    bc.server.profile_thread = net::ReactorPool::thread_name(k);
    beds_.push_back(std::make_unique<Testbed>(bc));
  }
}

ShardedTcpTestbed::~ShardedTcpTestbed() { stop(); }

std::size_t ShardedTcpTestbed::owner_of(const std::string& user) const {
  return server::shard_of_user(user, beds_.size());
}

Status ShardedTcpTestbed::provision(const std::string& user,
                                    const std::string& mp) {
  if (started_) {
    throw Error("ShardedTcpTestbed: provision before start()");
  }
  return beds_[owner_of(user)]->provision(user, mp);
}

void ShardedTcpTestbed::start() {
  if (started_) return;
  const bool reuseport = beds_.size() > 1;
  for (std::size_t k = 0; k < beds_.size(); ++k) {
    // Nothing runs the loops yet, so wiring fds from this thread is safe;
    // shard 0 binds an ephemeral port and its siblings join it.
    auto transport = std::make_unique<net::TcpTransport>(
        pool_->loop(k), "127.0.0.1", port_);
    if (reuseport) transport->set_reuseport(true);
    // Each shard's transport reports into its own registry; aggregate
    // views go through the router's merged GET /metrics.
    transport->set_metrics(&beds_[k]->server().metrics());
    transports_.push_back(std::move(transport));
    bridges_.push_back(std::make_unique<server::ClockBridge>(
        beds_[k]->sim(), pool_->loop(k)));
    gateways_.push_back(std::make_unique<server::NetGateway>(
        *transports_.back(), nullptr, beds_[k]->server(),
        bridges_.back().get()));
    if (k == 0) port_ = transports_[0]->local_port();
  }
  std::vector<server::ShardRef> refs;
  refs.reserve(beds_.size());
  for (std::size_t k = 0; k < beds_.size(); ++k) {
    refs.push_back(server::ShardRef{&beds_[k]->server(), &pool_->loop(k),
                                    bridges_[k].get()});
  }
  router_ = std::make_unique<server::ShardRouter>(std::move(refs));
  // Arm the always-on sampling profiler before the reactors spin up so
  // their registration (in ReactorPool::start) lands on a live session
  // and GET /profile has samples from the first request onward.
  obs::Profiler::instance().start();
  pool_->start();
  started_ = true;
}

void ShardedTcpTestbed::stop() {
  if (!started_) return;
  // Join the reactor threads first; with the loops quiescent the
  // gateways, acceptors, and surviving connections can be torn down from
  // this thread without racing anything.
  pool_->stop_join();
  obs::Profiler::instance().stop();
  router_.reset();  // restores the shards' stock secure handlers
  gateways_.clear();
  bridges_.clear();  // detaches the sims' head hooks
  transports_.clear();
  started_ = false;
}

}  // namespace amnesia::eval
