#include "eval/deployment.h"

#include "cluster/repl_listener.h"
#include "common/error.h"
#include "crypto/x25519.h"
#include "obs/profiler.h"

namespace amnesia::eval {

Deployment::Deployment(DeploymentConfig config) : config_(std::move(config)) {
  if (config_.shards == 0 || config_.replicas == 0) {
    throw Error("Deployment: needs at least one shard and one replica");
  }
  if (config_.shards > 1 && config_.replicas > 1) {
    throw Error("Deployment: shards > 1 with replicas > 1 is unsupported");
  }
  if (config_.shards * config_.replicas > 1 &&
      !config_.base.server.db_path.empty()) {
    throw Error("Deployment: several servers persist through db_dir, not "
                "base.server.db_path");
  }
  if (tcp()) {
    // One reactor per world: a shard's replicas share its world.
    pool_ = std::make_unique<net::ReactorPool>(config_.shards);
  }
  if (config_.replicas > 1) {
    build_replicas();
  } else {
    build_shards();
  }
}

Deployment::~Deployment() { stop(); }

std::string Deployment::db_path(std::size_t k) const {
  if (config_.db_dir.empty()) return config_.base.server.db_path;
  // Server k is shard k, or replica k of shard 0.
  if (config_.shards > 1 || k == 0) {
    return config_.db_dir + "/shard-" + std::to_string(k) + ".db";
  }
  return config_.db_dir + "/shard-0.replica-" + std::to_string(k) + ".db";
}

void Deployment::build_shards() {
  const std::size_t n = config_.shards;
  const std::uint64_t seed = config_.base.seed;
  crypto::X25519KeyPair keys;
  if (tcp()) {
    crypto::ChaChaDrbg key_rng(seed * 4096 + 7);
    keys = crypto::x25519_generate(key_rng);
    // Like the pinned channel key: one ticket-key store for the fleet, so
    // resumption works whichever reactor SO_REUSEPORT lands a client on.
    ticket_keys_ = securechan::TicketKeyStore::generate(key_rng);
  } else {
    // Installing a store draws nothing from any server's rng (the
    // SecureServer ctor draws its own default regardless), so one shard
    // stays bit-compatible with a plain Testbed.
    crypto::ChaChaDrbg ticket_rng(seed * 4096 + 39);
    ticket_keys_ = securechan::TicketKeyStore::generate(ticket_rng);
  }
  for (std::size_t k = 0; k < n; ++k) {
    server::AmnesiaServerConfig sc = config_.base.server;
    sc.ticket_keys = ticket_keys_;
    sc.session_token_prefix = server::shard_token_prefix(k, n);
    sc.request_id_first = k + 1;
    sc.request_id_stride = n;
    sc.db_path = db_path(k);
    if (tcp()) {
      TestbedConfig bc = config_.base;
      bc.seed = seed + 17 * (k + 1);  // distinct deterministic worlds
      bc.server = sc;
      bc.server.channel_keys = keys;
      // The profiler samples the whole process; each shard's GET /profile
      // keeps its own reactor thread, so the router's merge sums
      // disjoint sample streams.
      bc.server.profile_thread = net::ReactorPool::thread_name(k);
      worlds_.push_back(std::make_unique<Testbed>(bc));
      servers_.push_back(&worlds_.back()->server());
    } else if (k == 0) {
      TestbedConfig bc = config_.base;
      bc.server = sc;
      worlds_.push_back(std::make_unique<Testbed>(bc));
      servers_.push_back(&worlds_.back()->server());
    } else {
      // Each extra shard draws from its own stream, clear of the world's
      // seed*4+i streams, and pushes over the LAN shard 0 uses.
      extra_rngs_.push_back(
          std::make_unique<crypto::ChaChaDrbg>(seed * 4096 + 40 + k));
      sc.node_id = "amnesia-server-" + std::to_string(k);
      Testbed& w = world();
      extras_.push_back(std::make_unique<server::AmnesiaServer>(
          w.sim(), w.net(), *extra_rngs_.back(), sc));
      w.net().set_duplex_link(sc.node_id, "gcm", simnet::profiles().dc_lan,
                              simnet::profiles().dc_lan);
      servers_.push_back(extras_.back().get());
    }
  }
}

void Deployment::build_replicas() {
  const std::size_t n = config_.replicas;
  // One pinned channel key and one ticket-key store for the cluster:
  // after a failover the browser and phone retarget at the promoted
  // follower and resume their channels in one round trip.
  crypto::ChaChaDrbg key_rng(config_.base.seed * 8192 + 7);
  const crypto::X25519KeyPair keys = crypto::x25519_generate(key_rng);
  ticket_keys_ = securechan::TicketKeyStore::generate(key_rng);

  TestbedConfig base = config_.base;
  base.server.channel_keys = keys;
  base.server.ticket_keys = ticket_keys_;
  base.server.replicated_state = true;
  // The phone must survive a primary crash mid-round-trip: allow a few
  // /token retries (the promoted follower answers one of them) unless
  // the caller configured its own policy.
  if (base.phone.token_retry_max == 0) base.phone.token_retry_max = 5;
  base.server.db_path = db_path(0);
  worlds_.push_back(std::make_unique<Testbed>(base));
  Testbed& w = world();
  servers_.push_back(&w.server());

  const auto& p = simnet::profiles();
  for (std::size_t k = 1; k < n; ++k) {
    extra_rngs_.push_back(
        std::make_unique<crypto::ChaChaDrbg>(base.seed * 8192 + 40 + k));
    server::AmnesiaServerConfig sc = base.server;
    sc.node_id = "amnesia-server-f" + std::to_string(k);
    sc.db_path = db_path(k);
    extras_.push_back(std::make_unique<server::AmnesiaServer>(
        w.sim(), w.net(), *extra_rngs_.back(), sc));
    servers_.push_back(extras_.back().get());
    // Disjoint span-id ranges per replica: spans a follower opens after
    // promotion must not collide with ids imported from the primary.
    servers_.back()->metrics().tracer().seed_span_ids(
        static_cast<obs::SpanId>(k) << 32);
    // A follower is a full server: clients and the rendezvous service
    // must reach it the moment it is promoted.
    w.net().set_duplex_link(sc.node_id, "gcm", p.dc_lan, p.dc_lan);
    w.net().set_duplex_link("browser", sc.node_id, p.wan, p.wan);
    w.net().set_link("phone", sc.node_id, p.wifi_uplink);
    w.net().set_link(sc.node_id, "phone", p.wifi_downlink);
  }

  for (std::size_t k = 0; k < n; ++k) {
    cluster::ClusterConfig cc = config_.cluster;
    cc.node_name = server(k).node_id();
    if (k > 1) cc.takeover_stagger_us = (k - 1) * 200'000;
    nodes_.push_back(std::make_unique<cluster::ClusterNode>(
        w.sim(), w.net(), server(k), "gcm", cc));
    cluster::ClusterNode* node = nodes_.back().get();
    server(k).set_crash_handler([node] { node->crash(); });
    server(k).set_cluster_status([node] { return node->status(); });
    node->set_on_promote([this, k] { retarget_clients(k); });
  }
  // The replication mesh: every replica's repl node reaches every
  // other's (and the rendezvous service, for the lease) over the DC LAN.
  for (std::size_t i = 0; i < n; ++i) {
    const std::string repl = server(i).node_id() + ".repl";
    w.net().set_duplex_link(repl, "gcm", p.dc_lan, p.dc_lan);
    for (std::size_t j = i + 1; j < n; ++j) {
      w.net().set_duplex_link(repl, server(j).node_id() + ".repl", p.dc_lan,
                              p.dc_lan);
    }
  }
  // The phone's phone.confirm opens after a primary crash, so it reports
  // straight into the first follower's registry, where its parent (the
  // shipped phone.wait stub) already is.
  w.phone().set_metrics(&server(1).metrics());
  // The primary journals from the start: what is provisioned before
  // start() ships to the followers once they are wired.
  nodes_[0]->start_as_primary(1);
}

void Deployment::wire_replicas() {
  const std::size_t n = servers_.size();
  std::vector<std::uint16_t> repl_ports;
  if (tcp()) {
    for (std::size_t k = 0; k < n; ++k) {
      transports_.push_back(
          std::make_unique<net::TcpTransport>(pool_->loop(0), "127.0.0.1", 0));
      repl_listeners_.push_back(std::make_unique<cluster::ReplListener>(
          *transports_.back(), node(k)));
      repl_ports.push_back(transports_.back()->local_port());
    }
  }
  // The full mesh: node i ships to node j. TCP connections are lazy; the
  // loop thread dials on the first flush.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const std::string& to = server(j).node_id();
      if (!tcp()) {
        node(i).add_follower(to, node(i).sim_wire(to + ".repl"));
        continue;
      }
      transports_.push_back(std::make_unique<net::TcpTransport>(
          pool_->loop(0), "127.0.0.1", repl_ports[j]));
      peer_clients_.push_back(std::make_unique<net::RpcClient>(
          *transports_.back(), config_.cluster.rpc_timeout_us));
      node(i).add_follower(to, cluster::tcp_wire(*peer_clients_.back()));
    }
  }
}

void Deployment::start() {
  if (started_) return;
  if (tcp()) {
    // Nothing runs the loops yet, so binding fds and arming the bridges'
    // timers from this thread is safe. Shard 0 binds an ephemeral port
    // and its siblings join it; each replica binds its own.
    for (std::size_t w = 0; w < worlds(); ++w) {
      bridges_.push_back(std::make_unique<server::ClockBridge>(
          world(w).sim(), pool_->loop(w)));
    }
    const bool reuseport = config_.shards > 1;
    for (std::size_t k = 0; k < servers(); ++k) {
      const std::size_t w = worlds() == 1 ? 0 : k;
      auto transport = std::make_unique<net::TcpTransport>(
          pool_->loop(w), "127.0.0.1", reuseport && k > 0 ? ports_[0] : 0);
      if (reuseport) transport->set_reuseport(true);
      // Each server's transport reports into its own registry; aggregate
      // views go through the router's merged GET /metrics.
      transport->set_metrics(&server(k).metrics());
      gateways_.push_back(std::make_unique<server::NetGateway>(
          *transport, nullptr, server(k), bridges_[w].get()));
      ports_.push_back(transport->local_port());
      transports_.push_back(std::move(transport));
    }
  }
  if (config_.replicas > 1) wire_replicas();
  if (config_.shards > 1) {
    std::vector<server::ShardRef> refs;
    for (std::size_t k = 0; k < servers(); ++k) {
      refs.push_back(
          tcp() ? server::ShardRef{&server(k), &pool_->loop(k),
                                   bridges_[k].get()}
                : server::ShardRef{&server(k), &world().sim(), nullptr});
    }
    router_ = std::make_unique<server::ShardRouter>(std::move(refs));
  }
  // Only now do the failover detectors make sense: heartbeats reach the
  // followers from here on. Armed earlier, a TCP deployment's provisioning
  // phase would look like primary silence and a follower would steal the
  // lease mid-provision.
  for (std::size_t k = 1; k < nodes_.size(); ++k) node(k).start_as_follower();
  if (tcp()) {
    // Arm the always-on sampling profiler before the reactors spin up, so
    // their registration lands on a live session.
    obs::Profiler::instance().start();
    pool_->start();
  }
  started_ = true;
}

void Deployment::stop() {
  if (!started_) return;
  // Join the reactors first; with the loops quiescent the wiring can be
  // torn down from this thread without racing anything. A TCP cluster's
  // simulation must not be stepped after this: its peer wires reference
  // the RpcClients destroyed here.
  if (tcp()) {
    pool_->stop_join();
    obs::Profiler::instance().stop();
  }
  router_.reset();  // restores the shards' stock secure handlers
  peer_clients_.clear();
  repl_listeners_.clear();
  gateways_.clear();
  bridges_.clear();  // detaches the simulations' head hooks
  transports_.clear();
  started_ = false;
}

std::size_t Deployment::primary_index() const {
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    if (!nodes_[k]->dead() &&
        nodes_[k]->role() == cluster::ClusterNode::Role::kPrimary) {
      return k;
    }
  }
  return nodes_.size();
}

void Deployment::retarget_clients(std::size_t k) {
  Testbed& w = world();
  w.browser().retarget(server(k).node_id());
  w.browser().set_tracer(&server(k).metrics().tracer());
  w.phone().set_server_node(server(k).node_id());
}

bool Deployment::run_until(const std::function<bool()>& pred,
                           Micros max_virtual_us) {
  simnet::Simulation& sim = world().sim();
  const Micros deadline = sim.now() + max_virtual_us;
  while (!pred() && sim.now() < deadline && sim.step()) {
  }
  return pred();
}

}  // namespace amnesia::eval
