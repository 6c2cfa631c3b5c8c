#include "eval/replicated_testbed.h"

#include <algorithm>

#include "common/error.h"
#include "obs/profiler.h"

namespace amnesia::eval {

ReplicatedSimTestbed::ReplicatedSimTestbed(ReplicatedSimConfig config)
    : config_(std::move(config)) {
  const std::size_t n = std::max<std::size_t>(2, config_.replicas);
  // One pinned channel key and one ticket-key store for the whole
  // cluster: after a failover the browser and phone retarget at the
  // promoted follower and resume their channels in one round trip.
  crypto::ChaChaDrbg key_rng(config_.base.seed * 8192 + 7);
  keys_ = crypto::x25519_generate(key_rng);
  ticket_keys_ = securechan::TicketKeyStore::generate(key_rng);

  TestbedConfig base = config_.base;
  base.server.channel_keys = keys_;
  base.server.ticket_keys = ticket_keys_;
  base.server.replicated_state = true;
  // The phone must survive a primary crash mid-round-trip: allow a few
  // /token retries (the promoted follower answers one of them) unless
  // the caller configured its own policy.
  if (base.phone.token_retry_max == 0) base.phone.token_retry_max = 5;
  bed_ = std::make_unique<Testbed>(base);

  const auto& p = simnet::profiles();
  std::vector<simnet::NodeId> ids{bed_->server().node_id()};
  for (std::size_t k = 1; k < n; ++k) {
    follower_rngs_.push_back(
        std::make_unique<crypto::ChaChaDrbg>(base.seed * 8192 + 40 + k));
    server::AmnesiaServerConfig sc = base.server;
    sc.node_id = "amnesia-server-f" + std::to_string(k);
    followers_.push_back(std::make_unique<server::AmnesiaServer>(
        bed_->sim(), bed_->net(), *follower_rngs_.back(), sc));
    // Disjoint span-id ranges per replica: spans a follower opens after
    // promotion must not collide with ids imported from the primary.
    followers_.back()->metrics().tracer().seed_span_ids(
        static_cast<obs::SpanId>(k) << 32);
    ids.push_back(sc.node_id);
    // The follower is a full server: clients and the rendezvous service
    // must be able to reach it the moment it is promoted.
    bed_->net().set_duplex_link(sc.node_id, "gcm", p.dc_lan, p.dc_lan);
    bed_->net().set_duplex_link("browser", sc.node_id, p.wan, p.wan);
    bed_->net().set_link("phone", sc.node_id, p.wifi_uplink);
    bed_->net().set_link(sc.node_id, "phone", p.wifi_downlink);
  }

  for (std::size_t k = 0; k < n; ++k) {
    cluster::ClusterConfig cc = config_.cluster;
    cc.node_name = ids[k];
    if (k > 1) cc.takeover_stagger_us = (k - 1) * 200'000;
    nodes_.push_back(std::make_unique<cluster::ClusterNode>(
        bed_->sim(), bed_->net(), replica(k), "gcm", cc));
    server::AmnesiaServer& srv = replica(k);
    cluster::ClusterNode* node = nodes_.back().get();
    srv.set_crash_handler([node] { node->crash(); });
    srv.set_cluster_status([node] { return node->status(); });
    node->set_on_promote([this, k] { retarget_clients(k); });
  }
  // The replication mesh: every replica's repl node can reach every
  // other's (and the rendezvous service, for the lease) over the DC LAN.
  for (std::size_t i = 0; i < n; ++i) {
    bed_->net().set_duplex_link(ids[i] + ".repl", "gcm", p.dc_lan, p.dc_lan);
    for (std::size_t j = i + 1; j < n; ++j) {
      bed_->net().set_duplex_link(ids[i] + ".repl", ids[j] + ".repl",
                                  p.dc_lan, p.dc_lan);
    }
  }
  if (config_.wire_peers_sim) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        nodes_[i]->add_follower(ids[j],
                                nodes_[i]->sim_wire(ids[j] + ".repl"));
      }
    }
  }

  // Client-side spans must land where they stay reachable after the
  // crash: the phone's phone.confirm opens after the primary dies, so it
  // reports straight into the first follower's registry (its parent, the
  // shipped phone.wait stub, is already there).
  if (n > 1) bed_->phone().set_metrics(&replica(1).metrics());

  nodes_[0]->start_as_primary(1);
  // With sim peer wires the heartbeats flow immediately, so the failover
  // detectors arm now. The TCP testbed arms them itself in start(), once
  // its listeners exist — before that, the single-threaded provisioning
  // phase would look like primary silence and a follower would steal the
  // lease mid-provision.
  if (config_.wire_peers_sim) {
    for (std::size_t k = 1; k < n; ++k) nodes_[k]->start_as_follower();
  }
}

server::AmnesiaServer& ReplicatedSimTestbed::replica(std::size_t k) {
  return k == 0 ? bed_->server() : *followers_[k - 1];
}

std::size_t ReplicatedSimTestbed::primary_index() const {
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    if (!nodes_[k]->dead() &&
        nodes_[k]->role() == cluster::ClusterNode::Role::kPrimary) {
      return k;
    }
  }
  return nodes_.size();
}

void ReplicatedSimTestbed::retarget_clients(std::size_t k) {
  server::AmnesiaServer& srv = replica(k);
  bed_->browser().retarget(srv.node_id());
  bed_->browser().set_tracer(&srv.metrics().tracer());
  bed_->phone().set_server_node(srv.node_id());
}

bool ReplicatedSimTestbed::run_until(const std::function<bool()>& pred,
                                     Micros max_virtual_us) {
  const Micros deadline = bed_->sim().now() + max_virtual_us;
  while (!pred() && bed_->sim().now() < deadline && bed_->sim().step()) {
  }
  return pred();
}

Result<std::string> ReplicatedSimTestbed::await_password(
    const std::string& username, const std::string& domain) {
  std::unique_ptr<Result<std::string>> result;
  bed_->browser().await_password(username, domain,
                                 [&result](Result<std::string> r) {
                                   result = std::make_unique<Result<std::string>>(
                                       std::move(r));
                                 });
  std::size_t steps = 0;
  while (!result && bed_->sim().step()) {
    if (++steps > 10'000'000) {
      throw ProtocolError("ReplicatedSimTestbed: event budget exceeded");
    }
  }
  if (!result) {
    throw ProtocolError("ReplicatedSimTestbed: await never completed");
  }
  return std::move(*result);
}

// ----------------------------------------------------------------- TCP

ReplicatedTcpTestbed::ReplicatedTcpTestbed(ReplicatedTcpConfig config)
    : config_(std::move(config)) {
  config_.sim.replicas = std::max<std::size_t>(2, config_.replicas);
  config_.sim.wire_peers_sim = false;
  world_ = std::make_unique<ReplicatedSimTestbed>(config_.sim);
}

ReplicatedTcpTestbed::~ReplicatedTcpTestbed() { stop(); }

void ReplicatedTcpTestbed::start() {
  if (started_) return;
  const std::size_t n = world_->replicas();
  pool_ = std::make_unique<net::ReactorPool>(1);
  net::EventLoop& loop0 = pool_->loop(0);
  // Nothing runs the loop yet, so binding fds (and arming the bridge's
  // timer) from this thread is safe.
  bridge_ = std::make_unique<server::ClockBridge>(world_->bed().sim(), loop0);
  std::vector<std::uint16_t> repl_ports;
  for (std::size_t k = 0; k < n; ++k) {
    auto ht = std::make_unique<net::TcpTransport>(loop0, "127.0.0.1", 0);
    ht->set_metrics(&world_->replica(k).metrics());
    gateways_.push_back(std::make_unique<server::NetGateway>(
        *ht, nullptr, world_->replica(k), bridge_.get()));
    http_ports_.push_back(ht->local_port());
    http_transports_.push_back(std::move(ht));

    auto rt = std::make_unique<net::TcpTransport>(loop0, "127.0.0.1", 0);
    repl_listeners_.push_back(
        std::make_unique<cluster::ReplListener>(*rt, world_->node(k)));
    repl_ports.push_back(rt->local_port());
    repl_transports_.push_back(std::move(rt));
  }
  // The full mesh of peer wires: node i ships to node j over its own
  // dialing transport. Connections are lazy; the loop thread dials on
  // the first flush.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      auto dial = std::make_unique<net::TcpTransport>(loop0, "127.0.0.1",
                                                      repl_ports[j]);
      auto client = std::make_unique<net::RpcClient>(
          *dial, config_.sim.cluster.rpc_timeout_us);
      world_->node(i).add_follower(world_->replica(j).node_id(),
                                   cluster::tcp_wire(*client));
      peer_dials_.push_back(std::move(dial));
      peer_clients_.push_back(std::move(client));
    }
  }
  // Only now do the failover detectors make sense: heartbeats can reach
  // the followers the moment the reactor starts.
  for (std::size_t k = 1; k < n; ++k) world_->node(k).start_as_follower();
  // Always-on sampling: every replica's GET /profile serves from the one
  // reactor thread this testbed runs on (replicas do not merge each
  // other's profiles — each serves its own, like /metrics).
  obs::Profiler::instance().start();
  pool_->start();
  started_ = true;
}

void ReplicatedTcpTestbed::stop() {
  if (!started_) return;
  // Join the reactor first; with the loop quiescent everything can be
  // torn down from this thread without racing it. The simulation must
  // not be stepped after this: the cluster peer wires reference the
  // RpcClients destroyed here.
  pool_->stop_join();
  obs::Profiler::instance().stop();
  peer_clients_.clear();
  peer_dials_.clear();
  repl_listeners_.clear();
  repl_transports_.clear();
  gateways_.clear();
  bridge_.reset();  // detaches the simulation's head hook
  http_transports_.clear();
  started_ = false;
}

}  // namespace amnesia::eval
