// Deployment: the Amnesia server of Fig. 1 run as one or more servers —
// sharded (docs/SHARDING.md) or replicated (docs/CLUSTER.md) — over the
// deterministic simulation or over real TCP.
//
// One layout rule. A simulation runs on one thread, so a sim deployment
// puts every server in one Testbed world: server 0 is that world's own
// server and the others join its simulation as extra nodes
// ("amnesia-server-<k>" for shards, "amnesia-server-f<k>" for
// followers). A TCP deployment gives each shard its own world and
// reactor thread; the replicas of a shard share their shard's world.
//
// One lifecycle. The constructor builds the servers. start() wires them:
// on TCP one server::ClockBridge per world and one NetGateway per
// server; with replicas > 1 the replication peer wires (simnet wires in
// a simulation; ReplListener acceptors and RpcClient dials on TCP); with
// shards > 1 the ShardRouter. Then the followers' failure detectors arm
// and, on TCP, the reactors launch. stop() joins the reactors and undoes
// the wiring; the servers stay readable until destruction.
//
// Order of use. A TCP world is driven from the calling thread until
// start() hands it to its reactor: provision each user on
// world_of(user) first, then start(), then drive real TCP clients from
// your own EventLoop. A simulation has no thread to hand over: start() a
// sim deployment before its first request (the router is how a request
// reaches a non-zero shard) and keep driving its one world.
//
// Every shard shares one session-ticket key store, every replica (and
// every TCP shard) one pinned channel key, so a client resumes its
// secure channel on whichever server it reaches. A promotion retargets
// the simulated browser and phone at the survivor.
//
// A deployment with both shards > 1 and replicas > 1 throws Error: the
// router would have to follow each group's promotions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "crypto/drbg.h"
#include "eval/testbed.h"
#include "net/reactor_pool.h"
#include "net/rpc.h"
#include "net/tcp.h"
#include "server/gateway.h"
#include "server/shard.h"

namespace amnesia::cluster {
class ReplListener;
}

namespace amnesia::eval {

enum class Transport { kSim, kTcp };

struct DeploymentConfig {
  std::size_t shards = 1;
  /// Per shard: one primary plus replicas-1 followers.
  std::size_t replicas = 1;
  Transport transport = Transport::kSim;
  /// Template for every world and server; every seed derives from
  /// base.seed. base.server.db_path is only allowed on a one-server
  /// deployment: several servers persist through db_dir.
  TestbedConfig base{};
  /// Template for every replica (replicas > 1). node_name and
  /// takeover_stagger_us are set per replica: follower k > 1 staggers by
  /// (k-1) * 200 ms so the first follower usually wins the lease race.
  cluster::ClusterConfig cluster{};
  /// Empty = in-memory storage. Otherwise the first replica of shard k
  /// persists to "<db_dir>/shard-<k>.db" and replica r > 0 of it to
  /// "<db_dir>/shard-<k>.replica-<r>.db": one file per server.
  std::string db_dir{};
};

class Deployment {
 public:
  explicit Deployment(DeploymentConfig config = {});
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  void start();
  void stop();

  bool tcp() const { return config_.transport == Transport::kTcp; }
  std::size_t shards() const { return config_.shards; }
  std::size_t replicas() const { return config_.replicas; }

  /// Every server: shard k, or replica k of the one shard.
  std::size_t servers() const { return servers_.size(); }
  server::AmnesiaServer& server(std::size_t k) { return *servers_[k]; }
  /// The simulated browser/phone/gcm/cloud worlds (one per TCP shard).
  std::size_t worlds() const { return worlds_.size(); }
  Testbed& world(std::size_t w = 0) { return *worlds_[w]; }
  std::size_t owner_of(const std::string& user) const {
    return server::shard_of_user(user, config_.shards);
  }
  /// The world whose browser reaches `user`'s shard.
  Testbed& world_of(const std::string& user) {
    return world(worlds_.size() == 1 ? 0 : owner_of(user));
  }

  /// Server k's storage file ("" = in memory).
  std::string db_path(std::size_t k) const;

  /// The fleet-wide ticket-key store (rotate it to expire tickets).
  const std::shared_ptr<securechan::TicketKeyStore>& ticket_store() const {
    return ticket_keys_;
  }
  const crypto::X25519Key& public_key() const {
    return servers_[0]->public_key();
  }

  // ---- replicas > 1
  cluster::ClusterNode& node(std::size_t k) { return *nodes_[k]; }
  /// The current primary's index, or replicas() while none is (every
  /// node dead or following, transiently true mid-failover).
  std::size_t primary_index() const;

  // ---- simulation
  /// Steps world 0's simulation until `pred` holds or `max_virtual_us`
  /// of virtual time passes; returns whether the predicate held.
  bool run_until(const std::function<bool()>& pred, Micros max_virtual_us);

  // ---- TCP, valid after start()
  /// Server k's client port. Shards share one port (SO_REUSEPORT spreads
  /// connections over their reactors); each replica has its own.
  std::uint16_t port(std::size_t k = 0) const { return ports_[k]; }
  /// One reactor per world.
  net::ReactorPool& pool() { return *pool_; }

 private:
  void build_shards();
  void build_replicas();
  void wire_replicas();
  /// Points the simulated browser and phone at replica k, and the
  /// browser's tracer at k's registry.
  void retarget_clients(std::size_t k);

  DeploymentConfig config_;
  std::shared_ptr<securechan::TicketKeyStore> ticket_keys_;
  std::unique_ptr<net::ReactorPool> pool_;
  std::vector<std::unique_ptr<Testbed>> worlds_;
  std::vector<std::unique_ptr<crypto::ChaChaDrbg>> extra_rngs_;
  std::vector<std::unique_ptr<server::AmnesiaServer>> extras_;
  std::vector<server::AmnesiaServer*> servers_;
  std::vector<std::unique_ptr<cluster::ClusterNode>> nodes_;

  // Built by start(), torn down by stop().
  std::vector<std::unique_ptr<net::TcpTransport>> transports_;
  std::vector<std::unique_ptr<server::ClockBridge>> bridges_;
  std::vector<std::unique_ptr<server::NetGateway>> gateways_;
  std::vector<std::unique_ptr<cluster::ReplListener>> repl_listeners_;
  std::vector<std::unique_ptr<net::RpcClient>> peer_clients_;
  std::unique_ptr<server::ShardRouter> router_;
  std::vector<std::uint16_t> ports_;
  bool started_ = false;
};

}  // namespace amnesia::eval
