// Sharded testbeds: the shard-per-core server deployment, in the two
// configurations the test suite needs.
//
// ShardedSimTestbed — deterministic, single-threaded. One ordinary
// Testbed supplies the world (simulation, network, gcm, phone, cloud,
// browser) and acts as shard 0; N-1 further AmnesiaServers join the same
// simulation as nodes "amnesia-server-1" ... Every shard gets its own
// storage, session-token tag, and request-id stride, and the ShardRouter
// wires them together over the simulation's own executor — cross-shard
// messages are sim events, so whole multi-shard protocol rounds replay
// bit-for-bit from a seed. With shards == 1 nothing is installed and the
// bed behaves exactly like a plain Testbed.
//
// ShardedTcpTestbed — the real thing. N complete Testbeds (each with its
// own virtual phone/gcm world), one ReactorPool thread per shard, one
// TcpTransport per shard all bound to a single port via SO_REUSEPORT, and
// a NetGateway per shard, whose server::ClockBridge pins that shard's
// virtual clock to real time (the router pumps the same bridge). All
// shards serve one pinned X25519 key, so a client's connection may land
// on any reactor and still handshake. Use it in three phases:
//
//   1. construct, then provision users *on their owner bed*
//      (bed(owner_of(user))) while everything is still single-threaded;
//   2. start() — binds the shared port, installs the router, launches
//      the reactor threads;
//   3. drive real TCP clients from your own EventLoop; stop() (or the
//      destructor) joins everything.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crypto/drbg.h"
#include "crypto/x25519.h"
#include "eval/testbed.h"
#include "net/reactor_pool.h"
#include "net/tcp.h"
#include "server/gateway.h"
#include "server/shard.h"

namespace amnesia::eval {

struct ShardedSimConfig {
  std::size_t shards = 1;
  TestbedConfig base{};
  /// Empty = in-memory storage; otherwise shard k persists to
  /// "<db_dir>/shard-<k>.db" — one file per shard, never shared.
  std::string db_dir;
};

class ShardedSimTestbed {
 public:
  explicit ShardedSimTestbed(ShardedSimConfig config = {});

  std::size_t shards() const { return refs_.size(); }
  /// The base testbed: shard 0 plus the browser/phone/gcm/cloud world.
  Testbed& bed() { return *bed_; }
  server::AmnesiaServer& shard(std::size_t k);
  server::ShardRouter& router() { return *router_; }
  std::size_t owner_of(const std::string& user) const;
  /// The fleet-wide ticket-key store (rotate it to expire tickets).
  const std::shared_ptr<securechan::TicketKeyStore>& ticket_store() const {
    return ticket_keys_;
  }

 private:
  ShardedSimConfig config_;
  std::shared_ptr<securechan::TicketKeyStore> ticket_keys_;
  std::unique_ptr<Testbed> bed_;
  std::vector<std::unique_ptr<crypto::ChaChaDrbg>> shard_rngs_;
  std::vector<std::unique_ptr<server::AmnesiaServer>> extras_;
  std::vector<server::ShardRef> refs_;
  std::unique_ptr<server::ShardRouter> router_;
};

struct ShardedTcpConfig {
  std::size_t shards = 1;
  std::uint64_t seed = 1;
  TestbedConfig base{};  // template for every bed; seeds derive per shard
};

class ShardedTcpTestbed {
 public:
  explicit ShardedTcpTestbed(ShardedTcpConfig config = {});
  ~ShardedTcpTestbed();

  std::size_t shards() const { return beds_.size(); }
  Testbed& bed(std::size_t k) { return *beds_[k]; }
  std::size_t owner_of(const std::string& user) const;
  /// signup + login + pair + backup on the user's owner bed. Pre-start
  /// only (it steps that bed's simulation on the calling thread).
  Status provision(const std::string& user, const std::string& mp);

  void start();
  void stop();
  bool started() const { return started_; }

  /// Valid after start(): the one port every shard accepts on.
  std::uint16_t port() const { return port_; }
  /// The pinned channel key all shards share.
  const crypto::X25519Key& public_key() const {
    return keys_.public_key;
  }
  net::ReactorPool& pool() { return *pool_; }
  server::ShardRouter& router() { return *router_; }
  /// The fleet-wide ticket-key store (rotate it to expire tickets).
  const std::shared_ptr<securechan::TicketKeyStore>& ticket_store() const {
    return ticket_keys_;
  }

 private:
  ShardedTcpConfig config_;
  crypto::X25519KeyPair keys_;
  std::shared_ptr<securechan::TicketKeyStore> ticket_keys_;
  std::unique_ptr<net::ReactorPool> pool_;
  std::vector<std::unique_ptr<Testbed>> beds_;
  std::vector<std::unique_ptr<net::TcpTransport>> transports_;
  std::vector<std::unique_ptr<server::ClockBridge>> bridges_;  // one per bed
  std::vector<std::unique_ptr<server::NetGateway>> gateways_;
  std::unique_ptr<server::ShardRouter> router_;
  std::uint16_t port_ = 0;
  bool started_ = false;
};

}  // namespace amnesia::eval
