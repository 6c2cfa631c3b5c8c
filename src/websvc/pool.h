// ConnectionPool: bounded keep-alive secure connections to one endpoint.
//
// Every pooled entry bundles a TCP connection, its RPC framing, and a
// SecureClient — the unit that must stay together, because a secure
// channel lives only on the shard that terminated it. Repeat requests
// through transport() reuse both the TCP connection and the established
// channel, so the steady state pays neither connect() nor any handshake;
// when a fresh entry is dialed it is seeded from the pool's shared
// session-ticket cache and resumes (one round trip, zero X25519) instead
// of running the full exchange.
//
// Sizing and lifetime:
//   - at most `max_connections` entries; a request beyond the bound when
//     every entry is busy multiplexes onto the least-loaded one (the
//     secure channel is already a multiplexed record stream);
//   - entries idle past `idle_timeout_us` are torn down by a sweep on an
//     event loop timer (the server independently evicts idle TCP
//     connections — see docs/NETWORKING.md for how the two interact);
//   - a transport failure resets the entry's SecureClient *ticket
//     preserved*, so the redial resumes on whatever shard accepts it.
//
// Threading: loop-thread only, like everything else built on EventLoop.
// The pool must outlive its transport() closures and any in-flight
// request callbacks.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/x25519.h"
#include "net/event_loop.h"
#include "net/rpc.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "securechan/channel.h"
#include "websvc/client.h"

namespace amnesia::websvc {

struct ConnectionPoolConfig {
  std::size_t max_connections = 4;
  Micros idle_timeout_us = 30'000'000;  // 30 s, browser-ish keep-alive
  Micros sweep_interval_us = 1'000'000;
  Micros rpc_timeout_us = net::kDefaultRpcTimeoutUs;
  obs::MetricsRegistry* metrics = nullptr;  // websvc.pool.* + securechan.*
};

class ConnectionPool {
 public:
  ConnectionPool(net::EventLoop& loop, std::string host, std::uint16_t port,
                 crypto::X25519Key pinned_server_key, RandomSource& rng,
                 ConnectionPoolConfig config = {});
  ~ConnectionPool();

  ConnectionPool(const ConnectionPool&) = delete;
  ConnectionPool& operator=(const ConnectionPool&) = delete;

  /// A ByteTransport that routes each request through a pooled secure
  /// connection. Hand it to any number of HttpClients: they share the
  /// pool's connections (each keeps its own cookie jar).
  ByteTransport transport();

  std::size_t open_connections() const { return conns_.size(); }

 private:
  struct Conn {
    std::unique_ptr<net::TcpTransport> tcp;
    std::unique_ptr<net::RpcClient> rpc;
    std::unique_ptr<securechan::SecureClient> secure;
    std::size_t in_flight = 0;
    Micros last_used_us = 0;
  };

  Conn* pick();
  Conn* dial();
  void finish(Conn* conn, bool transport_failed);
  void arm_sweep();
  void sweep();

  net::EventLoop& loop_;
  std::string host_;
  std::uint16_t port_;
  crypto::X25519Key pinned_server_key_;
  RandomSource& rng_;
  ConnectionPoolConfig config_;
  std::vector<std::unique_ptr<Conn>> conns_;
  // Freshest resumption credential harvested from any entry; seeds newly
  // dialed entries so even a post-eviction cold start skips X25519.
  std::optional<securechan::SecureClient::SessionTicket> ticket_cache_;
  bool sweep_armed_ = false;
  // Guards the sweep timer callback against pool destruction.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  // Each looked up at its first event.
  obs::LazyCounter dials_{"websvc.pool.dials"};
  obs::LazyCounter reuses_{"websvc.pool.reuses"};
  obs::LazyCounter channel_resets_{"websvc.pool.channel_resets"};
  obs::LazyCounter evicted_idle_{"websvc.pool.evicted_idle"};
};

}  // namespace amnesia::websvc
