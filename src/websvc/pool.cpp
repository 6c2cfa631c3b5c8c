#include "websvc/pool.h"

#include <algorithm>

namespace amnesia::websvc {

ConnectionPool::ConnectionPool(net::EventLoop& loop, std::string host,
                               std::uint16_t port,
                               crypto::X25519Key pinned_server_key,
                               RandomSource& rng, ConnectionPoolConfig config)
    : loop_(loop),
      host_(std::move(host)),
      port_(port),
      pinned_server_key_(pinned_server_key),
      rng_(rng),
      config_(config) {
  if (config_.max_connections == 0) config_.max_connections = 1;
}

ConnectionPool::~ConnectionPool() { *alive_ = false; }

ConnectionPool::Conn* ConnectionPool::dial() {
  auto conn = std::make_unique<Conn>();
  conn->tcp = std::make_unique<net::TcpTransport>(loop_, host_, port_);
  if (config_.metrics) conn->tcp->set_metrics(config_.metrics);
  conn->rpc =
      std::make_unique<net::RpcClient>(*conn->tcp, config_.rpc_timeout_us);
  conn->secure = std::make_unique<securechan::SecureClient>(
      conn->rpc->wire(), pinned_server_key_, rng_);
  if (config_.metrics) {
    conn->secure->set_metrics(config_.metrics, &loop_.clock());
  }
  if (ticket_cache_) conn->secure->adopt_ticket(*ticket_cache_);
  conn->last_used_us = loop_.clock().now_us();
  dials_.inc(config_.metrics);
  conns_.push_back(std::move(conn));
  arm_sweep();
  return conns_.back().get();
}

ConnectionPool::Conn* ConnectionPool::pick() {
  // Most-recently-used idle entry first: keeps the working set small so
  // the sweep can evict the rest.
  Conn* best_idle = nullptr;
  for (const auto& c : conns_) {
    if (c->in_flight == 0 &&
        (!best_idle || c->last_used_us > best_idle->last_used_us)) {
      best_idle = c.get();
    }
  }
  if (best_idle) {
    reuses_.inc(config_.metrics);
    return best_idle;
  }
  if (conns_.size() < config_.max_connections) return dial();
  // Every entry busy at the bound: multiplex onto the least-loaded one
  // (secure-channel records interleave freely on one connection).
  Conn* least = conns_.front().get();
  for (const auto& c : conns_) {
    if (c->in_flight < least->in_flight) least = c.get();
  }
  reuses_.inc(config_.metrics);
  return least;
}

void ConnectionPool::finish(Conn* conn, bool transport_failed) {
  --conn->in_flight;
  conn->last_used_us = loop_.clock().now_us();
  if (transport_failed) {
    // The connection is suspect (peer closed, timeout, shed). Drop the
    // channel but keep the ticket: the redial resumes on whichever shard
    // accepts the new connection.
    conn->secure->reset();
    channel_resets_.inc(config_.metrics);
    return;
  }
  // Harvest the freshest resumption credential (tickets chain: each
  // session mints a successor) so future dials resume.
  if (auto t = conn->secure->export_ticket()) ticket_cache_ = std::move(t);
}

ByteTransport ConnectionPool::transport() {
  return [this](Bytes body, std::function<void(Result<Bytes>)> cb) {
    Conn* conn = pick();
    ++conn->in_flight;
    conn->secure->request(
        std::move(body),
        [this, conn, cb = std::move(cb)](Result<Bytes> r) {
          finish(conn, !r.ok() && r.failure().code == Err::kUnavailable);
          cb(std::move(r));
        });
  };
}

void ConnectionPool::arm_sweep() {
  if (sweep_armed_ || conns_.empty()) return;
  sweep_armed_ = true;
  loop_.run_after(config_.sweep_interval_us, [this, alive = alive_] {
    if (!*alive) return;
    sweep_armed_ = false;
    sweep();
  });
}

void ConnectionPool::sweep() {
  const Micros now = loop_.clock().now_us();
  const Micros cutoff = now - config_.idle_timeout_us;
  std::size_t evicted = 0;
  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [&](const std::unique_ptr<Conn>& c) {
                                const bool evict = c->in_flight == 0 &&
                                                   c->last_used_us <= cutoff;
                                if (evict) ++evicted;
                                return evict;
                              }),
               conns_.end());
  if (evicted > 0) evicted_idle_.inc(config_.metrics, evicted);
  arm_sweep();  // re-arms only while entries remain
}

}  // namespace amnesia::websvc
