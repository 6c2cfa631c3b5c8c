// Connection pool: keep-alive reuse, bounds, idle eviction, shared-ticket
// resumption on redial, and pooled traffic against four live reactors
// (the TSan-clean requirement for the shared TicketKeyStore).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "crypto/drbg.h"
#include "eval/deployment.h"
#include "net/event_loop.h"
#include "obs/metrics.h"
#include "websvc/client.h"
#include "websvc/http.h"
#include "websvc/pool.h"

namespace amnesia::websvc {
namespace {

constexpr const char* kMp = "correct horse battery staple";

struct PoolWorld {
  eval::Deployment st;
  net::EventLoop loop;
  crypto::ChaChaDrbg rng{4242};
  obs::MetricsRegistry metrics{&loop.clock()};
  std::uint64_t base_handshakes = 0;
  std::uint64_t base_resumptions = 0;

  explicit PoolWorld(std::size_t shards, std::uint64_t seed = 91)
      : st([&] {
          eval::DeploymentConfig c;
          c.shards = shards;
          c.transport = eval::Transport::kTcp;
          c.base.seed = seed;
          return c;
        }()) {}

  /// Snapshots the shard counters (provisioning pays handshakes of its
  /// own) and launches the reactors. Shard stats are plain counters, so
  /// they are only read while the reactors are quiescent: here, and
  /// after stop().
  void start() {
    base_handshakes = sum_handshakes();
    base_resumptions = sum_resumptions();
    st.start();
  }

  ConnectionPool make_pool(ConnectionPoolConfig config = {}) {
    config.metrics = &metrics;
    return ConnectionPool(loop, "127.0.0.1", st.port(), st.public_key(), rng,
                          config);
  }

  // Pumps the loop until `fired`; fails the test on a 60 s stall.
  void await(bool& fired) {
    const Micros deadline = loop.clock().now_us() + 60'000'000;
    while (!fired) {
      ASSERT_LT(loop.clock().now_us(), deadline) << "pooled flow stalled";
      loop.poll(20'000);
    }
  }

  /// Valid only after st.stop(): handshakes/resumptions the pooled
  /// traffic itself performed.
  std::uint64_t handshake_delta() { return sum_handshakes() - base_handshakes; }
  std::uint64_t resumption_delta() {
    return sum_resumptions() - base_resumptions;
  }

 private:
  std::uint64_t sum_handshakes() {
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < st.servers(); ++k) {
      total += st.server(k).secure().stats().handshakes;
    }
    return total;
  }
  std::uint64_t sum_resumptions() {
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < st.servers(); ++k) {
      total += st.server(k).secure().stats().resumptions;
    }
    return total;
  }
};

TEST(ConnectionPool, ReusesOneConnectionAndOneHandshake) {
  PoolWorld w(1);
  w.start();
  ConnectionPool pool = w.make_pool();
  HttpClient http(pool.transport());

  for (int i = 0; i < 8; ++i) {
    bool fired = false;
    http.get("/metrics", [&](Result<Response> r) {
      EXPECT_TRUE(r.ok());
      if (r.ok()) {
        EXPECT_EQ(r.value().status, 200);
      }
      fired = true;
    });
    w.await(fired);
  }
  // Eight sequential requests, one TCP connection, one handshake total.
  EXPECT_EQ(pool.open_connections(), 1u);
  const auto snap = w.metrics.snapshot();
  EXPECT_EQ(snap.counters.at("websvc.pool.dials"), 1u);
  EXPECT_GE(snap.counters.at("websvc.pool.reuses"), 7u);
  w.st.stop();
  EXPECT_EQ(w.handshake_delta(), 1u);
  EXPECT_EQ(w.resumption_delta(), 0u);
}

TEST(ConnectionPool, BoundsConnectionsAndSeedsDialsFromTicketCache) {
  PoolWorld w(1);
  w.start();
  ConnectionPoolConfig config;
  config.max_connections = 3;
  ConnectionPool pool = w.make_pool(config);
  HttpClient http(pool.transport());

  // Warm request: fills the pool's shared ticket cache.
  bool warm = false;
  http.get("/metrics", [&](Result<Response>) { warm = true; });
  w.await(warm);

  // A 12-deep burst: the pool grows to its bound — no further — and
  // every extra dial resumes from the cached ticket instead of paying
  // X25519.
  int done = 0;
  bool all = false;
  for (int i = 0; i < 12; ++i) {
    http.get("/metrics", [&](Result<Response> r) {
      EXPECT_TRUE(r.ok());
      if (++done == 12) all = true;
    });
  }
  EXPECT_EQ(pool.open_connections(), 3u);
  w.await(all);
  EXPECT_EQ(pool.open_connections(), 3u);
  w.st.stop();
  EXPECT_EQ(w.handshake_delta(), 1u);
  EXPECT_EQ(w.resumption_delta(), 2u);
}

TEST(ConnectionPool, EvictsIdleConnectionsAndResumesOnRedial) {
  PoolWorld w(1);
  w.start();
  ConnectionPoolConfig config;
  config.idle_timeout_us = 150'000;
  config.sweep_interval_us = 50'000;
  ConnectionPool pool = w.make_pool(config);
  HttpClient http(pool.transport());

  bool first = false;
  http.get("/metrics", [&](Result<Response>) { first = true; });
  w.await(first);
  EXPECT_EQ(pool.open_connections(), 1u);

  // Idle past the timeout: the timer sweep tears the entry down.
  const Micros deadline = w.loop.clock().now_us() + 10'000'000;
  while (pool.open_connections() > 0) {
    ASSERT_LT(w.loop.clock().now_us(), deadline) << "idle eviction stalled";
    w.loop.poll(20'000);
  }
  EXPECT_GE(w.metrics.snapshot().counters.at("websvc.pool.evicted_idle"), 1u);

  // The redial is seeded from the ticket cache: no second X25519.
  bool second = false;
  http.get("/metrics", [&](Result<Response> r) {
    EXPECT_TRUE(r.ok());
    second = true;
  });
  w.await(second);
  EXPECT_EQ(pool.open_connections(), 1u);
  w.st.stop();
  EXPECT_EQ(w.handshake_delta(), 1u);
  EXPECT_EQ(w.resumption_delta(), 1u);
}

TEST(ConnectionPool, PooledLoginsAcrossFourLiveReactors) {
  // Four reactor threads, one shared TicketKeyStore, one pool: the
  // cross-thread surface the TSan pass must hold clean. Logins route by
  // user hash, so pooled connections exercise the mailbox too.
  PoolWorld w(4);
  std::vector<std::string> users = {"alice", "bob", "carol", "dave"};
  for (const auto& user : users) {
    ASSERT_TRUE(w.st.world_of(user).provision(user, kMp).ok()) << user;
  }
  w.start();
  ConnectionPool pool = w.make_pool();

  // One HttpClient per logical user (own cookie jar), all sharing the
  // pool's connections.
  std::vector<std::unique_ptr<HttpClient>> clients;
  for (std::size_t i = 0; i < users.size(); ++i) {
    clients.push_back(std::make_unique<HttpClient>(pool.transport()));
  }

  for (int round = 0; round < 3; ++round) {
    int done = 0;
    bool all = false;
    for (std::size_t i = 0; i < users.size(); ++i) {
      clients[i]->post_form(
          "/login", {{"user", users[i]}, {"master_password", kMp}},
          [&, i](Result<Response> r) {
            EXPECT_TRUE(r.ok()) << users[i];
            if (r.ok()) {
              EXPECT_EQ(r.value().status, 200) << users[i];
            }
            if (++done == static_cast<int>(users.size())) all = true;
          });
    }
    w.await(all);
  }

  EXPECT_LE(pool.open_connections(), 4u);
  w.st.stop();
  // The whole 12-login run paid for at most the pool's width in full
  // handshakes; everything else rode established channels or tickets.
  EXPECT_LE(w.handshake_delta(), 4u);
}

}  // namespace
}  // namespace amnesia::websvc
