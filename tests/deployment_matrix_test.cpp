// The deployment matrix: every (shards, replicas) cell of eval::Deployment
// on both transports runs the same flows, written once.
//
//   every cell       provision four users and take each one's ground-truth
//                    password in simulation; then, through the cell's own
//                    client (the world's browser in a simulation, a real
//                    TCP browser otherwise), a login and two password
//                    rounds per user that must match it
//   shards > 1       the rounds crossed the shard mailbox, and each user
//                    lives on its owner shard only
//   replicas >= 2    the primary crashes at the "server.push.acked" kill
//                    point and the promoted follower finishes the round
//                    with the ground-truth password, then serves a fresh
//                    one without re-minting a request id; with two
//                    replicas the crashed round's trace is one connected
//                    tree spanning both servers
//   every cell       each server persists to its own file, which reopens
//                    cold to the state that server held at shutdown
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "client/browser.h"
#include "cluster/node.h"
#include "crypto/drbg.h"
#include "eval/deployment.h"
#include "net/event_loop.h"
#include "net/rpc.h"
#include "net/tcp.h"
#include "obs/trace.h"
#include "resilience/fault.h"
#include "securechan/channel.h"
#include "server/db.h"
#include "testutil.h"
#include "websvc/client.h"
#include "websvc/http.h"

namespace amnesia {
namespace {

using eval::Deployment;
using eval::DeploymentConfig;
using eval::Transport;
using testutil::ConnectedSingleRoot;
using testutil::FindSpan;

const std::vector<std::string> kUsers = {"alice", "bob", "carol", "dave"};
constexpr const char* kMp = "one master password";
std::string domain_of(const std::string& user) {
  return user + ".example.com";
}

struct Cell {
  std::size_t shards;
  std::size_t replicas;
  Transport transport;
};

std::string cell_name(const Cell& c) {
  return "S" + std::to_string(c.shards) + "R" + std::to_string(c.replicas) +
         (c.transport == Transport::kTcp ? "Tcp" : "Sim");
}
void PrintTo(const Cell& c, std::ostream* os) { *os << cell_name(c); }

DeploymentConfig cell_config(const Cell& cell, const std::string& db_dir) {
  DeploymentConfig config{.shards = cell.shards,
                          .replicas = cell.replicas,
                          .transport = cell.transport,
                          .db_dir = db_dir};
  config.base.seed = 11;
  // Real seconds cost real seconds on TCP: detection and promotion land
  // within about a second of wall clock.
  config.cluster.heartbeat_interval_us = 100'000;
  config.cluster.lease_ttl_us = 600'000;
  config.cluster.failover_grace_us = 400'000;
  config.cluster.rpc_timeout_us = 1'000'000;
  // The phone's /token retry that outlives the crash must land well
  // inside the browser's await window; its rpc timeout still covers a
  // whole simulated round trip.
  config.base.phone.server_rpc_timeout_us = 2'000'000;
  config.base.phone.token_retry_max = 20;
  config.base.phone.token_retry_delay_us = 250'000;
  return config;
}

/// The cell's client side. In a simulation it is the world's own browser
/// (a promotion retargets it); on TCP a browser on real sockets with its
/// own EventLoop and a main-thread tracer (the reactors never touch it)
/// in a span-id range of its own.
class Client {
 public:
  explicit Client(Deployment& d) : d_(d) {
    if (!d_.tcp()) return;
    tracer_.seed_span_ids(1ull << 48);
    tcp_browser_ = std::make_unique<client::Browser>(dial(0, 4'000'000),
                                                     d_.public_key(), rng_,
                                                     "tcp-client");
    tcp_browser_->set_tracer(&tracer_);
  }
  ~Client() {
    for (auto& rpc : rpcs_) rpc->close();
  }

  client::Browser& browser() {
    return tcp_browser_ ? *tcp_browser_ : d_.world().browser();
  }

  /// Runs `start(cb)` until `cb` fires: in a simulation by stepping it,
  /// on TCP by polling this client's loop (`stalled` after 30 s).
  template <typename T>
  T call(const std::function<void(std::function<void(T)>)>& start,
         T stalled) {
    if (!d_.tcp()) {
      eval::Waiter<T> waiter(d_.world().sim());
      start(waiter.capture());
      return waiter.wait();
    }
    std::optional<T> out;
    start([&out](T v) { out = std::move(v); });
    wait_until([&] { return out.has_value(); }, 30'000'000);
    return out ? std::move(*out) : stalled;
  }

  /// Steps the simulation, or polls this client's loop, until `pred`
  /// holds or `budget` us pass.
  bool wait_until(const std::function<bool()>& pred, Micros budget) {
    if (!d_.tcp()) return d_.run_until(pred, budget);
    const Micros deadline = loop_.clock().now_us() + budget;
    while (!pred() && loop_.clock().now_us() < deadline) loop_.poll(20'000);
    return pred();
  }

  Status login(const std::string& user) {
    return call<Status>([&](auto cb) { browser().login(user, kMp, cb); },
                        Status(Err::kUnavailable, "login stalled"));
  }
  Result<std::string> password(const std::string& user) {
    return call<Result<std::string>>(
        [&](auto cb) {
          browser().request_password("acct", domain_of(user), cb);
        },
        Result<std::string>(Err::kUnavailable, "round stalled"));
  }
  Result<std::string> await_password(const std::string& user) {
    return call<Result<std::string>>(
        [&](auto cb) {
          browser().await_password("acct", domain_of(user), cb);
        },
        Result<std::string>(Err::kUnavailable, "await stalled"));
  }

  /// Sends the browser to server k. A simulated browser already follows
  /// promotions; a TCP one takes a fresh socket and resumes its channel
  /// by ticket.
  void retarget(std::size_t k) {
    if (d_.tcp()) tcp_browser_->channel().set_wire(dial(k, 10'000'000));
  }

  /// GET `path` on server k, as an operator's agent would.
  websvc::Response get(std::size_t k, const std::string& path) {
    websvc::HttpClient& http = ops(k);
    const auto r = call<Result<websvc::Response>>(
        [&](auto cb) { http.get(path, cb); },
        Result<websvc::Response>(Err::kUnavailable, "stalled"));
    return r.ok() ? r.value() : websvc::Response{0, {}, {}};
  }

  /// The spans this client recorded itself (TCP); a simulated browser
  /// reports into the servers' registries instead.
  std::vector<obs::TraceSpan> own_spans(const obs::TraceId& id) {
    return d_.tcp() ? tracer_.trace(id) : std::vector<obs::TraceSpan>{};
  }

 private:
  securechan::SecureClient::WireFn dial(std::size_t k, Micros timeout) {
    tcps_.push_back(
        std::make_unique<net::TcpTransport>(loop_, "127.0.0.1", d_.port(k)));
    rpcs_.push_back(std::make_unique<net::RpcClient>(*tcps_.back(), timeout));
    return rpcs_.back()->wire();
  }

  websvc::HttpClient& ops(std::size_t k) {
    Ops& slot = ops_[k];
    if (!d_.tcp()) {
      if (!slot.sim) {
        slot.sim = std::make_unique<testutil::OpsClient>(
            d_.world(), rng_, "ops-" + std::to_string(k),
            d_.server(k).node_id());
      }
      return slot.sim->http;
    }
    if (!slot.http) {
      slot.chan = std::make_unique<securechan::SecureClient>(
          dial(k, 10'000'000), d_.public_key(), rng_);
      slot.http = std::make_unique<websvc::HttpClient>(
          [chan = slot.chan.get()](Bytes wire,
                                   std::function<void(Result<Bytes>)> cb) {
            chan->request(std::move(wire), std::move(cb));
          });
    }
    return *slot.http;
  }

  struct Ops {
    std::unique_ptr<testutil::OpsClient> sim;
    std::unique_ptr<securechan::SecureClient> chan;  // TCP
    std::unique_ptr<websvc::HttpClient> http;        // TCP
  };

  Deployment& d_;
  crypto::ChaChaDrbg rng_{99};
  net::EventLoop loop_;
  obs::Tracer tracer_;
  std::vector<std::unique_ptr<net::TcpTransport>> tcps_;
  std::vector<std::unique_ptr<net::RpcClient>> rpcs_;
  std::unique_ptr<client::Browser> tcp_browser_;
  std::map<std::size_t, Ops> ops_;
};

/// Provisions every user and takes the ground truth in simulation. A
/// TCP world is driven from this thread until start() hands it to its
/// reactor, so TCP provisions first; a simulation starts first, because
/// its router is how a request reaches a non-zero shard.
std::map<std::string, std::string> bring_up(Deployment& d) {
  if (!d.tcp()) d.start();
  std::map<std::string, std::string> truth;
  for (const std::string& user : kUsers) {
    eval::Testbed& world = d.world_of(user);
    EXPECT_TRUE(world.provision(user, kMp).ok()) << user;
    EXPECT_TRUE(world.add_account("acct", domain_of(user)).ok()) << user;
    const auto password = world.get_password("acct", domain_of(user));
    EXPECT_TRUE(password.ok()) << user;
    if (password.ok()) truth[user] = password.value();
  }
  if (d.tcp()) d.start();
  return truth;
}

/// The server.push.acked drill: the primary dies after the phone push
/// went out and before the browser's round completes.
void failover_drill(Deployment& d, Client& client, const std::string& user,
                    const std::string& truth) {
  ASSERT_TRUE(client.login(user).ok());
  if (!d.tcp()) {
    ASSERT_TRUE(d.run_until(
        [&] { return d.node(0).replication_lag() == 0; }, 10'000'000));
  }
  resilience::FaultInjector injector(4242);
  injector.add_rule(resilience::FaultRule{.point = "server.push.acked",
                                          .max_fires = 1,
                                          .kind =
                                              resilience::FaultKind::kCrash});
  const resilience::ScopedFaultInjector guard(injector);
  EXPECT_FALSE(client.password(user).ok()) << "round survived the crash";

  // Find the survivor the way a load balancer would: on TCP, poll every
  // follower's readiness endpoint until one reports the role flip.
  std::size_t survivor = 0;
  const auto promoted = [&] {
    if (!d.tcp()) {
      survivor = d.primary_index();
      return survivor != 0 && survivor < d.servers();
    }
    for (std::size_t k = 1; k < d.servers(); ++k) {
      if (client.get(k, "/healthz").body.find("\"role\": \"primary\"") !=
          std::string::npos) {
        survivor = k;
        return true;
      }
    }
    return false;
  };
  ASSERT_TRUE(client.wait_until(promoted, 30'000'000))
      << "no follower promoted";

  // Same browser, same session: POST /password/await on the survivor
  // resolves the parked round to the ground truth.
  client.retarget(survivor);
  const auto recovered = client.await_password(user);
  ASSERT_TRUE(recovered.ok()) << recovered.message();
  EXPECT_EQ(recovered.value(), truth);
  const obs::TraceId crashed_trace = client.browser().last_trace_id();
  const websvc::Response served =
      client.get(survivor, "/trace/" + obs::trace_id_hex(crashed_trace));
  EXPECT_EQ(served.status, 200);
  EXPECT_NE(served.body.find("protocol.round"), std::string::npos)
      << "primary's spans missing from the survivor's trace";
  EXPECT_NE(served.body.find("server.generate"), std::string::npos)
      << "survivor's spans missing from the trace";

  // A fresh round on the survivor: the replicated request-id high-water
  // mark keeps it from re-minting ids the dead primary used.
  const auto fresh = client.password(user);
  ASSERT_TRUE(fresh.ok()) << fresh.message();
  EXPECT_EQ(fresh.value(), truth);

  d.stop();  // on TCP the reactors are joined: direct reads are safe
  EXPECT_TRUE(d.node(0).dead());
  EXPECT_TRUE(d.server(0).crashed());
  std::uint64_t promotions = 0;
  for (std::size_t k = 0; k < d.servers(); ++k) {
    promotions += d.node(k).stats().promotions;
  }
  EXPECT_EQ(promotions, 1u) << "exactly one follower promotes";
  EXPECT_EQ(d.node(survivor).role(), cluster::ClusterNode::Role::kPrimary);
  EXPECT_GT(d.node(survivor).epoch(), 1u);
  EXPECT_EQ(d.world().phone().stats().duplicate_pushes, 0u)
      << "promoted follower re-minted a request id the dead primary used";

  // With more than two replicas the phone may report phone.confirm into
  // a registry other than the survivor's (docs/CLUSTER.md, Limitations).
  if (d.replicas() != 2) return;
  // One connected tree, spanning both servers: spans the primary
  // recorded before dying arrive as shipped records (the unfinished ones
  // as stubs), the survivor's own spans nest under them.
  std::vector<obs::TraceSpan> spans =
      d.server(survivor).metrics().tracer().trace(crashed_trace);
  const auto own = client.own_spans(crashed_trace);
  spans.insert(spans.end(), own.begin(), own.end());
  EXPECT_TRUE(ConnectedSingleRoot(spans, "browser.request"));
  const auto* root = FindSpan(spans, "browser.request");
  ASSERT_NE(root, nullptr);
  if (!d.tcp()) {
    // The simulated browser reports into the primary's registry.
    EXPECT_FALSE(root->finished) << "the root's end died with the primary";
  }
  EXPECT_NE(FindSpan(spans, "protocol.round"), nullptr)
      << "primary's round span did not ship";
  const auto* generate = FindSpan(spans, "server.generate");
  ASSERT_NE(generate, nullptr) << "survivor's generate span missing";
  EXPECT_TRUE(generate->finished);
  EXPECT_NE(FindSpan(spans, "phone.confirm"), nullptr);
  const auto* await = FindSpan(spans, "browser.await");
  ASSERT_NE(await, nullptr);
  EXPECT_EQ(await->parent, root->id)
      << "recovery span must join the crashed round's root";
}

class DeploymentMatrix : public ::testing::TestWithParam<Cell> {};

TEST_P(DeploymentMatrix, EveryCellServesTheSameFlows) {
  const Cell cell = GetParam();
  // Per process, so concurrent runs (two build trees) never share files.
  const std::string dir = ::testing::TempDir() + "deployment_matrix_" +
                          std::to_string(::getpid()) + "_" +
                          cell_name(cell);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<Bytes> states;
  std::vector<std::string> paths;
  {
    Deployment d(cell_config(cell, dir));
    const auto truth = bring_up(d);
    ASSERT_EQ(truth.size(), kUsers.size());
    if (d.shards() > 1) {
      std::set<std::size_t> owners;
      for (const std::string& user : kUsers) owners.insert(d.owner_of(user));
      ASSERT_GE(owners.size(), 2u) << "the users must span several shards";
    }

    Client client(d);
    for (const std::string& user : kUsers) {
      EXPECT_TRUE(client.login(user).ok()) << user;
      for (int round = 0; round < 2; ++round) {
        const auto password = client.password(user);
        ASSERT_TRUE(password.ok()) << user << ": " << password.message();
        EXPECT_EQ(password.value(), truth.at(user)) << user;
      }
    }
    if (d.replicas() > 1) {
      failover_drill(d, client, "alice", truth.at("alice"));
      if (HasFatalFailure()) return;
    }
    d.stop();

    if (d.shards() > 1) {
      // Every user is served from whichever shard the connection landed
      // on, so some rounds crossed the mailbox. In a simulation the
      // browser dials shard 0, so each remote owner received some.
      std::uint64_t in = 0;
      std::uint64_t out = 0;
      for (std::size_t k = 0; k < d.servers(); ++k) {
        auto counters = d.server(k).metrics().snapshot().counters;
        in += counters["shard.forwarded_in"];
        out += counters["shard.forwarded_out"];
      }
      EXPECT_GT(in, 0u);
      EXPECT_GT(out, 0u);
      for (const std::string& user : kUsers) {
        const std::size_t owner = d.owner_of(user);
        if (!d.tcp() && owner != 0) {
          EXPECT_GT(d.server(owner).metrics().snapshot()
                        .counters["shard.forwarded_in"],
                    0u)
              << user;
        }
        // Shared-nothing: the user's row exists on the owner shard only.
        for (std::size_t k = 0; k < d.servers(); ++k) {
          EXPECT_EQ(d.server(k).db().user_exists(user), k == owner)
              << user << " on shard " << k;
        }
      }
    }
    for (std::size_t k = 0; k < d.servers(); ++k) {
      states.push_back(d.server(k).db().raw().encode_state());
      paths.push_back(d.db_path(k));
    }
  }

  // Reopen every server's file cold: it holds exactly what that server
  // held at shutdown, and each user's rows sit in its owner shard's files
  // only (all replicas of a shard hold them).
  ASSERT_TRUE(std::filesystem::exists(dir + "/shard-0.db.journal"));
  for (std::size_t k = 0; k < paths.size(); ++k) {
    server::DbHandler db(paths[k]);
    EXPECT_EQ(db.raw().encode_state(), states[k]) << paths[k];
    const std::size_t shard = cell.shards > 1 ? k : 0;
    for (const std::string& user : kUsers) {
      EXPECT_EQ(db.user_exists(user),
                server::shard_of_user(user, cell.shards) == shard)
          << user << " in " << paths[k];
    }
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Cells, DeploymentMatrix,
    ::testing::Values(Cell{1, 1, Transport::kSim}, Cell{2, 1, Transport::kSim},
                      Cell{4, 1, Transport::kSim}, Cell{1, 2, Transport::kSim},
                      Cell{1, 3, Transport::kSim}, Cell{1, 1, Transport::kTcp},
                      Cell{2, 1, Transport::kTcp}, Cell{4, 1, Transport::kTcp},
                      Cell{1, 2, Transport::kTcp},
                      Cell{1, 3, Transport::kTcp}),
    [](const auto& info) { return cell_name(info.param); });

TEST(DeploymentLayout, ShardsTimesReplicasThrows) {
  EXPECT_THROW(Deployment({.shards = 2, .replicas = 2}), Error);
}

TEST(DeploymentLayout, SharedDbPathOnSeveralServersThrows) {
  DeploymentConfig config{.shards = 2};
  config.base.server.db_path = ::testing::TempDir() + "shared.db";
  EXPECT_THROW(Deployment{config}, Error);
  config = DeploymentConfig{.replicas = 2};
  config.base.server.db_path = ::testing::TempDir() + "shared.db";
  EXPECT_THROW(Deployment{config}, Error);
}

}  // namespace
}  // namespace amnesia
