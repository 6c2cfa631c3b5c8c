// Shard conformance: the N-reactor deployment must behave like one
// logical Amnesia server. Five-hop login/password/registration flows run
// at N = 1, 2, 4 over the deterministic simulation and over real TCP
// (SO_REUSEPORT across reactor threads); outcomes match the single-shard
// server, a request's trace tree stays connected across the shard
// mailbox, the aggregate endpoints answer with exactly the fold of every
// shard's body (and /push/poll with the statuses one server gives), and
// a user's rows live in exactly one shard's storage file.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "client/browser.h"
#include "common/error.h"
#include "crypto/drbg.h"
#include "eval/sharded_testbed.h"
#include "eval/testbed.h"
#include "net/event_loop.h"
#include "net/rpc.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "securechan/channel.h"
#include "server/db.h"
#include "server/shard.h"
#include "simnet/node.h"
#include "websvc/client.h"
#include "websvc/http.h"

namespace amnesia {
namespace {

using eval::ShardedSimConfig;
using eval::ShardedSimTestbed;
using eval::ShardedTcpConfig;
using eval::ShardedTcpTestbed;
using eval::Testbed;
using eval::TestbedConfig;

// Users chosen so that at N = 4 they cover several distinct shards.
const std::vector<std::string> kUsers = {"alice", "bob", "carol", "dave"};
constexpr const char* kMp = "one master password";

/// Runs the simulation until the captured callback fires.
template <typename T>
class Waiter {
 public:
  explicit Waiter(simnet::Simulation& sim) : sim_(sim) {}

  std::function<void(T)> capture() {
    return [this](T value) { result_ = std::make_unique<T>(std::move(value)); };
  }

  T wait() {
    std::size_t steps = 0;
    while (!result_ && sim_.step()) {
      if (++steps > 10'000'000) throw Error("waiter: event budget exceeded");
    }
    if (!result_) throw Error("waiter: operation never completed");
    return std::move(*result_);
  }

 private:
  simnet::Simulation& sim_;
  std::unique_ptr<T> result_;
};

// ------------------------------------------------------ routing helpers

TEST(ShardRouting, UserHashIsStableAndInRange) {
  for (const std::string& user : kUsers) {
    const std::size_t k = server::shard_of_user(user, 4);
    EXPECT_LT(k, 4u);
    EXPECT_EQ(k, server::shard_of_user(user, 4)) << "must be deterministic";
    EXPECT_EQ(server::shard_of_user(user, 1), 0u);
  }
  // The four canonical test users must not all collapse onto one shard.
  std::set<std::size_t> owners;
  for (const std::string& user : kUsers) {
    owners.insert(server::shard_of_user(user, 4));
  }
  EXPECT_GE(owners.size(), 2u);
}

TEST(ShardRouting, TokenPrefixRoundTrips) {
  EXPECT_EQ(server::shard_token_prefix(0, 1), "");
  EXPECT_EQ(server::shard_token_prefix(2, 4), "s2.");
  EXPECT_EQ(server::shard_of_token("s2.deadbeef", 4), 2u);
  EXPECT_EQ(server::shard_of_token("s13.deadbeef", 16), 13u);
  EXPECT_EQ(server::shard_of_token("deadbeef", 4), std::nullopt);
  EXPECT_EQ(server::shard_of_token("s9.x", 4), std::nullopt) << "out of range";
  EXPECT_EQ(server::shard_of_token("sx.y", 4), std::nullopt);
  EXPECT_EQ(server::shard_of_token("s.", 4), std::nullopt);
}

TEST(ShardRouting, RequestIdRecoversIssuingShard) {
  // Shard k of N issues k+1, k+1+N, ... — disjoint arithmetic sequences.
  for (std::size_t n : {1u, 2u, 4u}) {
    for (std::size_t k = 0; k < n; ++k) {
      for (std::uint64_t i = 0; i < 5; ++i) {
        const std::uint64_t id = (k + 1) + i * n;
        EXPECT_EQ(server::shard_of_request_id(id, n), k);
      }
    }
  }
  EXPECT_EQ(server::shard_of_request_id(0, 4), std::nullopt);
}

// ----------------------------------------------- sim-mode protocol flows

/// provision + add_account + two password requests for one user; the
/// second request must regenerate the identical password.
std::string full_flow(ShardedSimTestbed& st, const std::string& user) {
  Testbed& bed = st.bed();
  EXPECT_TRUE(bed.provision(user, kMp).ok()) << user;
  EXPECT_TRUE(bed.add_account("acct-" + user, user + ".example.com").ok());
  const auto first = bed.get_password("acct-" + user, user + ".example.com");
  EXPECT_TRUE(first.ok()) << user;
  const auto second = bed.get_password("acct-" + user, user + ".example.com");
  EXPECT_TRUE(second.ok()) << user;
  EXPECT_EQ(first.value(), second.value())
      << "regeneration must be deterministic";
  return first.ok() ? first.value() : std::string();
}

TEST(ShardConformance, SimFlowsSucceedAtEveryShardCount) {
  for (const std::size_t n : {1u, 2u, 4u}) {
    ShardedSimConfig config;
    config.shards = n;
    config.base.seed = 11;
    ShardedSimTestbed st(config);
    for (const std::string& user : kUsers) {
      const std::string password = full_flow(st, user);
      EXPECT_FALSE(password.empty()) << user << " at N=" << n;
    }
  }
}

TEST(ShardConformance, SingleShardMatchesPlainTestbedExactly) {
  TestbedConfig plain_config;
  plain_config.seed = 23;
  Testbed plain(plain_config);
  ASSERT_TRUE(plain.provision("alice", kMp).ok());
  ASSERT_TRUE(plain.add_account("Alice", "mail.example.com").ok());
  const auto expected = plain.get_password("Alice", "mail.example.com");
  ASSERT_TRUE(expected.ok());

  ShardedSimConfig config;
  config.shards = 1;
  config.base.seed = 23;
  ShardedSimTestbed st(config);
  ASSERT_TRUE(st.bed().provision("alice", kMp).ok());
  ASSERT_TRUE(st.bed().add_account("Alice", "mail.example.com").ok());
  const auto got = st.bed().get_password("Alice", "mail.example.com");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), expected.value())
      << "N=1 must be byte-identical to the unsharded server";
}

TEST(ShardConformance, CrossShardRequestsActuallyForward) {
  ShardedSimConfig config;
  config.shards = 4;
  config.base.seed = 31;
  ShardedSimTestbed st(config);
  // Exercise a user owned by a non-zero shard (the browser talks to the
  // shard-0 node, so every request of theirs crosses the mailbox).
  std::string remote_user;
  for (const std::string& user : kUsers) {
    if (st.owner_of(user) != 0) {
      remote_user = user;
      break;
    }
  }
  ASSERT_FALSE(remote_user.empty());
  full_flow(st, remote_user);

  const std::size_t owner = st.owner_of(remote_user);
  const auto out =
      st.shard(0).metrics().snapshot().counters["shard.forwarded_out"];
  const auto in =
      st.shard(owner).metrics().snapshot().counters["shard.forwarded_in"];
  EXPECT_GT(out, 0u) << "shard 0 must forward the remote user's requests";
  EXPECT_GT(in, 0u) << "the owner shard must receive them";
  // Shared-nothing: the user's row exists on the owner shard only.
  for (std::size_t k = 0; k < st.shards(); ++k) {
    EXPECT_EQ(st.shard(k).db().user_exists(remote_user), k == owner)
        << "shard " << k;
  }
}

// -------------------------------------------------- merged trace trees

std::vector<obs::TraceSpan> merged_trace(ShardedSimTestbed& st,
                                         obs::TraceId id) {
  std::vector<obs::TraceSpan> all;
  for (std::size_t k = 0; k < st.shards(); ++k) {
    const auto part = st.shard(k).metrics().tracer().trace(id);
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

/// Connected: exactly one root, every other span's parent is present.
void expect_connected(const std::vector<obs::TraceSpan>& spans) {
  std::map<obs::SpanId, const obs::TraceSpan*> index;
  for (const auto& s : spans) index.emplace(s.id, &s);
  std::size_t roots = 0;
  for (const auto& s : spans) {
    if (s.parent == 0) {
      ++roots;
    } else {
      EXPECT_TRUE(index.contains(s.parent))
          << s.name << " (" << s.component << ") orphaned across the "
          << "shard mailbox";
    }
  }
  EXPECT_EQ(roots, 1u);
}

TEST(ShardConformance, TraceTreeStaysConnectedAcrossTheMailbox) {
  ShardedSimConfig config;
  config.shards = 4;
  config.base.seed = 47;
  ShardedSimTestbed st(config);
  std::string remote_user;
  for (const std::string& user : kUsers) {
    if (st.owner_of(user) != 0) remote_user = user;
  }
  ASSERT_FALSE(remote_user.empty());
  ASSERT_TRUE(st.bed().provision(remote_user, kMp).ok());
  ASSERT_TRUE(st.bed().add_account("A", "site.example.com").ok());
  ASSERT_TRUE(st.bed().get_password("A", "site.example.com").ok());

  const auto spans = merged_trace(st, st.bed().browser().last_trace_id());
  ASSERT_FALSE(spans.empty());
  expect_connected(spans);
  std::set<std::string> components;
  for (const auto& s : spans) components.insert(s.component);
  EXPECT_TRUE(components.contains("browser"));
  EXPECT_TRUE(components.contains("server"));
  EXPECT_TRUE(components.contains("phone"));
}

// --------------------------------------------- aggregate ops endpoints

/// A raw secure-channel HTTP client dialing one shard's node — how an
/// operator's tooling reaches the sharded deployment in the simulation.
struct OpsClient {
  simnet::Node node;
  securechan::SecureClient chan;
  websvc::HttpClient http;

  OpsClient(Testbed& bed, RandomSource& rng,
            const std::string& name = "ops-client",
            const std::string& target = "amnesia-server")
      : node(bed.net(), name),
        chan(node, target, bed.server().public_key(), rng),
        http([this](Bytes wire, std::function<void(Result<Bytes>)> cb) {
          chan.request(std::move(wire), std::move(cb));
        }) {}

  // One GET /metrics round; fails the test if it doesn't complete 200.
  void round(simnet::Simulation& sim) {
    Waiter<Result<websvc::Response>> waiter(sim);
    http.get("/metrics", waiter.capture());
    const auto r = waiter.wait();
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().status, 200);
  }

  // One request; the response, or status 0 (and a test failure) when the
  // round never completes.
  websvc::Response send(simnet::Simulation& sim, websvc::Method method,
                        const std::string& path) {
    websvc::Request req;
    req.method = method;
    req.path = path;
    Waiter<Result<websvc::Response>> waiter(sim);
    http.send(std::move(req), waiter.capture());
    const auto r = waiter.wait();
    EXPECT_TRUE(r.ok()) << path;
    if (!r.ok()) return websvc::Response{0, {}, {}};
    return r.value();
  }
};

TEST(ShardConformance, AggregateEndpointsCoverEveryShard) {
  ShardedSimConfig config;
  config.shards = 2;
  config.base.seed = 59;
  ShardedSimTestbed st(config);
  // One password round per user: alice and bob own different shards at
  // N=2, so both registries end up with a server.passwords_generated.
  for (const std::string& user : {std::string("alice"), std::string("bob")}) {
    ASSERT_TRUE(st.bed().provision(user, kMp).ok()) << user;
    ASSERT_TRUE(st.bed().add_account("A", "site.example.com").ok()) << user;
    ASSERT_TRUE(st.bed().get_password("A", "site.example.com").ok()) << user;
  }

  crypto::ChaChaDrbg rng(123);
  OpsClient ops(st.bed(), rng);

  // /metrics must merge both registries: the per-shard generation
  // counters sum to the passwords both shards produced.
  Waiter<Result<websvc::Response>> metrics_waiter(st.bed().sim());
  ops.http.get("/metrics", metrics_waiter.capture());
  const auto metrics = metrics_waiter.wait();
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics.value().status, 200);
  const obs::Snapshot merged = obs::parse_text(metrics.value().body);
  std::uint64_t expected_generated = 0;
  for (std::size_t k = 0; k < st.shards(); ++k) {
    expected_generated += st.shard(k).stats().passwords_generated;
  }
  EXPECT_GE(expected_generated, 2u);
  ASSERT_TRUE(merged.counters.contains("server.passwords_generated"))
      << "aggregate /metrics is missing the per-shard counter";
  EXPECT_EQ(merged.counters.at("server.passwords_generated"),
            expected_generated);

  // /trace/<id> of the last password round answers with the merged tree.
  const auto id = st.bed().browser().last_trace_id();
  Waiter<Result<websvc::Response>> trace_waiter(st.bed().sim());
  ops.http.get("/trace/" + obs::trace_id_hex(id), trace_waiter.capture());
  const auto trace = trace_waiter.wait();
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace.value().status, 200);
  EXPECT_NE(trace.value().body.find("protocol.round"), std::string::npos);

  // Unknown and malformed ids keep the stock error shape.
  Waiter<Result<websvc::Response>> missing_waiter(st.bed().sim());
  ops.http.get("/trace/00000000000000000000000000000001",
               missing_waiter.capture());
  const auto missing = missing_waiter.wait();
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);
  EXPECT_EQ(ops.send(st.bed().sim(), websvc::Method::kGet, "/trace/xyz").status,
            400);

  // /events concatenates every shard's structured log.
  Waiter<Result<websvc::Response>> events_waiter(st.bed().sim());
  ops.http.get("/events", events_waiter.capture());
  const auto events = events_waiter.wait();
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events.value().status, 200);
}

TEST(ShardConformance, AggregateBodiesAreTheFoldOfEveryShard) {
  ShardedSimConfig config;
  config.shards = 2;
  config.base.seed = 59;
  // A 1 ms SLO makes every round slow, so both shards' slowlogs fill.
  config.base.server.slow_request_slo_us = 1'000;
  ShardedSimTestbed st(config);
  // The last round crosses the mailbox (its user lives on shard 1, the
  // browser dials shard 0), so both shards hold spans of its trace.
  std::vector<std::string> users = {"alice", "bob"};
  if (st.owner_of(users[1]) == 0) std::swap(users[0], users[1]);
  ASSERT_EQ(st.owner_of(users[1]), 1u);
  for (const std::string& user : users) {
    ASSERT_TRUE(st.bed().provision(user, kMp).ok()) << user;
    ASSERT_TRUE(st.bed().add_account("A", "site.example.com").ok()) << user;
    ASSERT_TRUE(st.bed().get_password("A", "site.example.com").ok()) << user;
  }
  for (std::size_t k = 0; k < st.shards(); ++k) {
    st.shard(k).metrics().events().emit(obs::EventLevel::kInfo, "test",
                                        "shard " + std::to_string(k));
  }
  // The scrapes arrive over shard 0's secure channel, which would count
  // their records into the registry being compared; keep it still.
  st.shard(0).secure().set_metrics(nullptr);

  crypto::ChaChaDrbg rng(123);
  OpsClient ops(st.bed(), rng);
  simnet::Simulation& sim = st.bed().sim();

  // /metrics: the text of every shard's snapshot merged in shard order.
  const websvc::Response metrics =
      ops.send(sim, websvc::Method::kGet, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  obs::Snapshot merged;
  for (std::size_t k = 0; k < st.shards(); ++k) {
    obs::merge_snapshot(merged, st.shard(k).metrics().snapshot());
  }
  EXPECT_EQ(metrics.body, obs::to_text(merged));

  // /trace/<id>: one JSON document over the shards' spans, shard order.
  const obs::TraceId id = st.bed().browser().last_trace_id();
  for (std::size_t k = 0; k < st.shards(); ++k) {
    EXPECT_FALSE(st.shard(k).metrics().tracer().trace(id).empty())
        << "shard " << k;
  }
  const auto spans = merged_trace(st, id);
  const websvc::Response trace =
      ops.send(sim, websvc::Method::kGet, "/trace/" + obs::trace_id_hex(id));
  EXPECT_EQ(trace.status, 200);
  EXPECT_EQ(trace.body, obs::trace_to_json(spans));

  // /events and /slowlog: the shards' JSON lines, concatenated.
  std::string events;
  std::string slowlog;
  for (std::size_t k = 0; k < st.shards(); ++k) {
    const std::string shard_events =
        st.shard(k).metrics().events().to_json_lines();
    const std::string shard_slowlog = st.shard(k).slowlog().to_json_lines();
    EXPECT_FALSE(shard_events.empty()) << "shard " << k;
    EXPECT_FALSE(shard_slowlog.empty()) << "shard " << k;
    events += shard_events;
    slowlog += shard_slowlog;
  }
  const websvc::Response events_resp =
      ops.send(sim, websvc::Method::kGet, "/events");
  EXPECT_EQ(events_resp.status, 200);
  EXPECT_EQ(events_resp.body, events);
  const websvc::Response slowlog_resp =
      ops.send(sim, websvc::Method::kGet, "/slowlog");
  EXPECT_EQ(slowlog_resp.status, 200);
  EXPECT_EQ(slowlog_resp.body, slowlog);
}

TEST(ShardConformance, PushPollAnswersLikeOneServer) {
  for (const std::size_t n : {1u, 2u}) {
    ShardedSimConfig config;
    config.shards = n;
    config.base.seed = 61;
    ShardedSimTestbed st(config);
    crypto::ChaChaDrbg rng(123);
    OpsClient ops(st.bed(), rng);
    // No reg_id: every shard rejects the form alike, so the 400 answers
    // for all of them instead of folding into an empty 200.
    EXPECT_EQ(ops.send(st.bed().sim(), websvc::Method::kPost, "/push/poll")
                  .status,
              400)
        << "N=" << n;
    // /push/poll is POST-only: a GET finds no route on any shard.
    EXPECT_EQ(
        ops.send(st.bed().sim(), websvc::Method::kGet, "/push/poll").status,
        404)
        << "N=" << n;
  }
}

// ------------------------------------- shard-agnostic session tickets

TEST(ShardConformance, TicketMintedOnOneShardResumesOnAnother) {
  ShardedSimConfig config;
  config.shards = 2;
  config.base.seed = 71;
  ShardedSimTestbed st(config);
  crypto::ChaChaDrbg rng(321);

  // Full handshake against shard 0's node: the server_hello carries a
  // ticket sealed under the fleet-wide key store.
  OpsClient first(st.bed(), rng);
  first.round(st.bed().sim());
  ASSERT_TRUE(first.chan.has_ticket());

  const auto before0 = st.shard(0).secure().stats();
  const auto before1 = st.shard(1).secure().stats();

  // A second client dials shard 1's node directly, armed only with the
  // ticket shard 0 minted.
  OpsClient second(st.bed(), rng, "ops-client-2", "amnesia-server-1");
  second.chan.adopt_ticket(*first.chan.export_ticket());
  second.round(st.bed().sim());

  const auto after1 = st.shard(1).secure().stats();
  EXPECT_EQ(after1.resumptions, before1.resumptions + 1)
      << "shard 1 must accept a ticket minted by shard 0";
  EXPECT_EQ(after1.handshakes, before1.handshakes)
      << "no X25519 on the resumed path";
  EXPECT_EQ(after1.resumptions_rejected, before1.resumptions_rejected);
  EXPECT_EQ(st.shard(0).secure().stats().handshakes, before0.handshakes);
}

TEST(ShardConformance, TicketRotationKeepsOldTicketsOnePeriod) {
  ShardedSimConfig config;
  config.shards = 2;
  config.base.seed = 73;
  ShardedSimTestbed st(config);
  crypto::ChaChaDrbg rng(322);
  crypto::ChaChaDrbg rotation_rng(323);

  OpsClient first(st.bed(), rng);
  first.round(st.bed().sim());
  ASSERT_TRUE(first.chan.has_ticket());

  // One rotation: a ticket sealed under the previous key still resumes
  // (graceful key rollover across the fleet).
  st.ticket_store()->rotate(rotation_rng);
  OpsClient second(st.bed(), rng, "ops-client-2", "amnesia-server-1");
  second.chan.adopt_ticket(*first.chan.export_ticket());
  const auto before1 = st.shard(1).secure().stats();
  second.round(st.bed().sim());
  EXPECT_EQ(st.shard(1).secure().stats().resumptions,
            before1.resumptions + 1)
      << "one rotation of grace";

  // Two more rotations age the chained ticket out entirely: the next
  // client falls back to a full handshake — transparently, the request
  // still succeeds.
  st.ticket_store()->rotate(rotation_rng);
  st.ticket_store()->rotate(rotation_rng);
  OpsClient third(st.bed(), rng, "ops-client-3", "amnesia-server");
  third.chan.adopt_ticket(*second.chan.export_ticket());
  const auto before0 = st.shard(0).secure().stats();
  third.round(st.bed().sim());
  const auto after0 = st.shard(0).secure().stats();
  EXPECT_EQ(after0.resumptions_rejected, before0.resumptions_rejected + 1);
  EXPECT_EQ(after0.handshakes, before0.handshakes + 1)
      << "expired ticket must fall back to X25519, not fail the request";
  EXPECT_TRUE(third.chan.has_ticket()) << "fallback re-arms the client";
}

// ------------------------------------------------- per-shard storage

TEST(ShardConformance, EachUsersRowsLiveInExactlyOneShardFile) {
  const std::string dir = ::testing::TempDir() + "shard_conf_db";
  std::filesystem::create_directories(dir);
  {
    ShardedSimConfig config;
    config.shards = 4;
    config.base.seed = 67;
    config.db_dir = dir;
    ShardedSimTestbed st(config);
    for (const std::string& user : kUsers) {
      ASSERT_TRUE(st.bed().provision(user, kMp).ok()) << user;
    }
  }
  // Reopen the four storage files cold and audit row placement.
  for (const std::string& user : kUsers) {
    const std::size_t owner = server::shard_of_user(user, 4);
    for (std::size_t k = 0; k < 4; ++k) {
      server::DbHandler db(dir + "/shard-" + std::to_string(k) + ".db");
      EXPECT_EQ(db.user_exists(user), k == owner)
          << user << " vs shard file " << k;
    }
  }
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------- real TCP mode

TEST(ShardConformance, TcpReactorsServeTheSameFlows) {
  for (const std::size_t n : {1u, 4u}) {
    ShardedTcpConfig config;
    config.shards = n;
    config.seed = 83;
    ShardedTcpTestbed st(config);
    // Two users with distinct owners: whichever reactor accepts the
    // connection, at least one of them exercises the mailbox at N=4.
    std::vector<std::string> users = {"alice", "bob"};
    if (n > 1) {
      ASSERT_NE(st.owner_of(users[0]), st.owner_of(users[1]));
    }
    for (const std::string& user : users) {
      ASSERT_TRUE(st.provision(user, kMp).ok()) << user;
      // provision() leaves the owner bed's browser logged in as `user`.
      Testbed& owner_bed = st.bed(st.owner_of(user));
      ASSERT_TRUE(owner_bed.add_account("acct", user + ".example.com").ok());
    }
    st.start();

    net::EventLoop loop;
    net::TcpTransport dial(loop, "127.0.0.1", st.port());
    net::RpcClient rpc(dial, 30'000'000);
    crypto::ChaChaDrbg rng(99);
    client::Browser browser(rpc.wire(), st.public_key(), rng, "tcp-client");

    const auto await = [&](auto start) {
      bool fired = false;
      start([&fired] { fired = true; });
      const Micros deadline = loop.clock().now_us() + 60'000'000;
      while (!fired) {
        ASSERT_LT(loop.clock().now_us(), deadline) << "TCP flow stalled";
        loop.poll(20'000);
      }
    };

    for (const std::string& user : users) {
      bool ok = false;
      await([&](auto done) {
        browser.login(user, kMp, [&, done](Status s) {
          ok = s.ok();
          done();
        });
      });
      EXPECT_TRUE(ok) << user << " login over TCP at N=" << n;
      Result<std::string> password(Err::kUnavailable, "pending");
      await([&](auto done) {
        browser.request_password("acct", user + ".example.com",
                                 [&, done](Result<std::string> r) {
                                   password = std::move(r);
                                   done();
                                 });
      });
      EXPECT_TRUE(password.ok()) << user << " password over TCP at N=" << n;
      if (password.ok()) {
        EXPECT_FALSE(password.value().empty());
      }
    }
    rpc.close();
    st.stop();

    if (n > 1) {
      // One connection, two users with different owners: at least one
      // request had to cross the shard mailbox.
      std::uint64_t forwarded = 0;
      for (std::size_t k = 0; k < n; ++k) {
        forwarded += st.bed(k)
                         .server()
                         .metrics()
                         .snapshot()
                         .counters["shard.forwarded_in"];
      }
      EXPECT_GT(forwarded, 0u);
    }
  }
}

TEST(ShardConformance, TcpTicketsResumeAcrossReactors) {
  ShardedTcpConfig config;
  config.shards = 4;
  config.seed = 101;
  ShardedTcpTestbed st(config);

  // Baseline while single-threaded; the reactor threads write these
  // counters, so they are re-read only after stop().
  std::uint64_t base_handshakes = 0;
  std::uint64_t base_resumptions = 0;
  for (std::size_t k = 0; k < st.shards(); ++k) {
    base_handshakes += st.bed(k).server().secure().stats().handshakes;
    base_resumptions += st.bed(k).server().secure().stats().resumptions;
  }
  st.start();

  net::EventLoop loop;
  crypto::ChaChaDrbg rng(555);

  // One raw TCP connection with its own secure channel.
  struct Dial {
    net::TcpTransport tcp;
    net::RpcClient rpc;
    securechan::SecureClient chan;
    websvc::HttpClient http;
    Dial(net::EventLoop& loop, std::uint16_t port,
         const crypto::X25519Key& key, RandomSource& rng)
        : tcp(loop, "127.0.0.1", port),
          rpc(tcp, 30'000'000),
          chan(rpc.wire(), key, rng),
          http([this](Bytes wire, std::function<void(Result<Bytes>)> cb) {
            chan.request(std::move(wire), std::move(cb));
          }) {}
  };

  const auto round = [&](Dial& d) {
    bool fired = false;
    d.http.get("/metrics", [&](Result<websvc::Response> r) {
      EXPECT_TRUE(r.ok());
      fired = true;
    });
    const Micros deadline = loop.clock().now_us() + 60'000'000;
    while (!fired) {
      ASSERT_LT(loop.clock().now_us(), deadline) << "TCP round stalled";
      loop.poll(20'000);
    }
  };

  std::vector<std::unique_ptr<Dial>> dials;
  dials.push_back(
      std::make_unique<Dial>(loop, st.port(), st.public_key(), rng));
  round(*dials[0]);  // the run's one and only full handshake
  ASSERT_TRUE(dials[0]->chan.has_ticket());

  // Five more connections: SO_REUSEPORT scatters them across the four
  // reactors, and each adopts the freshest ticket in the chain — so the
  // accepting reactor is never (reliably) the minting one. Rotating the
  // fleet keys halfway through must not break the chain: tickets sealed
  // under the previous key keep one period of grace.
  for (int i = 0; i < 5; ++i) {
    if (i == 3) st.ticket_store()->rotate(rng);
    auto d = std::make_unique<Dial>(loop, st.port(), st.public_key(), rng);
    d->chan.adopt_ticket(*dials.back()->chan.export_ticket());
    round(*d);
    EXPECT_TRUE(d->chan.has_ticket());
    dials.push_back(std::move(d));
  }

  for (auto& d : dials) d->rpc.close();
  st.stop();

  std::uint64_t handshakes = 0;
  std::uint64_t resumptions = 0;
  for (std::size_t k = 0; k < st.shards(); ++k) {
    handshakes += st.bed(k).server().secure().stats().handshakes;
    resumptions += st.bed(k).server().secure().stats().resumptions;
  }
  EXPECT_EQ(handshakes - base_handshakes, 1u)
      << "six connections, one X25519 across the whole fleet";
  EXPECT_EQ(resumptions - base_resumptions, 5u);
}

}  // namespace
}  // namespace amnesia
