// Shard conformance: the N-reactor deployment must behave like one
// logical Amnesia server. One shard matches the unsharded server byte for
// byte, a request's trace tree stays connected across the shard mailbox,
// the aggregate endpoints answer with exactly the fold of every shard's
// body (and /push/poll with the statuses one server gives), and session
// tickets resume on any shard, over the simulation and across real TCP
// reactors. The flows every (shards, replicas) cell serves on both
// transports live in deployment_matrix_test.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "crypto/drbg.h"
#include "eval/deployment.h"
#include "eval/testbed.h"
#include "net/event_loop.h"
#include "net/rpc.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "securechan/channel.h"
#include "server/shard.h"
#include "testutil.h"
#include "websvc/client.h"
#include "websvc/http.h"

namespace amnesia {
namespace {

using eval::Deployment;
using eval::DeploymentConfig;
using eval::Testbed;
using eval::TestbedConfig;
using testutil::OpsClient;

// Users chosen so that at N = 4 they cover several distinct shards.
const std::vector<std::string> kUsers = {"alice", "bob", "carol", "dave"};
constexpr const char* kMp = "one master password";

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

/// A sim deployment of `n` shards, seeded `seed`; start() it before use.
DeploymentConfig sharded(std::size_t n, std::uint64_t seed) {
  DeploymentConfig config;
  config.shards = n;
  config.base.seed = seed;
  return config;
}

/// provision + add_account + two password requests for one user; the
/// second request must regenerate the identical password.
std::string full_flow(Testbed& bed, const std::string& user) {
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

TEST(ShardConformance, SingleShardMatchesPlainTestbedExactly) {
  TestbedConfig plain_config;
  plain_config.seed = 23;
  Testbed plain(plain_config);
  ASSERT_TRUE(plain.provision("alice", kMp).ok());
  ASSERT_TRUE(plain.add_account("Alice", "mail.example.com").ok());
  const auto expected = plain.get_password("Alice", "mail.example.com");
  ASSERT_TRUE(expected.ok());

  Deployment st(sharded(1, 23));
  st.start();
  ASSERT_TRUE(st.world().provision("alice", kMp).ok());
  ASSERT_TRUE(st.world().add_account("Alice", "mail.example.com").ok());
  const auto got = st.world().get_password("Alice", "mail.example.com");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), expected.value())
      << "N=1 must be byte-identical to the unsharded server";
}

TEST(ShardConformance, CrossShardRequestsActuallyForward) {
  Deployment st(sharded(4, 31));
  st.start();
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
  full_flow(st.world(), remote_user);

  const std::size_t owner = st.owner_of(remote_user);
  const auto out =
      st.server(0).metrics().snapshot().counters["shard.forwarded_out"];
  const auto in =
      st.server(owner).metrics().snapshot().counters["shard.forwarded_in"];
  EXPECT_GT(out, 0u) << "shard 0 must forward the remote user's requests";
  EXPECT_GT(in, 0u) << "the owner shard must receive them";
  // Shared-nothing: the user's row exists on the owner shard only.
  for (std::size_t k = 0; k < st.servers(); ++k) {
    EXPECT_EQ(st.server(k).db().user_exists(remote_user), k == owner)
        << "shard " << k;
  }
}

// -------------------------------------------------- merged trace trees

std::vector<obs::TraceSpan> merged_trace(Deployment& st, obs::TraceId id) {
  std::vector<obs::TraceSpan> all;
  for (std::size_t k = 0; k < st.servers(); ++k) {
    const auto part = st.server(k).metrics().tracer().trace(id);
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

TEST(ShardConformance, TraceTreeStaysConnectedAcrossTheMailbox) {
  Deployment st(sharded(4, 47));
  st.start();
  std::string remote_user;
  for (const std::string& user : kUsers) {
    if (st.owner_of(user) != 0) remote_user = user;
  }
  ASSERT_FALSE(remote_user.empty());
  ASSERT_TRUE(st.world().provision(remote_user, kMp).ok());
  ASSERT_TRUE(st.world().add_account("A", "site.example.com").ok());
  ASSERT_TRUE(st.world().get_password("A", "site.example.com").ok());

  const auto spans = merged_trace(st, st.world().browser().last_trace_id());
  ASSERT_FALSE(spans.empty());
  EXPECT_TRUE(testutil::ConnectedSingleRoot(spans));
  std::set<std::string> components;
  for (const auto& s : spans) components.insert(s.component);
  EXPECT_TRUE(components.contains("browser"));
  EXPECT_TRUE(components.contains("server"));
  EXPECT_TRUE(components.contains("phone"));
}

// --------------------------------------------- aggregate ops endpoints

TEST(ShardConformance, AggregateEndpointsCoverEveryShard) {
  Deployment st(sharded(2, 59));
  st.start();
  // One password round per user: alice and bob own different shards at
  // N=2, so both registries end up with a server.passwords_generated.
  for (const std::string& user : {std::string("alice"), std::string("bob")}) {
    ASSERT_TRUE(st.world().provision(user, kMp).ok()) << user;
    ASSERT_TRUE(st.world().add_account("A", "site.example.com").ok()) << user;
    ASSERT_TRUE(st.world().get_password("A", "site.example.com").ok()) << user;
  }

  crypto::ChaChaDrbg rng(123);
  OpsClient ops(st.world(), rng);

  simnet::Simulation& sim = st.world().sim();

  // /metrics must merge both registries: the per-shard generation
  // counters sum to the passwords both shards produced.
  const websvc::Response metrics = ops.get(sim, "/metrics");
  ASSERT_EQ(metrics.status, 200);
  const obs::Snapshot merged = obs::parse_text(metrics.body);
  std::uint64_t expected_generated = 0;
  for (std::size_t k = 0; k < st.servers(); ++k) {
    expected_generated += st.server(k).stats().passwords_generated;
  }
  EXPECT_GE(expected_generated, 2u);
  ASSERT_TRUE(merged.counters.contains("server.passwords_generated"))
      << "aggregate /metrics is missing the per-shard counter";
  EXPECT_EQ(merged.counters.at("server.passwords_generated"),
            expected_generated);

  // /trace/<id> of the last password round answers with the merged tree.
  const auto id = st.world().browser().last_trace_id();
  const websvc::Response trace =
      ops.get(sim, "/trace/" + obs::trace_id_hex(id));
  EXPECT_EQ(trace.status, 200);
  EXPECT_NE(trace.body.find("protocol.round"), std::string::npos);

  // Unknown and malformed ids keep the stock error shape.
  EXPECT_EQ(ops.get(sim, "/trace/00000000000000000000000000000001").status,
            404);
  EXPECT_EQ(ops.get(sim, "/trace/xyz").status, 400);

  // /events concatenates every shard's structured log.
  EXPECT_EQ(ops.get(sim, "/events").status, 200);
}

TEST(ShardConformance, AggregateBodiesAreTheFoldOfEveryShard) {
  DeploymentConfig config = sharded(2, 59);
  // A 1 ms SLO makes every round slow, so both shards' slowlogs fill.
  config.base.server.slow_request_slo_us = 1'000;
  Deployment st(config);
  st.start();
  // The last round crosses the mailbox (its user lives on shard 1, the
  // browser dials shard 0), so both shards hold spans of its trace.
  std::vector<std::string> users = {"alice", "bob"};
  if (st.owner_of(users[1]) == 0) std::swap(users[0], users[1]);
  ASSERT_EQ(st.owner_of(users[1]), 1u);
  for (const std::string& user : users) {
    ASSERT_TRUE(st.world().provision(user, kMp).ok()) << user;
    ASSERT_TRUE(st.world().add_account("A", "site.example.com").ok()) << user;
    ASSERT_TRUE(st.world().get_password("A", "site.example.com").ok()) << user;
  }
  for (std::size_t k = 0; k < st.servers(); ++k) {
    st.server(k).metrics().events().emit(obs::EventLevel::kInfo, "test",
                                        "shard " + std::to_string(k));
  }
  // The scrapes arrive over shard 0's secure channel, which would count
  // their records into the registry being compared; keep it still.
  st.server(0).secure().set_metrics(nullptr);

  crypto::ChaChaDrbg rng(123);
  OpsClient ops(st.world(), rng);
  simnet::Simulation& sim = st.world().sim();

  // /metrics: the text of every shard's snapshot merged in shard order.
  const websvc::Response metrics =
      ops.get(sim, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  obs::Snapshot merged;
  for (std::size_t k = 0; k < st.servers(); ++k) {
    obs::merge_snapshot(merged, st.server(k).metrics().snapshot());
  }
  EXPECT_EQ(metrics.body, obs::to_text(merged));

  // /trace/<id>: one JSON document over the shards' spans, shard order.
  const obs::TraceId id = st.world().browser().last_trace_id();
  for (std::size_t k = 0; k < st.servers(); ++k) {
    EXPECT_FALSE(st.server(k).metrics().tracer().trace(id).empty())
        << "shard " << k;
  }
  const auto spans = merged_trace(st, id);
  const websvc::Response trace =
      ops.get(sim, "/trace/" + obs::trace_id_hex(id));
  EXPECT_EQ(trace.status, 200);
  EXPECT_EQ(trace.body, obs::trace_to_json(spans));

  // /events and /slowlog: the shards' JSON lines, concatenated.
  std::string events;
  std::string slowlog;
  for (std::size_t k = 0; k < st.servers(); ++k) {
    const std::string shard_events =
        st.server(k).metrics().events().to_json_lines();
    const std::string shard_slowlog = st.server(k).slowlog().to_json_lines();
    EXPECT_FALSE(shard_events.empty()) << "shard " << k;
    EXPECT_FALSE(shard_slowlog.empty()) << "shard " << k;
    events += shard_events;
    slowlog += shard_slowlog;
  }
  const websvc::Response events_resp =
      ops.get(sim, "/events");
  EXPECT_EQ(events_resp.status, 200);
  EXPECT_EQ(events_resp.body, events);
  const websvc::Response slowlog_resp =
      ops.get(sim, "/slowlog");
  EXPECT_EQ(slowlog_resp.status, 200);
  EXPECT_EQ(slowlog_resp.body, slowlog);
}

TEST(ShardConformance, PushPollAnswersLikeOneServer) {
  for (const std::size_t n : {1u, 2u}) {
    Deployment st(sharded(n, 61));
    st.start();
    crypto::ChaChaDrbg rng(123);
    OpsClient ops(st.world(), rng);
    // No reg_id: every shard rejects the form alike, so the 400 answers
    // for all of them instead of folding into an empty 200.
    EXPECT_EQ(ops.send(st.world().sim(), websvc::Method::kPost, "/push/poll")
                  .status,
              400)
        << "N=" << n;
    // /push/poll is POST-only: a GET finds no route on any shard.
    EXPECT_EQ(ops.get(st.world().sim(), "/push/poll").status, 404)
        << "N=" << n;
  }
}

// ------------------------------------- shard-agnostic session tickets

TEST(ShardConformance, TicketMintedOnOneShardResumesOnAnother) {
  Deployment st(sharded(2, 71));
  st.start();
  crypto::ChaChaDrbg rng(321);

  // Full handshake against shard 0's node: the server_hello carries a
  // ticket sealed under the fleet-wide key store.
  OpsClient first(st.world(), rng);
  EXPECT_EQ(first.get(st.world().sim(), "/metrics").status, 200);
  ASSERT_TRUE(first.chan.has_ticket());

  const auto before0 = st.server(0).secure().stats();
  const auto before1 = st.server(1).secure().stats();

  // A second client dials shard 1's node directly, armed only with the
  // ticket shard 0 minted.
  OpsClient second(st.world(), rng, "ops-client-2", "amnesia-server-1");
  second.chan.adopt_ticket(*first.chan.export_ticket());
  EXPECT_EQ(second.get(st.world().sim(), "/metrics").status, 200);

  const auto after1 = st.server(1).secure().stats();
  EXPECT_EQ(after1.resumptions, before1.resumptions + 1)
      << "shard 1 must accept a ticket minted by shard 0";
  EXPECT_EQ(after1.handshakes, before1.handshakes)
      << "no X25519 on the resumed path";
  EXPECT_EQ(after1.resumptions_rejected, before1.resumptions_rejected);
  EXPECT_EQ(st.server(0).secure().stats().handshakes, before0.handshakes);
}

TEST(ShardConformance, TicketRotationKeepsOldTicketsOnePeriod) {
  Deployment st(sharded(2, 73));
  st.start();
  crypto::ChaChaDrbg rng(322);
  crypto::ChaChaDrbg rotation_rng(323);

  OpsClient first(st.world(), rng);
  EXPECT_EQ(first.get(st.world().sim(), "/metrics").status, 200);
  ASSERT_TRUE(first.chan.has_ticket());

  // One rotation: a ticket sealed under the previous key still resumes
  // (graceful key rollover across the fleet).
  st.ticket_store()->rotate(rotation_rng);
  OpsClient second(st.world(), rng, "ops-client-2", "amnesia-server-1");
  second.chan.adopt_ticket(*first.chan.export_ticket());
  const auto before1 = st.server(1).secure().stats();
  EXPECT_EQ(second.get(st.world().sim(), "/metrics").status, 200);
  EXPECT_EQ(st.server(1).secure().stats().resumptions,
            before1.resumptions + 1)
      << "one rotation of grace";

  // Two more rotations age the chained ticket out entirely: the next
  // client falls back to a full handshake — transparently, the request
  // still succeeds.
  st.ticket_store()->rotate(rotation_rng);
  st.ticket_store()->rotate(rotation_rng);
  OpsClient third(st.world(), rng, "ops-client-3", "amnesia-server");
  third.chan.adopt_ticket(*second.chan.export_ticket());
  const auto before0 = st.server(0).secure().stats();
  EXPECT_EQ(third.get(st.world().sim(), "/metrics").status, 200);
  const auto after0 = st.server(0).secure().stats();
  EXPECT_EQ(after0.resumptions_rejected, before0.resumptions_rejected + 1);
  EXPECT_EQ(after0.handshakes, before0.handshakes + 1)
      << "expired ticket must fall back to X25519, not fail the request";
  EXPECT_TRUE(third.chan.has_ticket()) << "fallback re-arms the client";
}

// ------------------------------------------------------- real TCP mode

TEST(ShardConformance, TcpTicketsResumeAcrossReactors) {
  DeploymentConfig config = sharded(4, 101);
  config.transport = eval::Transport::kTcp;
  Deployment st(config);

  // Baseline while single-threaded; the reactor threads write these
  // counters, so they are re-read only after stop().
  std::uint64_t base_handshakes = 0;
  std::uint64_t base_resumptions = 0;
  for (std::size_t k = 0; k < st.servers(); ++k) {
    base_handshakes += st.server(k).secure().stats().handshakes;
    base_resumptions += st.server(k).secure().stats().resumptions;
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
  for (std::size_t k = 0; k < st.servers(); ++k) {
    handshakes += st.server(k).secure().stats().handshakes;
    resumptions += st.server(k).secure().stats().resumptions;
  }
  EXPECT_EQ(handshakes - base_handshakes, 1u)
      << "six connections, one X25519 across the whole fleet";
  EXPECT_EQ(resumptions - base_resumptions, 5u);
}

}  // namespace
}  // namespace amnesia
