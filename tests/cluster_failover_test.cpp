// Mid-protocol failover (docs/CLUSTER.md): the primary crashes at the
// "server.push.acked" kill point — after the phone push went out, before
// the browser's round completes — and the promoted follower must finish
// the round trip: the phone's token lands on the survivor, the browser
// recovers the ground-truth password via POST /password/await, and
// GET /trace/<id> on the survivor serves ONE connected tree whose spans
// come from both servers.
//
// The simulated variant replays bit-for-bit from its seed (the torture
// loop below leans on that); the TCP variant runs the same world with
// the replication stream and the browser leg over real sockets.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "eval/replicated_testbed.h"
#include "net/event_loop.h"
#include "net/rpc.h"
#include "net/tcp.h"
#include "obs/trace.h"
#include "resilience/fault.h"
#include "securechan/channel.h"
#include "testutil.h"
#include "websvc/client.h"
#include "websvc/http.h"

namespace amnesia {
namespace {

using cluster::ClusterNode;
using eval::ReplicatedSimConfig;
using eval::ReplicatedSimTestbed;
using resilience::FaultInjector;
using resilience::FaultKind;
using resilience::FaultRule;
using resilience::ScopedFaultInjector;

// ------------------------------------------------------------ helpers

std::map<obs::SpanId, const obs::TraceSpan*> by_id(
    const std::vector<obs::TraceSpan>& spans) {
  std::map<obs::SpanId, const obs::TraceSpan*> m;
  for (const auto& s : spans) m[s.id] = &s;
  return m;
}

/// One root, and every other span's parent present in the same trace.
/// Unfinished spans count: after a failover the root ("browser.request")
/// is an imported stub whose end died with the primary.
::testing::AssertionResult connected_single_root(
    const std::vector<obs::TraceSpan>& spans, const std::string& root_name) {
  if (spans.empty()) return ::testing::AssertionFailure() << "no spans";
  const auto ids = by_id(spans);
  std::size_t roots = 0;
  for (const auto& s : spans) {
    if (s.parent == 0) {
      ++roots;
      if (s.name != root_name) {
        return ::testing::AssertionFailure()
               << "root is " << s.name << ", expected " << root_name;
      }
    } else if (!ids.contains(s.parent)) {
      return ::testing::AssertionFailure()
             << s.name << " has parent " << s.parent << " outside the trace";
    }
  }
  if (roots != 1) {
    return ::testing::AssertionFailure() << roots << " roots, expected 1";
  }
  return ::testing::AssertionSuccess();
}

const obs::TraceSpan* find_named(const std::vector<obs::TraceSpan>& spans,
                                 const std::string& name) {
  for (const auto& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

/// Sorted "name<-parent_name" lines: a structural fingerprint that two
/// runs of the same seed must reproduce exactly.
std::string tree_shape(const std::vector<obs::TraceSpan>& spans) {
  const auto ids = by_id(spans);
  std::vector<std::string> lines;
  for (const auto& s : spans) {
    const auto parent = ids.find(s.parent);
    lines.push_back(s.name + "<-" +
                    (parent == ids.end() ? "(root)" : parent->second->name));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& l : lines) out += l + "\n";
  return out;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  return std::strtoull(v, nullptr, 10);
}

/// Everything one simulated kill-point round produces, for determinism
/// and torture assertions.
struct ScenarioOutcome {
  std::string baseline_password;
  std::string recovered_password;
  std::uint64_t promoted_epoch = 0;
  std::uint64_t promotions = 0;
  std::uint64_t records_shipped = 0;
  Micros virtual_end = 0;
  std::string shape;
};

/// The full simulated scenario: provision, one healthy login (the ground
/// truth), then a login whose primary dies at server.push.acked, and the
/// recovery on the promoted follower.
ScenarioOutcome run_sim_scenario(std::uint64_t seed) {
  ScenarioOutcome out;
  ReplicatedSimConfig config;
  config.base.seed = seed;
  // Tighten the phone's HTTPS leg so the token retry that survives the
  // crash lands well inside the browser's await window.
  config.base.phone.server_rpc_timeout_us = 2'000'000;
  config.base.phone.token_retry_delay_us = 500'000;
  ReplicatedSimTestbed bed(config);
  eval::Testbed& world = bed.bed();
  world.browser().set_tracer(&bed.replica(0).metrics().tracer());

  EXPECT_TRUE(world.provision("Alice", "correct horse").ok());
  EXPECT_TRUE(world.add_account("Alice", "example.com").ok());

  // Ground truth, collected while the cluster is healthy. Passwords are
  // deterministic per account seed, so the post-failover answer must be
  // byte-identical.
  const auto baseline = world.get_password("Alice", "example.com");
  EXPECT_TRUE(baseline.ok());
  if (!baseline.ok()) return out;
  out.baseline_password = baseline.value();
  EXPECT_TRUE(bed.run_until(
      [&] { return bed.node(0).replication_lag() == 0; }, 10'000'000));

  // The kill point: the primary dies right after the rendezvous push is
  // acked — the phone has the request, the browser's round is parked.
  FaultInjector injector(seed ^ 0x5eedf01d);
  injector.add_rule(FaultRule{.point = "server.push.acked",
                              .max_fires = 1,
                              .kind = FaultKind::kCrash});
  const ScopedFaultInjector guard(injector);

  const auto crashed = world.get_password("Alice", "example.com");
  EXPECT_FALSE(crashed.ok()) << "round survived a dead primary";
  EXPECT_TRUE(bed.node(0).dead());
  EXPECT_TRUE(bed.run_until([&] { return bed.primary_index() == 1; },
                            20'000'000))
      << "no follower promoted";
  EXPECT_EQ(bed.node(1).role(), ClusterNode::Role::kPrimary);

  // The recovery: same browser, same session, POST /password/await on
  // the survivor (the testbed retargeted it at promotion).
  const auto recovered = bed.await_password("Alice", "example.com");
  EXPECT_TRUE(recovered.ok())
      << "await failed after failover: "
      << (recovered.ok() ? "" : err_name(recovered.code())) << " "
      << (recovered.ok() ? "" : recovered.message());
  if (recovered.ok()) out.recovered_password = recovered.value();

  const auto spans = bed.replica(1).metrics().tracer().trace(
      world.browser().last_trace_id());
  out.shape = tree_shape(spans);
  out.promoted_epoch = bed.node(1).epoch();
  out.promotions = bed.node(1).stats().promotions;
  out.records_shipped = bed.node(0).stats().records_shipped;
  out.virtual_end = world.sim().now();
  return out;
}

// ---------------------------------------------------------- sim tests

TEST(ClusterFailover, LoginFinishesOnPromotedFollower) {
  ReplicatedSimConfig config;
  config.base.phone.server_rpc_timeout_us = 2'000'000;
  config.base.phone.token_retry_delay_us = 500'000;
  ReplicatedSimTestbed bed(config);
  eval::Testbed& world = bed.bed();
  world.browser().set_tracer(&bed.replica(0).metrics().tracer());

  ASSERT_TRUE(world.provision("Alice", "correct horse").ok());
  ASSERT_TRUE(world.add_account("Alice", "example.com").ok());
  const auto baseline = world.get_password("Alice", "example.com");
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(bed.run_until(
      [&] { return bed.node(0).replication_lag() == 0; }, 10'000'000));

  FaultInjector injector(4242);
  injector.add_rule(FaultRule{.point = "server.push.acked",
                              .max_fires = 1,
                              .kind = FaultKind::kCrash});
  const ScopedFaultInjector guard(injector);

  const auto crashed = world.get_password("Alice", "example.com");
  EXPECT_FALSE(crashed.ok());
  EXPECT_TRUE(bed.node(0).dead());
  EXPECT_TRUE(world.server().crashed());

  ASSERT_TRUE(bed.run_until([&] { return bed.primary_index() == 1; },
                            20'000'000));
  EXPECT_EQ(bed.node(1).stats().promotions, 1u);
  EXPECT_GT(bed.node(1).epoch(), 1u);

  // The round the dead primary started completes on the survivor with
  // the ground-truth password.
  const auto recovered = bed.await_password("Alice", "example.com");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value(), baseline.value());

  // One connected trace tree on the survivor, spanning both servers:
  // spans the primary recorded before dying arrive as shipped records
  // (the unfinished ones as stubs), the survivor's own spans nest under
  // them.
  const auto spans = bed.replica(1).metrics().tracer().trace(
      world.browser().last_trace_id());
  EXPECT_TRUE(connected_single_root(spans, "browser.request"))
      << tree_shape(spans);

  const auto* root = find_named(spans, "browser.request");
  ASSERT_NE(root, nullptr);
  EXPECT_FALSE(root->finished) << "the root's end died with the primary";
  const auto* round = find_named(spans, "protocol.round");
  ASSERT_NE(round, nullptr) << "primary's round span did not ship";
  const auto* generate = find_named(spans, "server.generate");
  ASSERT_NE(generate, nullptr) << "survivor's generate span missing";
  EXPECT_TRUE(generate->finished);
  const auto* confirm = find_named(spans, "phone.confirm");
  ASSERT_NE(confirm, nullptr);
  const auto* await = find_named(spans, "browser.await");
  ASSERT_NE(await, nullptr);
  EXPECT_EQ(await->parent, root->id)
      << "recovery span must join the crashed round's root";

  // A *fresh* round on the survivor must also work: the replicated
  // request-id high-water mark keeps the new primary from re-minting ids
  // the dead one used (the phone would drop the push as a duplicate).
  const auto fresh = world.get_password("Alice", "example.com");
  ASSERT_TRUE(fresh.ok()) << (fresh.ok() ? "" : fresh.failure().message);
  EXPECT_EQ(fresh.value(), baseline.value());
  EXPECT_EQ(world.phone().stats().duplicate_pushes, 0u)
      << "promoted follower re-minted a request id the dead primary used";
}

TEST(ClusterFailover, HealthzTracksRolesAcrossFailover) {
  ReplicatedSimTestbed bed;
  eval::Testbed& world = bed.bed();

  const auto healthz = [&](std::size_t k) {
    websvc::Request req;
    req.method = websvc::Method::kGet;
    req.path = "/healthz";
    std::optional<websvc::Response> resp;
    bed.replica(k).http().handle_bytes(
        websvc::serialize(req),
        [&](Bytes wire) { resp = websvc::parse_response(wire); });
    EXPECT_TRUE(bed.run_until([&] { return resp.has_value(); }, 1'000'000));
    return resp.value_or(websvc::Response::error(599, "no reply"));
  };

  ASSERT_TRUE(world.provision("Alice", "correct horse").ok());
  ASSERT_TRUE(bed.run_until(
      [&] { return bed.node(0).replication_lag() == 0; }, 10'000'000));

  websvc::Response primary = healthz(0);
  EXPECT_EQ(primary.status, 200);
  EXPECT_EQ(primary.header("Content-Type").value_or(""), "application/json");
  EXPECT_NE(primary.body.find("\"role\": \"primary\""), std::string::npos);
  EXPECT_NE(primary.body.find("\"followers\": 1"), std::string::npos);
  EXPECT_NE(primary.body.find("\"replication_lag\": 0"), std::string::npos);
  EXPECT_NE(primary.body.find("\"open_breakers\": []"), std::string::npos);

  websvc::Response follower = healthz(1);
  EXPECT_EQ(follower.status, 200);
  EXPECT_NE(follower.body.find("\"role\": \"follower\""), std::string::npos);

  // Kill the primary outright; the probe on the survivor flips.
  bed.node(0).crash();
  ASSERT_TRUE(bed.run_until([&] { return bed.primary_index() == 1; },
                            20'000'000));
  websvc::Response promoted = healthz(1);
  EXPECT_NE(promoted.body.find("\"role\": \"primary\""), std::string::npos);
}

// The whole kill-restart-recover round is a pure function of the seed.
TEST(ClusterFailover, ScenarioReplaysBitForBitFromSeed) {
  const ScenarioOutcome a = run_sim_scenario(20260808);
  const ScenarioOutcome b = run_sim_scenario(20260808);
  ASSERT_FALSE(::testing::Test::HasFailure());
  EXPECT_EQ(a.baseline_password, b.baseline_password);
  EXPECT_EQ(a.recovered_password, b.recovered_password);
  EXPECT_EQ(a.promoted_epoch, b.promoted_epoch);
  EXPECT_EQ(a.records_shipped, b.records_shipped);
  EXPECT_EQ(a.virtual_end, b.virtual_end);
  EXPECT_EQ(a.shape, b.shape);
  EXPECT_EQ(a.recovered_password, a.baseline_password);
}

// Seed-randomized torture: many full failover rounds. Iteration count
// derives from AMNESIA_TORTURE_ITERS (docs/RESILIENCE.md) divided by
// 250 — each "iteration" here is an entire cluster lifecycle, so the
// faults-mode default of 5000 runs 20 rounds. AMNESIA_TORTURE_SEED
// replays exactly one failing round.
TEST(ClusterFailoverTorture, RandomSeedsAllRecoverGroundTruth) {
  const std::uint64_t replay = env_u64("AMNESIA_TORTURE_SEED", 0);
  if (replay != 0) {
    const ScenarioOutcome out = run_sim_scenario(replay);
    EXPECT_EQ(out.recovered_password, out.baseline_password);
    return;
  }
  const std::uint64_t iters =
      std::max<std::uint64_t>(2, env_u64("AMNESIA_TORTURE_ITERS", 1000) / 250);
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = 0xc1a5fa110ull + i * 7919;
    const ScenarioOutcome out = run_sim_scenario(seed);
    EXPECT_EQ(out.recovered_password, out.baseline_password);
    EXPECT_EQ(out.promotions, 1u);
    if (::testing::Test::HasFailure()) {
      FAIL() << "failover round " << i << " failed; replay with "
             << "AMNESIA_TORTURE_SEED=" << seed;
    }
  }
}

// ---------------------------------------------------------- TCP test

TEST(ClusterFailover, TcpMidRoundCrashFinishesOnPromotedFollower) {
  eval::ReplicatedTcpConfig cfg;
  cfg.sim.base.seed = 77;
  // Real seconds now cost real seconds: shrink the cluster timings so
  // detection + promotion land within ~1s of wall clock.
  cfg.sim.cluster.heartbeat_interval_us = 100'000;
  cfg.sim.cluster.lease_ttl_us = 600'000;
  cfg.sim.cluster.failover_grace_us = 400'000;
  cfg.sim.cluster.rpc_timeout_us = 1'000'000;
  // The phone still rides the simnet (virtual latencies), so its rpc
  // timeout must cover a full in-sim round trip; the retry cadence is
  // what must outlive promotion.
  cfg.sim.base.phone.server_rpc_timeout_us = 2'000'000;
  cfg.sim.base.phone.token_retry_max = 20;
  cfg.sim.base.phone.token_retry_delay_us = 250'000;
  eval::ReplicatedTcpTestbed st(cfg);
  eval::Testbed& world = st.bed();

  // Single-threaded phase: provision and collect the ground truth while
  // the world is still pure simulation.
  const auto provisioned = world.provision("Alice", "correct horse");
  ASSERT_TRUE(provisioned.ok()) << err_name(provisioned.code()) << " "
                                << provisioned.message();
  ASSERT_TRUE(world.add_account("Alice", "example.com").ok());
  const auto baseline = world.get_password("Alice", "example.com");
  ASSERT_TRUE(baseline.ok()) << err_name(baseline.code()) << " "
                             << baseline.message();

  st.start();
  net::EventLoop loop;
  crypto::ChaChaDrbg rng(555);

  struct Dial {
    net::TcpTransport tcp;
    net::RpcClient rpc;
    securechan::SecureClient chan;
    websvc::HttpClient http;
    Dial(net::EventLoop& loop, std::uint16_t port,
         const crypto::X25519Key& key, RandomSource& rng, Micros timeout)
        : tcp(loop, "127.0.0.1", port),
          rpc(tcp, timeout),
          chan(rpc.wire(), key, rng),
          http([this](Bytes wire, std::function<void(Result<Bytes>)> cb) {
            chan.request(std::move(wire), std::move(cb));
          }) {}
  };
  const auto wait_for = [&](const std::function<bool()>& pred,
                            Micros budget) {
    const Micros deadline = loop.clock().now_us() + budget;
    while (!pred() && loop.clock().now_us() < deadline) loop.poll(20'000);
    return pred();
  };

  // The browser rides its own TCP connection to the primary. It gets a
  // main-thread tracer (the reactors must never touch it) seeded into a
  // disjoint id range; its trace header still propagates over the wire,
  // so the servers' spans join its trace ids.
  net::TcpTransport btcp(loop, "127.0.0.1", st.port(0));
  net::RpcClient brpc(btcp, 4'000'000);
  obs::Tracer browser_tracer;
  browser_tracer.seed_span_ids(1ull << 48);
  client::Browser browser(brpc.wire(), st.public_key(), rng, "browser");
  browser.set_tracer(&browser_tracer);

  std::optional<Status> login;
  browser.login("Alice", "correct horse",
                [&](Status s) { login = s; });
  ASSERT_TRUE(wait_for([&] { return login.has_value(); }, 20'000'000));
  ASSERT_TRUE(login->ok());

  // Kill point armed; the reactor thread trips it mid-round.
  FaultInjector injector(7777);
  injector.add_rule(FaultRule{.point = "server.push.acked",
                              .max_fires = 1,
                              .kind = FaultKind::kCrash});
  const ScopedFaultInjector guard(injector);

  std::optional<Result<std::string>> crashed;
  browser.request_password("Alice", "example.com",
                           [&](Result<std::string> r) { crashed = r; });
  ASSERT_TRUE(wait_for([&] { return crashed.has_value(); }, 30'000'000));
  EXPECT_FALSE(crashed->ok()) << "round survived the primary crash";

  // Find the new primary the way a load balancer would: poll the
  // follower's readiness endpoint until it reports the role flip.
  Dial probe(loop, st.port(1), st.public_key(), rng, 10'000'000);
  std::string role_body;
  const auto promoted = [&] {
    bool done = false;
    probe.http.get("/healthz", [&](Result<websvc::Response> r) {
      if (r.ok() && r.value().status == 200) role_body = r.value().body;
      done = true;
    });
    if (!wait_for([&] { return done; }, 10'000'000)) return false;
    return role_body.find("\"role\": \"primary\"") != std::string::npos;
  };
  ASSERT_TRUE(wait_for(promoted, 30'000'000)) << "follower never promoted";

  // Same browser, new socket: the secure channel resumes by ticket on
  // the survivor (shared ticket keys) and the parked round resolves to
  // the ground-truth password.
  net::TcpTransport btcp2(loop, "127.0.0.1", st.port(1));
  net::RpcClient brpc2(btcp2, 10'000'000);
  browser.channel().set_wire(brpc2.wire());
  std::optional<Result<std::string>> recovered;
  browser.await_password("Alice", "example.com",
                         [&](Result<std::string> r) { recovered = r; });
  ASSERT_TRUE(wait_for([&] { return recovered.has_value(); }, 30'000'000));
  ASSERT_TRUE(recovered->ok());
  EXPECT_EQ(recovered->value(), baseline.value());

  // The survivor serves the crashed round's trace over plain HTTP.
  const std::string trace_hex =
      obs::trace_id_hex(browser.last_trace_id());
  std::optional<websvc::Response> trace_resp;
  probe.http.get("/trace/" + trace_hex, [&](Result<websvc::Response> r) {
    if (r.ok()) trace_resp = r.value();
  });
  ASSERT_TRUE(wait_for([&] { return trace_resp.has_value(); }, 10'000'000));
  EXPECT_EQ(trace_resp->status, 200);
  EXPECT_NE(trace_resp->body.find("protocol.round"), std::string::npos)
      << "primary's spans missing from the survivor's trace";
  EXPECT_NE(trace_resp->body.find("server.generate"), std::string::npos)
      << "survivor's spans missing from the trace";

  st.stop();
  // The reactor is joined: direct state reads are safe again.
  EXPECT_TRUE(st.node(0).dead());
  EXPECT_EQ(st.node(1).role(), ClusterNode::Role::kPrimary);
  EXPECT_EQ(st.node(1).stats().promotions, 1u);
  const auto spans =
      st.world().replica(1).metrics().tracer().trace(browser.last_trace_id());
  EXPECT_FALSE(spans.empty());
  const auto* round = find_named(spans, "protocol.round");
  EXPECT_NE(round, nullptr);
  const auto* generate = find_named(spans, "server.generate");
  ASSERT_NE(generate, nullptr);
  EXPECT_TRUE(generate->finished);
}

TEST(ClusterFailover, TcpRoundsRunOnTimeWithoutOtherTraffic) {
  // The follower ack that releases the semi-sync barrier arrives over
  // TCP, outside any pump of the simulation. The phone push it schedules
  // must wake the clock bridge at once (the simulation's head hook), not
  // wait for the next unrelated sim event: a heartbeat, a lease renewal
  // or the 1 s barrier timeout. With compute charges zeroed and
  // near-zero links, a round then costs only its real work.
  eval::ReplicatedTcpConfig cfg;
  cfg.sim.base.seed = 91;
  cfg.sim.base.server.token_compute_mean_ms = 0.0;
  cfg.sim.base.server.token_compute_stddev_ms = 0.0;
  cfg.sim.base.server.light_compute_ms = 0.0;
  cfg.sim.base.phone.compute_mean_ms = 0.0;
  cfg.sim.base.phone.compute_stddev_ms = 0.0;
  eval::ReplicatedTcpTestbed st(cfg);
  eval::Testbed& world = st.bed();

  simnet::LinkProfile fast;
  fast.name = "near-zero";
  fast.base_latency_ms = 0.01;
  fast.jitter_ms = 0.0;
  fast.min_latency_ms = 0.005;
  fast.bandwidth_mbps = 40'000.0;
  auto& net = world.net();
  net.set_default_link(fast);
  net.set_duplex_link("gcm", "phone", fast, fast);
  std::vector<std::string> servers;
  for (std::size_t k = 0; k < st.world().replicas(); ++k) {
    servers.push_back(st.world().replica(k).node_id());
  }
  for (const std::string& s : servers) {
    net.set_duplex_link(s, "gcm", fast, fast);
    net.set_duplex_link(s, "phone", fast, fast);
    net.set_duplex_link(s + ".repl", "gcm", fast, fast);
    for (const std::string& t : servers) {
      if (s < t) net.set_duplex_link(s + ".repl", t + ".repl", fast, fast);
    }
  }

  ASSERT_TRUE(world.provision("Alice", "correct horse").ok());
  ASSERT_TRUE(world.add_account("Alice", "example.com").ok());
  const auto baseline = world.get_password("Alice", "example.com");
  ASSERT_TRUE(baseline.ok());

  st.start();
  net::EventLoop loop;
  crypto::ChaChaDrbg rng(556);
  const auto wait_for = [&](const std::function<bool()>& pred,
                            Micros budget) {
    const Micros deadline = loop.clock().now_us() + budget;
    while (!pred() && loop.clock().now_us() < deadline) loop.poll(20'000);
    return pred();
  };
  net::TcpTransport btcp(loop, "127.0.0.1", st.port(0));
  net::RpcClient brpc(btcp, 10'000'000);
  client::Browser browser(brpc.wire(), st.public_key(), rng, "browser");
  std::optional<Status> login;
  browser.login("Alice", "correct horse", [&](Status s) { login = s; });
  ASSERT_TRUE(wait_for([&] { return login.has_value(); }, 20'000'000));
  ASSERT_TRUE(login->ok());

  std::vector<Micros> took;
  for (int i = 0; i < 10; ++i) {
    std::optional<Result<std::string>> got;
    const Micros t0 = loop.clock().now_us();
    browser.request_password("Alice", "example.com",
                             [&](Result<std::string> r) { got = r; });
    ASSERT_TRUE(wait_for([&] { return got.has_value(); }, 10'000'000));
    took.push_back(loop.clock().now_us() - t0);
    ASSERT_TRUE(got->ok()) << "round " << i;
    EXPECT_EQ(got->value(), baseline.value());
  }
  st.stop();
  std::sort(took.begin(), took.end());
  const Micros median = (took[4] + took[5]) / 2;
  // A round waiting on the next heartbeat (500 ms apart) or the barrier
  // timeout takes hundreds of ms; one run on time takes a few.
  EXPECT_LT(median, 50'000) << "median round " << median << " us";
}

}  // namespace
}  // namespace amnesia
