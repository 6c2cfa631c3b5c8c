// Mid-protocol failover (docs/CLUSTER.md): the primary crashes at the
// "server.push.acked" kill point — after the phone push went out, before
// the browser's round completes — and the promoted follower must finish
// the round trip. The drill itself runs on every replicated cell of
// deployment_matrix_test.cpp, over the simulation and over TCP. Here: the
// simulated drill replays bit-for-bit from its seed (the torture loop
// leans on that), /healthz tracks the roles across a failover, and a TCP
// cluster runs its rounds on time without other traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "eval/deployment.h"
#include "net/event_loop.h"
#include "net/rpc.h"
#include "net/tcp.h"
#include "obs/trace.h"
#include "resilience/fault.h"
#include "websvc/http.h"

namespace amnesia {
namespace {

using cluster::ClusterNode;
using eval::Deployment;
using eval::DeploymentConfig;
using resilience::FaultInjector;
using resilience::FaultKind;
using resilience::FaultRule;
using resilience::ScopedFaultInjector;

// ------------------------------------------------------------ helpers

/// Sorted "name<-parent_name" lines: a structural fingerprint that two
/// runs of the same seed must reproduce exactly.
std::string tree_shape(const std::vector<obs::TraceSpan>& spans) {
  std::map<obs::SpanId, const obs::TraceSpan*> ids;
  for (const auto& s : spans) ids[s.id] = &s;
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
  DeploymentConfig config;
  config.replicas = 2;
  config.base.seed = seed;
  // Tighten the phone's HTTPS leg so the token retry that survives the
  // crash lands well inside the browser's await window.
  config.base.phone.server_rpc_timeout_us = 2'000'000;
  config.base.phone.token_retry_delay_us = 500'000;
  Deployment bed(config);
  bed.start();
  eval::Testbed& world = bed.world();

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
  eval::Waiter<Result<std::string>> await(world.sim());
  world.browser().await_password("Alice", "example.com", await.capture());
  const auto recovered = await.wait();
  EXPECT_TRUE(recovered.ok())
      << "await failed after failover: "
      << (recovered.ok() ? "" : err_name(recovered.code())) << " "
      << (recovered.ok() ? "" : recovered.message());
  if (recovered.ok()) out.recovered_password = recovered.value();

  const auto spans = bed.server(1).metrics().tracer().trace(
      world.browser().last_trace_id());
  out.shape = tree_shape(spans);
  out.promoted_epoch = bed.node(1).epoch();
  out.promotions = bed.node(1).stats().promotions;
  out.records_shipped = bed.node(0).stats().records_shipped;
  out.virtual_end = world.sim().now();
  return out;
}

// ---------------------------------------------------------- sim tests

TEST(ClusterFailover, HealthzTracksRolesAcrossFailover) {
  Deployment bed({.replicas = 2});
  bed.start();
  eval::Testbed& world = bed.world();

  const auto healthz = [&](std::size_t k) {
    websvc::Request req;
    req.method = websvc::Method::kGet;
    req.path = "/healthz";
    std::optional<websvc::Response> resp;
    bed.server(k).http().handle_bytes(
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

TEST(ClusterFailover, TcpRoundsRunOnTimeWithoutOtherTraffic) {
  // The follower ack that releases the semi-sync barrier arrives over
  // TCP, outside any pump of the simulation. The phone push it schedules
  // must wake the clock bridge at once (the simulation's head hook), not
  // wait for the next unrelated sim event: a heartbeat, a lease renewal
  // or the 1 s barrier timeout. With compute charges zeroed and
  // near-zero links, a round then costs only its real work.
  DeploymentConfig cfg;
  cfg.replicas = 2;
  cfg.transport = eval::Transport::kTcp;
  cfg.base.seed = 91;
  cfg.base.server.token_compute_mean_ms = 0.0;
  cfg.base.server.token_compute_stddev_ms = 0.0;
  cfg.base.server.light_compute_ms = 0.0;
  cfg.base.phone.compute_mean_ms = 0.0;
  cfg.base.phone.compute_stddev_ms = 0.0;
  Deployment st(cfg);
  eval::Testbed& world = st.world();

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
  for (std::size_t k = 0; k < st.servers(); ++k) {
    servers.push_back(st.server(k).node_id());
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
