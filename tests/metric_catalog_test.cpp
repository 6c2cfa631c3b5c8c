// The metric catalog: every counter, gauge and histogram the system
// emits is documented. Seeded flows (signup, login, password rounds, a
// decline, a vault store and retrieve, a 2-shard cell, the 2-replica
// crash drill, and one cell over real TCP) fill their servers'
// registries; every name in them must appear in docs/OBSERVABILITY.md,
// docs/RESILIENCE.md or docs/CLUSTER.md. Documented names that no flow
// emits are not checked here.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "client/browser.h"
#include "crypto/drbg.h"
#include "eval/deployment.h"
#include "eval/testbed.h"
#include "net/event_loop.h"
#include "net/rpc.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "resilience/fault.h"

namespace amnesia {
namespace {

using eval::Deployment;
using eval::DeploymentConfig;
using eval::Testbed;

constexpr const char* kMp = "one master password";

/// The names a markdown file documents, as patterns: every backticked
/// span that reads as a dotted name. A span starting with '.' right after
/// a name on the same line ("`a.b.opened` / `.closed`") stands for that
/// name with as many trailing components replaced as the span has. The
/// placeholders <METHOD>, <pattern> and <name> each match one dot-free
/// token.
std::vector<std::regex> documented_names(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  static const std::regex span("`([^`\\s]+)`");
  static const std::regex dotted("[A-Za-z_][\\w<>:/-]*(\\.[\\w<>:/-]+)+");
  std::vector<std::regex> out;
  std::string line;
  while (std::getline(in, line)) {
    std::string last;
    for (std::sregex_iterator it(line.begin(), line.end(), span), end;
         it != end; ++it) {
      std::string name = (*it)[1];
      if (name.front() == '.' && !last.empty()) {
        std::string base = last;
        for (const char c : name) {
          if (c == '.') base.erase(std::min(base.rfind('.'), base.size()));
        }
        name = base + name;
      }
      if (!std::regex_match(name, dotted)) continue;
      last = name;
      std::string pattern;
      for (std::size_t i = 0; i < name.size(); ++i) {
        bool placeholder = false;
        for (const char* p : {"<METHOD>", "<pattern>", "<name>"}) {
          if (name.compare(i, std::string(p).size(), p) == 0) {
            pattern += "[^.\\s]+";
            i += std::string(p).size() - 1;
            placeholder = true;
            break;
          }
        }
        if (placeholder) continue;
        if (std::string("\\^$.|?*+()[]{}").find(name[i]) != std::string::npos) {
          pattern += '\\';
        }
        pattern += name[i];
      }
      out.emplace_back(pattern);
    }
  }
  return out;
}

void collect(const obs::MetricsRegistry& registry,
             std::set<std::string>& names) {
  const obs::Snapshot snap = registry.snapshot();
  for (const auto& [name, v] : snap.counters) names.insert(name);
  for (const auto& [name, v] : snap.gauges) names.insert(name);
  for (const auto& [name, v] : snap.histograms) names.insert(name);
}

/// One server: signup, login and pairing, password rounds, a decline,
/// and a vault store and retrieve.
void single_server_flows(std::set<std::string>& names) {
  eval::TestbedConfig config;
  config.seed = 71;
  Testbed bed(config);
  ASSERT_TRUE(bed.provision("alice", kMp).ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.example.com").ok());
  ASSERT_TRUE(bed.get_password("Alice", "mail.example.com").ok());
  ASSERT_TRUE(bed.get_password("Alice", "mail.example.com").ok());

  bool stored = false;
  bed.browser().vault_store("Alice", "bank.example", "Issued-1953",
                            [&](Status s) { stored = s.ok(); });
  bed.sim().run();
  ASSERT_TRUE(stored);
  std::optional<Result<std::string>> retrieved;
  bed.browser().vault_retrieve("Alice", "bank.example",
                               [&](Result<std::string> r) { retrieved = r; });
  bed.sim().run();
  ASSERT_TRUE(retrieved.has_value() && retrieved->ok());

  bed.phone().set_confirmation_policy(
      [](const core::PasswordRequestPush&) { return false; });
  EXPECT_EQ(bed.get_password("Alice", "mail.example.com").code(),
            Err::kDeclined);
  collect(bed.server().metrics(), names);
}

/// Two shards: a round for a user on each, one of them across the
/// mailbox.
void sharded_flows(std::set<std::string>& names) {
  DeploymentConfig config{.shards = 2};
  config.base.seed = 72;
  Deployment d(config);
  d.start();
  for (const std::string user : {"alice", "bob", "carol"}) {
    eval::Testbed& world = d.world_of(user);
    ASSERT_TRUE(world.provision(user, kMp).ok()) << user;
    ASSERT_TRUE(world.add_account("acct", user + ".example").ok()) << user;
    ASSERT_TRUE(world.get_password("acct", user + ".example").ok()) << user;
  }
  for (std::size_t k = 0; k < d.servers(); ++k) {
    collect(d.server(k).metrics(), names);
  }
}

/// Two replicas: the primary crashes at "server.push.acked" and the
/// promoted follower finishes the round.
void crash_drill(std::set<std::string>& names) {
  DeploymentConfig config{.replicas = 2};
  config.base.seed = 73;
  config.base.phone.server_rpc_timeout_us = 2'000'000;
  config.base.phone.token_retry_delay_us = 500'000;
  Deployment d(config);
  d.start();
  eval::Testbed& world = d.world();
  ASSERT_TRUE(world.provision("alice", kMp).ok());
  ASSERT_TRUE(world.add_account("acct", "example.com").ok());
  const auto truth = world.get_password("acct", "example.com");
  ASSERT_TRUE(truth.ok());
  ASSERT_TRUE(d.run_until([&] { return d.node(0).replication_lag() == 0; },
                          10'000'000));

  resilience::FaultInjector injector(73);
  injector.add_rule(resilience::FaultRule{.point = "server.push.acked",
                                          .max_fires = 1,
                                          .kind =
                                              resilience::FaultKind::kCrash});
  const resilience::ScopedFaultInjector guard(injector);
  EXPECT_FALSE(world.get_password("acct", "example.com").ok());
  ASSERT_TRUE(d.run_until([&] { return d.primary_index() == 1; },
                          20'000'000));
  eval::Waiter<Result<std::string>> await(world.sim());
  world.browser().await_password("acct", "example.com", await.capture());
  const auto recovered = await.wait();
  ASSERT_TRUE(recovered.ok()) << recovered.message();
  EXPECT_EQ(recovered.value(), truth.value());
  for (std::size_t k = 0; k < d.servers(); ++k) {
    collect(d.server(k).metrics(), names);
  }
}

/// One server on real sockets: a login and a round from a TCP browser.
void tcp_flows(std::set<std::string>& names) {
  DeploymentConfig config{.transport = eval::Transport::kTcp};
  config.base.seed = 74;
  Deployment d(config);
  eval::Testbed& world = d.world();
  ASSERT_TRUE(world.provision("alice", kMp).ok());
  ASSERT_TRUE(world.add_account("acct", "example.com").ok());
  d.start();

  net::EventLoop loop;
  net::TcpTransport tcp(loop, "127.0.0.1", d.port(0));
  net::RpcClient rpc(tcp, 10'000'000);
  crypto::ChaChaDrbg rng(74);
  client::Browser browser(rpc.wire(), d.public_key(), rng, "tcp-client");
  const auto wait = [&](const std::function<bool()>& done) {
    const Micros deadline = loop.clock().now_us() + 30'000'000;
    while (!done() && loop.clock().now_us() < deadline) loop.poll(20'000);
    return done();
  };
  std::optional<Status> login;
  browser.login("alice", kMp, [&](Status s) { login = s; });
  ASSERT_TRUE(wait([&] { return login.has_value(); }));
  ASSERT_TRUE(login->ok()) << login->message();
  std::optional<Result<std::string>> round;
  browser.request_password("acct", "example.com",
                           [&](Result<std::string> r) { round = r; });
  ASSERT_TRUE(wait([&] { return round.has_value(); }));
  ASSERT_TRUE(round->ok()) << round->message();
  rpc.close();
  d.stop();  // joins the reactor: the registry is still from here on
  collect(d.server(0).metrics(), names);
}

TEST(MetricCatalog, EveryEmittedMetricIsDocumented) {
  std::set<std::string> names;
  single_server_flows(names);
  sharded_flows(names);
  crash_drill(names);
  tcp_flows(names);
  ASSERT_FALSE(::testing::Test::HasFailure());
  // Spot checks that each flow reached the registries.
  for (const char* name :
       {"server.requests_declined", "shard.forwarded_out",
        "cluster.promotions", "net.bytes_rx"}) {
    EXPECT_TRUE(names.contains(name)) << name << " was not emitted";
  }

  std::vector<std::regex> docs;
  for (const char* doc : {"OBSERVABILITY.md", "RESILIENCE.md", "CLUSTER.md"}) {
    const auto found = documented_names(std::string(AMNESIA_DOCS_DIR) + "/" +
                                        doc);
    docs.insert(docs.end(), found.begin(), found.end());
  }
  std::ostringstream missing;
  for (const std::string& name : names) {
    bool listed = false;
    for (const std::regex& doc : docs) {
      if (std::regex_match(name, doc)) {
        listed = true;
        break;
      }
    }
    if (!listed) missing << "  " << name << "\n";
  }
  EXPECT_EQ(missing.str(), "") << "emitted but not documented:\n"
                               << missing.str();
}

}  // namespace
}  // namespace amnesia
