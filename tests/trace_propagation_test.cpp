// Cross-hop trace propagation: one password request must produce ONE
// connected trace tree spanning browser -> server -> GCM -> phone ->
// server -> browser — in the simulated network (including under jitter,
// injected link loss, and the poll fallback with rendezvous down) and
// over the real TCP transport, with identical tree shape in both modes.
// Also covers the HttpServer's handling of malformed/hostile
// X-Amnesia-Trace headers and the GET /trace/<id> + GET /events routes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "client/browser.h"
#include "crypto/drbg.h"
#include "eval/testbed.h"
#include "net/event_loop.h"
#include "net/rpc.h"
#include "net/tcp.h"
#include "obs/trace.h"
#include "resilience/fault.h"
#include "server/gateway.h"
#include "simnet/stream.h"
#include "websvc/http.h"
#include "websvc/server.h"

namespace amnesia {
namespace {

using eval::Testbed;
using eval::TestbedConfig;
using resilience::FaultInjector;
using resilience::FaultKind;
using resilience::FaultRule;
using resilience::ScopedFaultInjector;

// ------------------------------------------------------- tree utilities

std::map<obs::SpanId, const obs::TraceSpan*> by_id(
    const std::vector<obs::TraceSpan>& spans) {
  std::map<obs::SpanId, const obs::TraceSpan*> out;
  for (const auto& s : spans) out.emplace(s.id, &s);
  return out;
}

/// Every span is the root or has its parent inside the same trace — the
/// tree is connected, not a forest of orphans.
void expect_connected(const std::vector<obs::TraceSpan>& spans) {
  const auto index = by_id(spans);
  std::size_t roots = 0;
  for (const auto& s : spans) {
    if (s.parent == 0) {
      ++roots;
      EXPECT_EQ(s.name, "browser.request");
    } else {
      EXPECT_TRUE(index.contains(s.parent))
          << s.name << " (" << s.component << ") has a parent outside "
          << "its own trace";
    }
  }
  EXPECT_EQ(roots, 1u) << "one login must yield exactly one root";
}

std::set<std::string> components_of(const std::vector<obs::TraceSpan>& spans) {
  std::set<std::string> out;
  for (const auto& s : spans) out.insert(s.component);
  return out;
}

const obs::TraceSpan* find_named(const std::vector<obs::TraceSpan>& spans,
                                 const std::string& name) {
  for (const auto& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

void expect_edge(const std::vector<obs::TraceSpan>& spans,
                 const std::string& child, const std::string& parent) {
  const auto index = by_id(spans);
  const obs::TraceSpan* c = find_named(spans, child);
  ASSERT_NE(c, nullptr) << child << " span missing from trace";
  const auto it = index.find(c->parent);
  ASSERT_NE(it, index.end()) << child << " has no in-trace parent";
  EXPECT_EQ(it->second->name, parent)
      << child << " should parent under " << parent;
}

/// Canonical shape: one "child(component) <- parent" line per span,
/// sorted — comparable across transport backends.
std::vector<std::string> tree_shape(const std::vector<obs::TraceSpan>& spans) {
  const auto index = by_id(spans);
  std::vector<std::string> out;
  for (const auto& s : spans) {
    const auto it = index.find(s.parent);
    const std::string parent =
        it != index.end() ? it->second->name : std::string("-");
    out.push_back(s.name + "(" + s.component + ") <- " + parent);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<obs::TraceSpan> last_login_trace(Testbed& bed) {
  return bed.server().metrics().tracer().trace(bed.browser().last_trace_id());
}

// ------------------------------------------------------- simnet end-to-end

TEST(TracePropagation, SimLoginProducesOneConnectedFiveHopTree) {
  Testbed bed;
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());
  bed.server().metrics().tracer().clear();

  ASSERT_TRUE(bed.get_password("Alice", "mail.google.com").ok());
  bed.sim().run();

  const auto spans = last_login_trace(bed);
  ASSERT_FALSE(spans.empty());
  expect_connected(spans);

  // All five hops of Fig. 1 report into the one trace.
  const auto components = components_of(spans);
  EXPECT_TRUE(components.contains("browser"));
  EXPECT_TRUE(components.contains("server"));
  EXPECT_TRUE(components.contains("gcm"));
  EXPECT_TRUE(components.contains("phone"));

  // The edges that make it a bilateral round, not a flat list.
  expect_edge(spans, "http.server", "http.client");
  expect_edge(spans, "protocol.round", "http.server");
  expect_edge(spans, "rendezvous.push", "protocol.round");
  expect_edge(spans, "rendezvous.deliver", "rendezvous.push");
  expect_edge(spans, "phone.wait", "protocol.round");
  expect_edge(spans, "phone.confirm", "phone.wait");
  expect_edge(spans, "server.generate", "protocol.round");

  const obs::TraceSpan* deliver = find_named(spans, "rendezvous.deliver");
  ASSERT_NE(deliver, nullptr);
  EXPECT_EQ(deliver->component, "gcm");
  const obs::TraceSpan* confirm = find_named(spans, "phone.confirm");
  ASSERT_NE(confirm, nullptr);
  EXPECT_EQ(confirm->component, "phone");
}

TEST(TracePropagation, TraceSurvivesJitterAndLinkLoss) {
  TestbedConfig config;
  config.seed = 91;
  config.server.push_rpc_timeout_us = ms_to_us(2000);
  config.phone.poll_interval_us = ms_to_us(500);
  Testbed bed(config);
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());

  // 10% loss on every directed link (seeded, replayable). Retries and the
  // poll fallback may reroute legs, but a successful login must still
  // stitch into one connected tree.
  FaultInjector injector(/*seed=*/91);
  injector.add_rule(FaultRule{.point = "simnet.link.*",
                              .probability = 0.10,
                              .kind = FaultKind::kDrop});
  ScopedFaultInjector scoped(injector);

  bool succeeded = false;
  for (int attempt = 0; attempt < 8 && !succeeded; ++attempt) {
    succeeded = bed.get_password("Alice", "mail.google.com").ok();
  }
  ASSERT_TRUE(succeeded);
  // The poll timer keeps the queue alive forever; drain a bounded window.
  bed.sim().run_until(bed.sim().now() + ms_to_us(5000));

  const auto spans = last_login_trace(bed);
  ASSERT_FALSE(spans.empty());
  expect_connected(spans);
  const auto components = components_of(spans);
  EXPECT_TRUE(components.contains("browser"));
  EXPECT_TRUE(components.contains("server"));
  EXPECT_TRUE(components.contains("phone"));
  expect_edge(spans, "protocol.round", "http.server");
  expect_edge(spans, "phone.confirm", "phone.wait");
}

TEST(TracePropagation, PollFallbackKeepsPhoneInTheTree) {
  TestbedConfig config;
  config.seed = 17;
  config.server.push_rpc_timeout_us = ms_to_us(2000);
  config.phone.poll_interval_us = ms_to_us(500);
  Testbed bed(config);
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());

  // Rendezvous fully offline: the push leg fails, the payload parks in
  // the poll queue, and the phone fetches it over POST /push/poll. The
  // trace context rides inside the push payload, so the fallback path
  // must keep phone.confirm under the round's phone.wait span.
  bed.net().set_online("gcm", false);
  bed.server().metrics().tracer().clear();

  ASSERT_TRUE(bed.get_password("Alice", "mail.google.com").ok());
  bed.sim().run_until(bed.sim().now() + ms_to_us(5000));
  ASSERT_GE(bed.server().stats().poll_delivered, 1u);

  const auto spans = last_login_trace(bed);
  ASSERT_FALSE(spans.empty());
  expect_connected(spans);
  const auto components = components_of(spans);
  EXPECT_TRUE(components.contains("browser"));
  EXPECT_TRUE(components.contains("server"));
  EXPECT_TRUE(components.contains("phone"));
  expect_edge(spans, "phone.confirm", "phone.wait");
  expect_edge(spans, "server.generate", "protocol.round");
}

// ------------------------------------------------ TCP vs sim conformance

constexpr const char* kUser = "carol";
constexpr const char* kMasterPassword = "one master password";

std::unique_ptr<Testbed> provisioned_bed() {
  TestbedConfig config;
  config.seed = 7;
  auto bed = std::make_unique<Testbed>(config);
  EXPECT_TRUE(bed->provision(kUser, kMasterPassword).ok());
  EXPECT_TRUE(bed->add_account("Carol", "mail.google.com").ok());
  return bed;
}

/// Runs login + request_password through a wire-backed browser and
/// returns the canonical shape of the request's trace tree.
template <typename Await>
std::vector<std::string> traced_flow_shape(Testbed& bed,
                                           client::Browser& browser,
                                           const Await& await) {
  browser.set_tracer(&bed.server().metrics().tracer());
  bool ok = false;
  await([&](auto done) {
    browser.login(kUser, kMasterPassword, [&, done](Status s) {
      ok = s.ok();
      done();
    });
  });
  EXPECT_TRUE(ok);
  bed.server().metrics().tracer().clear();
  await([&](auto done) {
    browser.request_password("Carol", "mail.google.com",
                             [&, done](Result<std::string> r) {
                               ok = r.ok();
                               done();
                             });
  });
  EXPECT_TRUE(ok);
  const auto spans =
      bed.server().metrics().tracer().trace(browser.last_trace_id());
  EXPECT_FALSE(spans.empty());
  expect_connected(spans);
  return tree_shape(spans);
}

std::vector<std::string> shape_over_tcp() {
  auto bed = provisioned_bed();
  net::EventLoop loop;
  net::TcpTransport secure_tr(loop, "127.0.0.1", 0);
  server::NetGateway gateway(secure_tr, nullptr, bed->server());

  net::TcpTransport dial(loop, "127.0.0.1", secure_tr.local_port());
  net::RpcClient rpc(dial, 30'000'000);
  crypto::ChaChaDrbg rng(99);
  client::Browser browser(rpc.wire(), bed->server().public_key(), rng,
                          "tcp-client");

  const auto await = [&](auto start) {
    bool fired = false;
    start([&fired] { fired = true; });
    const Micros deadline = loop.clock().now_us() + 60'000'000;
    while (!fired) {
      ASSERT_LT(loop.clock().now_us(), deadline) << "TCP flow stalled";
      loop.poll(20'000);
    }
  };
  auto shape = traced_flow_shape(*bed, browser, await);
  rpc.close();
  return shape;
}

std::vector<std::string> shape_over_simstream() {
  auto bed = provisioned_bed();
  simnet::SimStreamTransport secure_tr(bed->net(), "gateway");
  server::NetGateway gateway(secure_tr, nullptr, bed->server());

  simnet::SimStreamTransport dial(bed->net(), "wire-client", "gateway");
  net::RpcClient rpc(dial, 30'000'000);
  crypto::ChaChaDrbg rng(99);
  client::Browser browser(rpc.wire(), bed->server().public_key(), rng,
                          "wire-client");

  const auto await = [&](auto start) {
    bool fired = false;
    start([&fired] { fired = true; });
    std::size_t steps = 0;
    while (!fired && bed->sim().step()) {
      ASSERT_LT(++steps, 10'000'000u) << "sim flow stalled";
    }
    ASSERT_TRUE(fired);
  };
  auto shape = traced_flow_shape(*bed, browser, await);
  rpc.close();
  return shape;
}

TEST(TracePropagation, TcpAndSimBackendsProduceIdenticalTreeShape) {
  const auto tcp = shape_over_tcp();
  const auto sim = shape_over_simstream();
  ASSERT_FALSE(tcp.empty());
  EXPECT_EQ(tcp, sim)
      << "the trace tree of one login must not depend on the transport";
  // Sanity: the real-TCP tree covers all five components too.
  std::set<std::string> tcp_components;
  for (const auto& edge : tcp) {
    const auto lp = edge.find('('), rp = edge.find(')');
    ASSERT_NE(lp, std::string::npos);
    tcp_components.insert(edge.substr(lp + 1, rp - lp - 1));
  }
  EXPECT_TRUE(tcp_components.contains("browser"));
  EXPECT_TRUE(tcp_components.contains("server"));
  EXPECT_TRUE(tcp_components.contains("gcm"));
  EXPECT_TRUE(tcp_components.contains("phone"));
}

// --------------------------------------------- hostile inbound headers

struct HeaderFixture {
  simnet::Simulation sim{77};
  obs::MetricsRegistry metrics;
  websvc::HttpServer server{sim, 4};

  HeaderFixture() {
    metrics.set_clock(&sim.clock());
    server.set_metrics(&metrics);
    server.router().add(websvc::Method::kGet, "/hello",
                        [](const websvc::Request&, const websvc::PathParams&,
                           websvc::Responder respond) {
                          respond(websvc::Response::ok_text("world"));
                        });
  }

  websvc::Response roundtrip(const std::string& trace_header) {
    websvc::Request req;
    req.method = websvc::Method::kGet;
    req.path = "/hello";
    if (!trace_header.empty()) {
      req.headers[obs::kTraceHeaderName] = trace_header;
    }
    Bytes reply;
    server.handle_bytes(websvc::serialize(req),
                        [&](Bytes b) { reply = std::move(b); });
    while (sim.step()) {
    }
    return websvc::parse_response(reply);
  }
};

TEST(TraceHeaderHandling, ValidHeaderJoinsTraceAndCanonicalEcho) {
  HeaderFixture fx;
  obs::TraceContext remote;
  remote.trace_id = {0x1111, 0x2222};
  remote.span_id = 0x33;
  const auto resp = fx.roundtrip(obs::format_trace_header(remote));
  EXPECT_EQ(resp.status, 200);

  const auto spans = fx.metrics.tracer().trace(remote.trace_id);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "http.server");
  EXPECT_EQ(spans[0].parent, remote.span_id);

  // The response echoes the *server span* in canonical form.
  const auto it = resp.headers.find(obs::kTraceHeaderName);
  ASSERT_NE(it, resp.headers.end());
  const auto echoed = obs::parse_trace_header(it->second);
  ASSERT_TRUE(echoed.has_value());
  EXPECT_EQ(echoed->trace_id, remote.trace_id);
  EXPECT_EQ(echoed->span_id, spans[0].id);
}

TEST(TraceHeaderHandling, MalformedHeadersDroppedNeverEchoedNeverCrash) {
  HeaderFixture fx;
  const std::vector<std::string> hostile = {
      std::string(8192, 'a'),                    // oversized
      "0123",                                    // truncated
      std::string(obs::kTraceHeaderLen, 'z'),    // non-hex, right length
      "0123456789ABCDEF0123456789ABCDEF-0123456789ABCDEF-01",  // uppercase
      std::string(32, '0') + "-" + std::string(16, '0') + "-01",  // zero ids
      "<script>alert(1)</script>",               // junk
  };
  for (const auto& value : hostile) {
    const auto resp = fx.roundtrip(value);
    EXPECT_EQ(resp.status, 200) << "hostile header must not break serving";
    const auto it = resp.headers.find(obs::kTraceHeaderName);
    if (it != resp.headers.end()) {
      // Whatever is echoed is our own canonical serialization...
      EXPECT_TRUE(obs::parse_trace_header(it->second).has_value());
      // ...and never the inbound bytes.
      EXPECT_NE(it->second, value);
    }
  }
  EXPECT_EQ(fx.metrics.counter("http.trace_headers_rejected").value(),
            hostile.size());

  // Each hostile request started a fresh root instead of joining a trace.
  for (const auto& s : fx.metrics.tracer().snapshot()) {
    EXPECT_EQ(s.parent, 0u);
  }
}

TEST(TraceHeaderHandling, NoMetricsMeansNoTracingAndNoCrash) {
  simnet::Simulation sim{78};
  websvc::HttpServer server{sim, 2};
  server.router().add(websvc::Method::kGet, "/hello",
                      [](const websvc::Request&, const websvc::PathParams&,
                         websvc::Responder respond) {
                        respond(websvc::Response::ok_text("world"));
                      });
  websvc::Request req;
  req.method = websvc::Method::kGet;
  req.path = "/hello";
  req.headers[obs::kTraceHeaderName] = std::string(4096, 'x');
  Bytes reply;
  server.handle_bytes(websvc::serialize(req),
                      [&](Bytes b) { reply = std::move(b); });
  while (sim.step()) {
  }
  const auto resp = websvc::parse_response(reply);
  EXPECT_EQ(resp.status, 200);
  EXPECT_FALSE(resp.headers.contains(obs::kTraceHeaderName));
}

// ------------------------------------------------------ trace endpoints

websvc::Response server_get(Testbed& bed, const std::string& path) {
  websvc::Request req;
  req.method = websvc::Method::kGet;
  req.path = path;
  Bytes reply;
  bed.server().http().handle_bytes(websvc::serialize(req),
                                   [&](Bytes b) { reply = std::move(b); });
  // Bounded drain: a live phone poll timer keeps the queue nonempty.
  bed.sim().run_until(bed.sim().now() + ms_to_us(1000));
  return websvc::parse_response(reply);
}

TEST(TraceEndpoints, ServeTreeAndEventsById) {
  Testbed bed;
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());
  ASSERT_TRUE(bed.get_password("Alice", "mail.google.com").ok());
  bed.sim().run();

  const obs::TraceId id = bed.browser().last_trace_id();
  ASSERT_TRUE(id.valid());
  const auto resp = server_get(bed, "/trace/" + obs::trace_id_hex(id));
  EXPECT_EQ(resp.status, 200);
  for (const char* name :
       {"browser.request", "http.server", "protocol.round",
        "rendezvous.deliver", "phone.confirm", "server.generate"}) {
    EXPECT_NE(resp.body.find(name), std::string::npos) << name;
  }

  EXPECT_EQ(server_get(bed, "/trace/not-a-trace-id").status, 400);
  EXPECT_EQ(server_get(bed, "/trace/" + std::string(32, 'f')).status, 404);

  const auto events = server_get(bed, "/events");
  EXPECT_EQ(events.status, 200);
}

TEST(TraceEndpoints, EventsCaptureDegradedModeTaggedWithTrace) {
  TestbedConfig config;
  config.seed = 23;
  config.server.push_rpc_timeout_us = ms_to_us(2000);
  config.phone.poll_interval_us = ms_to_us(500);
  Testbed bed(config);
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());
  bed.net().set_online("gcm", false);

  ASSERT_TRUE(bed.get_password("Alice", "mail.google.com").ok());
  bed.sim().run_until(bed.sim().now() + ms_to_us(5000));

  // The failed push leg produced resilience events (retry give-up and/or
  // queued-for-poll) tagged with the login's trace id.
  const obs::TraceId id = bed.browser().last_trace_id();
  bool tagged = false;
  for (const auto& rec : bed.server().metrics().events().snapshot()) {
    if (rec.trace_id == id) tagged = true;
  }
  EXPECT_TRUE(tagged)
      << "no event carried the trace id of the degraded login";
  const auto events = server_get(bed, "/events");
  EXPECT_EQ(events.status, 200);
  EXPECT_NE(events.body.find(obs::trace_id_hex(id)), std::string::npos);
}

}  // namespace
}  // namespace amnesia
