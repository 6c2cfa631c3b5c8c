// Web-framework substrate: HTTP codec, router, sessions, worker-pool
// model, and end-to-end client/server over the simulated network.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "common/error.h"
#include "crypto/drbg.h"
#include "obs/metrics.h"
#include "simnet/network.h"
#include "simnet/node.h"
#include "simnet/sim.h"
#include "testutil.h"
#include "websvc/client.h"
#include "websvc/http.h"
#include "websvc/router.h"
#include "websvc/server.h"
#include "websvc/session.h"
#include "websvc/threadpool.h"

namespace amnesia::websvc {
namespace {

using testutil::RunSim;

TEST(HttpCodec, RequestRoundTrip) {
  Request req;
  req.method = Method::kPost;
  req.path = "/accounts/add";
  req.query = {{"verbose", "1"}};
  req.headers["X-Custom"] = "value";
  req.body = "domain=mail.google.com&username=Alice";

  const Request parsed = parse_request(serialize(req));
  EXPECT_EQ(parsed.method, Method::kPost);
  EXPECT_EQ(parsed.path, "/accounts/add");
  EXPECT_EQ(parsed.query.at("verbose"), "1");
  EXPECT_EQ(parsed.header("X-Custom"), "value");
  EXPECT_EQ(parsed.body, req.body);
}

TEST(HttpCodec, ResponseRoundTrip) {
  Response resp = Response::ok_text("hello");
  resp.headers["Set-Cookie"] = "session=abc123";
  const Response parsed = parse_response(serialize(resp));
  EXPECT_EQ(parsed.status, 200);
  EXPECT_EQ(parsed.body, "hello");
  EXPECT_EQ(parsed.header("Set-Cookie"), "session=abc123");
}

TEST(HttpCodec, BodyWithBinaryAndCrlf) {
  Request req;
  req.method = Method::kPost;
  req.path = "/data";
  req.body = std::string("line1\r\n\r\nline2\0tail", 19);
  const Request parsed = parse_request(serialize(req));
  EXPECT_EQ(parsed.body, req.body);
}

TEST(HttpCodec, MalformedMessagesThrow) {
  EXPECT_THROW(parse_request(to_bytes("not http")), FormatError);
  EXPECT_THROW(parse_request(to_bytes("GET / HTTP/2.0\r\n\r\n")), FormatError);
  EXPECT_THROW(parse_request(to_bytes("FROB / HTTP/1.1\r\n\r\n")), FormatError);
  EXPECT_THROW(parse_request(to_bytes("GET noslash HTTP/1.1\r\n\r\n")),
               FormatError);
  EXPECT_THROW(parse_response(to_bytes("HTTP/1.1 abc\r\n\r\n")), FormatError);
  // Declared body longer than actual payload.
  EXPECT_THROW(
      parse_request(to_bytes("GET / HTTP/1.1\r\nContent-Length: 99\r\n\r\nx")),
      FormatError);
}

TEST(HttpCodec, FormEncodingRoundTripWithSpecials) {
  const std::map<std::string, std::string> fields = {
      {"a b", "1&2"}, {"key=", "v%v"}, {"unicode", "p\xc3\xa5ss"}};
  EXPECT_EQ(form_decode(form_encode(fields)), fields);
}

TEST(HttpCodec, FormDecodeToleratesBareKeys) {
  const auto fields = form_decode("flag&x=1");
  EXPECT_EQ(fields.at("flag"), "");
  EXPECT_EQ(fields.at("x"), "1");
}

TEST(HttpCodec, CookieParsing) {
  Request req;
  req.headers["Cookie"] = "a=1; session=tok42; b=2";
  EXPECT_EQ(req.cookie("session"), "tok42");
  EXPECT_EQ(req.cookie("a"), "1");
  EXPECT_EQ(req.cookie("b"), "2");
  EXPECT_FALSE(req.cookie("missing").has_value());
}

TEST(RouterTest, StaticAndParamRoutes) {
  Router router;
  std::string hit;
  router.add(Method::kGet, "/ping",
             [&](const Request&, const PathParams&, Responder respond) {
               hit = "ping";
               respond(Response::ok_text("pong"));
             });
  router.add(Method::kGet, "/accounts/:id",
             [&](const Request&, const PathParams& params, Responder respond) {
               hit = "account:" + params.at("id");
               respond(Response::ok_text(""));
             });

  Request req;
  req.path = "/ping";
  EXPECT_TRUE(router.dispatch(req, [](Response) {}));
  EXPECT_EQ(hit, "ping");

  req.path = "/accounts/42";
  EXPECT_TRUE(router.dispatch(req, [](Response) {}));
  EXPECT_EQ(hit, "account:42");

  req.path = "/nope";
  EXPECT_FALSE(router.dispatch(req, [](Response) {}));
}

TEST(RouterTest, MethodMismatchDoesNotMatch) {
  Router router;
  router.add(Method::kPost, "/submit",
             [](const Request&, const PathParams&, Responder respond) {
               respond(Response::ok_text(""));
             });
  Request req;
  req.method = Method::kGet;
  req.path = "/submit";
  EXPECT_FALSE(router.dispatch(req, [](Response) {}));
}

TEST(RouterTest, DuplicateRouteRejected) {
  Router router;
  const auto handler = [](const Request&, const PathParams&, Responder) {};
  router.add(Method::kGet, "/x", handler);
  EXPECT_THROW(router.add(Method::kGet, "/x", handler), ProtocolError);
  router.add(Method::kPost, "/x", handler);  // different method is fine
}

TEST(SessionTest, CreateAuthenticateRevoke) {
  ManualClock clock;
  crypto::ChaChaDrbg rng(31);
  SessionManager sessions(clock, rng);
  const std::string token = sessions.create("alice");

  const auto s = sessions.authenticate(token);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->principal, "alice");

  EXPECT_TRUE(sessions.revoke(token));
  EXPECT_FALSE(sessions.authenticate(token).has_value());
}

TEST(SessionTest, ExpiresAfterIdleTimeout) {
  ManualClock clock;
  crypto::ChaChaDrbg rng(32);
  SessionManager sessions(clock, rng, /*idle_timeout_us=*/1'000'000);
  const std::string token = sessions.create("alice");
  clock.advance_us(999'999);
  EXPECT_TRUE(sessions.authenticate(token).has_value());  // refreshes
  clock.advance_us(999'999);
  EXPECT_TRUE(sessions.authenticate(token).has_value());
  clock.advance_us(1'000'001);
  EXPECT_FALSE(sessions.authenticate(token).has_value());
}

TEST(SessionTest, RevokeAllForPrincipal) {
  ManualClock clock;
  crypto::ChaChaDrbg rng(33);
  SessionManager sessions(clock, rng);
  sessions.create("alice");
  sessions.create("alice");
  const std::string bob = sessions.create("bob");
  EXPECT_EQ(sessions.revoke_all("alice"), 2u);
  EXPECT_TRUE(sessions.authenticate(bob).has_value());
}

TEST(SessionTest, TokensAreUnpredictablyDistinct) {
  ManualClock clock;
  crypto::ChaChaDrbg rng(34);
  SessionManager sessions(clock, rng);
  EXPECT_NE(sessions.create("a"), sessions.create("a"));
}

TEST(ThreadPoolTest, RunsJobsUpToCapacityThenQueues) {
  simnet::Simulation sim(41);
  ThreadPoolModel pool(sim, 2);
  std::vector<int> done;
  for (int i = 0; i < 4; ++i) {
    pool.submit([&sim, &done, i](std::function<void()> release) {
      sim.schedule_after(100, [&done, i, release = std::move(release)] {
        done.push_back(i);
        release();
      });
    });
  }
  EXPECT_EQ(pool.busy(), 2);
  EXPECT_EQ(pool.queue_depth(), 2u);
  RunSim(sim);
  EXPECT_EQ(done.size(), 4u);
  // Two waves of 100us each.
  EXPECT_EQ(sim.now(), 200);
  EXPECT_EQ(pool.jobs_completed(), 4u);
  EXPECT_EQ(pool.max_queue_depth(), 2u);
}

TEST(ThreadPoolTest, DoubleReleaseThrows) {
  simnet::Simulation sim(42);
  ThreadPoolModel pool(sim, 1);
  std::function<void()> stolen;
  pool.submit([&](std::function<void()> release) {
    stolen = release;
    release();
  });
  EXPECT_THROW(stolen(), Error);
}

TEST(ThreadPoolTest, DoubleReleaseDoesNotCorruptAccounting) {
  // A buggy job that releases its worker twice must be detected and
  // rejected without freeing a second worker: busy_ would otherwise go
  // negative and the pool would admit more jobs than it has workers.
  simnet::Simulation sim(44);
  obs::MetricsRegistry reg(&sim.clock());
  ThreadPoolModel pool(sim, 1);
  pool.set_metrics(&reg);

  std::function<void()> stolen;
  pool.submit([&](std::function<void()> release) {
    stolen = release;
    release();
  });
  EXPECT_THROW(stolen(), Error);
  EXPECT_THROW(stolen(), Error);  // and again, still rejected

  EXPECT_EQ(pool.busy(), 0);
  EXPECT_EQ(pool.jobs_completed(), 1u);
  EXPECT_EQ(pool.double_releases(), 2u);
  EXPECT_EQ(reg.counter("threadpool.double_release").value(), 2u);
  EXPECT_EQ(reg.counter("threadpool.jobs_completed").value(), 1u);

  // The pool still works: a well-behaved job runs and completes.
  bool ran = false;
  pool.submit([&](std::function<void()> release) {
    ran = true;
    release();
  });
  RunSim(sim);
  EXPECT_TRUE(ran);
  EXPECT_EQ(pool.busy(), 0);
  EXPECT_EQ(pool.jobs_completed(), 2u);
}

TEST(ThreadPoolTest, RejectsZeroWorkers) {
  simnet::Simulation sim(43);
  EXPECT_THROW(ThreadPoolModel(sim, 0), Error);
}

struct TestService {
  simnet::Simulation sim{50};
  simnet::Network net{sim};
  simnet::Node server_node{net, "server"};
  simnet::Node client_node{net, "client"};
  HttpServer server{sim, 10};
  HttpClient client{plain_transport(client_node, "server")};

  TestService() {
    server.router().add(
        Method::kGet, "/hello",
        [](const Request&, const PathParams&, Responder respond) {
          respond(Response::ok_text("world"));
        });
    server.router().add(
        Method::kPost, "/login",
        [](const Request& req, const PathParams&, Responder respond) {
          Response resp = Response::ok_text("welcome " +
                                            req.form().at("user"));
          resp.headers["Set-Cookie"] = "session=tok-1; HttpOnly";
          respond(resp);
        });
    server.router().add(
        Method::kGet, "/whoami",
        [](const Request& req, const PathParams&, Responder respond) {
          const auto session = req.cookie("session");
          respond(session ? Response::ok_text("session=" + *session)
                          : Response::error(401, "no session"));
        });
    server.router().add(
        Method::kGet, "/boom",
        [](const Request&, const PathParams&, Responder) {
          throw ProtocolError("handler exploded");
        });
    server.bind(server_node);
  }
};

TEST(HttpEndToEnd, GetOverSimulatedNetwork) {
  TestService svc;
  std::string body;
  svc.client.get("/hello", [&](Result<Response> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().status, 200);
    body = r.value().body;
  });
  RunSim(svc.sim);
  EXPECT_EQ(body, "world");
  EXPECT_EQ(svc.server.stats().responses_2xx, 1u);
}

TEST(HttpEndToEnd, CookieJarPersistsSession) {
  TestService svc;
  svc.client.post_form("/login", {{"user", "alice"}}, [](Result<Response> r) {
    ASSERT_TRUE(r.ok());
  });
  RunSim(svc.sim);
  EXPECT_EQ(svc.client.cookies().at("session"), "tok-1");

  std::string body;
  svc.client.get("/whoami", [&](Result<Response> r) {
    body = r.value().body;
  });
  RunSim(svc.sim);
  EXPECT_EQ(body, "session=tok-1");
}

TEST(HttpEndToEnd, UnknownRouteIs404) {
  TestService svc;
  int status = 0;
  svc.client.get("/missing", [&](Result<Response> r) {
    status = r.value().status;
  });
  RunSim(svc.sim);
  EXPECT_EQ(status, 404);
  EXPECT_EQ(svc.server.stats().responses_4xx, 1u);
}

TEST(HttpEndToEnd, HandlerExceptionBecomes500) {
  TestService svc;
  int status = 0;
  svc.client.get("/boom", [&](Result<Response> r) {
    status = r.value().status;
  });
  RunSim(svc.sim);
  EXPECT_EQ(status, 500);
  EXPECT_EQ(svc.server.stats().responses_5xx, 1u);
}

TEST(HttpEndToEnd, MalformedBytesGet400) {
  TestService svc;
  Bytes reply;
  svc.server.handle_bytes(to_bytes("garbage"), [&](Bytes b) { reply = b; });
  RunSim(svc.sim);
  const Response resp = parse_response(reply);
  EXPECT_EQ(resp.status, 400);
  EXPECT_EQ(svc.server.stats().parse_errors, 1u);
}

TEST(HttpEndToEnd, ServiceTimeOccupiesWorkers) {
  // With 1 worker and 10 ms of service time per request, two concurrent
  // requests must serialize: total virtual time >= 20 ms.
  simnet::Simulation sim(60);
  simnet::Network net(sim);
  simnet::Node server_node(net, "server");
  simnet::Node client_node(net, "client");
  HttpServer server(sim, 1);
  server.set_service_time([](const Request&) { return ms_to_us(10); });
  server.router().add(Method::kGet, "/work",
                      [](const Request&, const PathParams&, Responder respond) {
                        respond(Response::ok_text("done"));
                      });
  server.bind(server_node);

  HttpClient client(plain_transport(client_node, "server"));
  int completed = 0;
  client.get("/work", [&](Result<Response>) { ++completed; });
  client.get("/work", [&](Result<Response>) { ++completed; });
  RunSim(sim);
  EXPECT_EQ(completed, 2);
  EXPECT_GE(sim.now(), ms_to_us(20));
}

TEST(HttpEndToEnd, ExemptReadinessRouteBypassesPoolAndMetrics) {
  // A /healthz-style readiness probe must answer even while every worker
  // is occupied (a load balancer probing a busy replica), and must not
  // pollute per-route metrics — metrics_exempt() routes are served
  // outside the pool, like /metrics itself.
  simnet::Simulation sim(62);
  simnet::Network net(sim);
  simnet::Node server_node(net, "server");
  simnet::Node client_node(net, "client");
  HttpServer server(sim, 1);
  obs::MetricsRegistry registry;
  server.set_metrics(&registry);
  server.set_service_time([](const Request& req) {
    return req.path == "/work" ? ms_to_us(50) : Micros{0};
  });
  server.router().add(Method::kGet, "/work",
                      [](const Request&, const PathParams&, Responder respond) {
                        respond(Response::ok_text("done"));
                      });
  server.router().add(Method::kGet, "/healthz",
                      [](const Request&, const PathParams&, Responder respond) {
                        Response resp = Response::ok_text("{\"role\": \"primary\"}");
                        resp.headers["Content-Type"] = "application/json";
                        respond(resp);
                      });
  server.metrics_exempt("/healthz");
  server.bind(server_node);

  HttpClient client(plain_transport(client_node, "server"));
  Micros work_done_at = 0;
  client.get("/work", [&](Result<Response>) { work_done_at = sim.now(); });
  Micros probe_done_at = 0;
  std::string probe_body;
  client.get("/healthz", [&](Result<Response> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().status, 200);
    EXPECT_EQ(r.value().header("Content-Type").value_or(""),
              "application/json");
    probe_body = r.value().body;
    probe_done_at = sim.now();
  });
  RunSim(sim);
  EXPECT_EQ(probe_body, "{\"role\": \"primary\"}");
  // The probe did not queue behind the 50 ms job hogging the one worker.
  EXPECT_LT(probe_done_at, work_done_at);

  const auto snapshot = registry.snapshot();
  EXPECT_TRUE(snapshot.counters.contains("http.route.GET:/work.requests"));
  for (const auto& [name, value] : snapshot.counters) {
    EXPECT_EQ(name.find("/healthz"), std::string::npos)
        << "exempt route leaked into metrics: " << name;
  }
}

TEST(HttpEndToEnd, LoadShedAnswers503PastTheQueueBound) {
  // One worker, held by a handler that keeps its responder, and a queue
  // bound of one: the next request queues, the one after it is shed.
  simnet::Simulation sim(63);
  HttpServer server(sim, 1);
  obs::MetricsRegistry registry(&sim.clock());
  server.set_metrics(&registry);
  server.set_load_shed(1);
  Responder held;
  server.router().add(Method::kGet, "/hold",
                      [&](const Request&, const PathParams&, Responder respond) {
                        held = std::move(respond);
                      });
  server.router().add(Method::kGet, "/work",
                      [](const Request&, const PathParams&, Responder respond) {
                        respond(Response::ok_text("done"));
                      });
  server.router().add(Method::kGet, "/healthz",
                      [](const Request&, const PathParams&, Responder respond) {
                        respond(Response::ok_text("ok"));
                      });
  server.metrics_exempt("/healthz");
  const auto send = [&](const std::string& path,
                        std::optional<Response>& reply) {
    Request req;
    req.method = Method::kGet;
    req.path = path;
    server.handle_bytes(serialize(req), [&reply](Bytes wire) {
      reply = parse_response(wire);
    });
  };

  std::optional<Response> hold, queued, shed, probe;
  send("/hold", hold);
  send("/work", queued);
  ASSERT_EQ(server.pool().busy(), 1);
  ASSERT_EQ(server.pool().queue_depth(), 1u);
  EXPECT_FALSE(queued.has_value());
  EXPECT_EQ(server.stats().requests_shed, 0u);
  EXPECT_EQ(registry.counter("resilience.requests_shed").value(), 0u);
  EXPECT_EQ(registry.counter("http.responses_5xx").value(), 0u);

  send("/work", shed);
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->status, 503);
  EXPECT_EQ(shed->header("Retry-After").value_or(""), "1");
  EXPECT_EQ(server.stats().requests_shed, 1u);
  EXPECT_EQ(registry.counter("resilience.requests_shed").value(), 1u);
  EXPECT_EQ(registry.counter("http.responses_5xx").value(), 1u);
  bool logged = false;
  for (const auto& rec : registry.events().snapshot()) {
    logged = logged || (rec.level == obs::EventLevel::kWarn &&
                        rec.message == "load shed 503: /work");
  }
  EXPECT_TRUE(logged);

  // An exempt route bypasses the pool, so a saturated server still
  // answers its probe.
  send("/healthz", probe);
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->status, 200);

  // Releasing the worker runs the request that queued below the bound.
  ASSERT_TRUE(held);
  held(Response::ok_text("released"));
  RunSim(sim);
  ASSERT_TRUE(hold.has_value());
  EXPECT_EQ(hold->status, 200);
  ASSERT_TRUE(queued.has_value());
  EXPECT_EQ(queued->status, 200);
  EXPECT_EQ(queued->body, "done");
  EXPECT_EQ(server.pool().busy(), 0);
  EXPECT_EQ(server.stats().requests_shed, 1u);
  EXPECT_EQ(server.stats().responses_5xx, 1u);
}

TEST(HttpEndToEnd, TransportTimeoutSurfacesAsFailure) {
  simnet::Simulation sim(61);
  simnet::Network net(sim);
  simnet::Node client_node(net, "client");
  // No server attached at all.
  HttpClient client(plain_transport(client_node, "server", ms_to_us(100)));
  bool failed = false;
  client.get("/hello", [&](Result<Response> r) {
    failed = !r.ok();
    EXPECT_EQ(r.code(), Err::kUnavailable);
  });
  RunSim(sim);
  EXPECT_TRUE(failed);
}

}  // namespace
}  // namespace amnesia::websvc
