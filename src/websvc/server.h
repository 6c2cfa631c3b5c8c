// HttpServer: binds a Router + ThreadPoolModel to a transport.
//
// The server consumes raw request bytes (from a simnet Node RPC handler or
// from the secure channel's decrypted stream), parses, dispatches, and
// serializes the response. A worker from the pool is held from dispatch
// until the handler responds, matching CherryPy's thread-per-request
// behaviour that the paper's prototype relies on.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/executor.h"
#include "obs/metrics.h"
#include "simnet/node.h"
#include "websvc/http.h"
#include "websvc/router.h"
#include "websvc/threadpool.h"

namespace amnesia::websvc {

/// Read from the registry counters that GET /metrics serves, so both
/// report one count: `requests` (http.requests) and the status classes
/// (http.responses_*) count the requests that reached routing, plus each
/// shed 503 in responses_5xx. Shed requests count in requests_shed
/// (resilience.requests_shed) and unparseable ones in parse_errors
/// (http.parse_errors); metrics-exempt routes count nowhere. Without a
/// registry (set_metrics) every field reads 0.
struct HttpServerStats {
  std::uint64_t requests = 0;
  std::uint64_t responses_2xx = 0;
  std::uint64_t responses_4xx = 0;
  std::uint64_t responses_5xx = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t requests_shed = 0;
};

class HttpServer {
 public:
  /// `service_time` samples the CPU time a request occupies a worker with
  /// before the handler runs (the Python/crypto compute of the paper's
  /// prototype). It may be null for zero-cost dispatch.
  using ServiceTimeFn = std::function<Micros(const Request&)>;

  /// `exec` is the dispatch/time surface: a simnet::Simulation (virtual
  /// time) or a net::EventLoop (real time) — the server code is identical
  /// over either.
  HttpServer(net::Executor& exec, int workers);

  Router& router() { return router_; }
  ThreadPoolModel& pool() { return pool_; }
  HttpServerStats stats() const;

  /// Counts a request that died before parse_request could run (torn
  /// framing or premature FIN seen by the stream layer).
  void note_stream_parse_error();

  void set_service_time(ServiceTimeFn fn) { service_time_ = std::move(fn); }

  /// Publishes http.* metrics into `registry` (and threadpool.* through
  /// the pool): a request counter and status-class counters over the
  /// requests that reach routing (HttpServerStats), and a per-route
  /// request counter + latency histogram labelled by route pattern, e.g.
  /// http.route.POST:/login.latency_us. Latency spans parse-to-respond in
  /// virtual time, so it includes queueing, service time, and any
  /// asynchronous wait inside the handler. Each metric is looked up at
  /// its first event and held after that.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Excludes a route pattern from metrics recording and serves it
  /// outside the worker pool. Used for the /metrics route itself so that
  /// serving a snapshot neither mutates the registry it is exporting nor
  /// perturbs pool occupancy (the served text stays byte-comparable to an
  /// in-process snapshot).
  void metrics_exempt(const std::string& pattern) {
    metrics_exempt_.insert(pattern);
  }

  /// Load shedding: when every worker is busy AND the pool's wait queue
  /// already holds `max_queue_depth` jobs, further requests are rejected
  /// immediately with 503 + `Retry-After: 1` instead of queueing without
  /// bound. 0 (the default) disables shedding. Shed requests count in
  /// resilience.requests_shed (stats().requests_shed) and
  /// http.responses_5xx. Routes marked never_shed() still queue, so the
  /// queue holds at most the bound plus those requests.
  void set_load_shed(std::size_t max_queue_depth) {
    shed_max_queue_ = max_queue_depth;
  }

  /// Exempts a route pattern from load shedding. A request that completes
  /// work already holding a worker (the phone's token for a parked
  /// password round) must not be shed: its sender takes the 503 as the
  /// answer, and the worker it would free stays held until a timeout.
  void never_shed(const std::string& pattern) {
    never_shed_.insert(pattern);
  }

  /// Handles one serialized request; `respond` receives serialized
  /// response bytes. This is the entry point wired into a Node RPC handler
  /// or a secure-channel server.
  void handle_bytes(const Bytes& wire, std::function<void(Bytes)> respond);

  /// Convenience: installs this server as `node`'s RPC handler.
  void bind(simnet::Node& node);

 private:
  /// A route's request counter and latency histogram, looked up when the
  /// route first dispatches.
  struct RouteMetrics {
    obs::Counter* requests = nullptr;
    obs::Histogram* latency = nullptr;
  };

  void count_status(int status);
  RouteMetrics& route_metrics(const Router::Route& route);

  net::Executor& exec_;
  Router router_;
  ThreadPoolModel pool_;
  ServiceTimeFn service_time_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::set<std::string> metrics_exempt_;
  std::set<std::string> never_shed_;
  std::size_t shed_max_queue_ = 0;

  // Each looked up at its first event.
  obs::LazyCounter requests_{"http.requests"};
  obs::LazyCounter responses_2xx_{"http.responses_2xx"};
  obs::LazyCounter responses_4xx_{"http.responses_4xx"};
  obs::LazyCounter responses_5xx_{"http.responses_5xx"};
  obs::LazyCounter parse_errors_{"http.parse_errors"};
  obs::LazyCounter requests_shed_{"resilience.requests_shed"};
  obs::LazyCounter trace_headers_rejected_{"http.trace_headers_rejected"};
  std::vector<RouteMetrics> route_metrics_;  // by Router::Route::id
};

}  // namespace amnesia::websvc
