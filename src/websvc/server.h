// HttpServer: binds a Router + ThreadPoolModel to a transport.
//
// The server consumes raw request bytes (from a simnet Node RPC handler or
// from the secure channel's decrypted stream), parses, dispatches, and
// serializes the response. A worker from the pool is held from dispatch
// until the handler responds, matching CherryPy's thread-per-request
// behaviour that the paper's prototype relies on.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <string>

#include "common/rng.h"
#include "net/executor.h"
#include "obs/metrics.h"
#include "simnet/node.h"
#include "websvc/http.h"
#include "websvc/router.h"
#include "websvc/threadpool.h"

namespace amnesia::websvc {

/// Atomic (relaxed) so real-socket sessions, the event loop's timers, and
/// test threads may bump and read them concurrently; the fields read as
/// plain integers.
struct HttpServerStats {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> responses_2xx{0};
  std::atomic<std::uint64_t> responses_4xx{0};
  std::atomic<std::uint64_t> responses_5xx{0};
  std::atomic<std::uint64_t> parse_errors{0};
  std::atomic<std::uint64_t> requests_shed{0};
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
  const HttpServerStats& stats() const { return stats_; }

  /// Counts a request that died before parse_request could run (torn
  /// framing or premature FIN seen by the stream layer).
  void note_stream_parse_error();

  void set_service_time(ServiceTimeFn fn) { service_time_ = std::move(fn); }

  /// Publishes http.* metrics into `registry` (and threadpool.* through
  /// the pool): a global request counter, status-class counters, and a
  /// per-route request counter + latency histogram labelled by route
  /// pattern, e.g. http.route.POST:/login.latency_us. Latency spans
  /// parse-to-respond in virtual time, so it includes queueing, service
  /// time, and any asynchronous wait inside the handler.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Names this process in recorded trace spans ("server" by default;
  /// the GCM stand-in sets "gcm", etc.).
  void set_trace_component(std::string component) {
    trace_component_ = std::move(component);
  }

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
  /// stats().requests_shed and the resilience.requests_shed metric.
  void set_load_shed(std::size_t max_queue_depth) {
    shed_max_queue_ = max_queue_depth;
  }

  /// Handles one serialized request; `respond` receives serialized
  /// response bytes. This is the entry point wired into a Node RPC handler
  /// or a secure-channel server.
  void handle_bytes(const Bytes& wire, std::function<void(Bytes)> respond);

  /// Convenience: installs this server as `node`'s RPC handler.
  void bind(simnet::Node& node);

 private:
  void count_status(int status);

  net::Executor& exec_;
  Router router_;
  ThreadPoolModel pool_;
  ServiceTimeFn service_time_;
  HttpServerStats stats_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::string trace_component_ = "server";
  std::set<std::string> metrics_exempt_;
  std::size_t shed_max_queue_ = 0;
};

}  // namespace amnesia::websvc
