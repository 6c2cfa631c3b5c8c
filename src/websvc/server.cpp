#include "websvc/server.h"

#include <memory>

#include "common/error.h"
#include "common/logging.h"

namespace amnesia::websvc {

HttpServer::HttpServer(net::Executor& exec, int workers)
    : exec_(exec), pool_(exec, workers) {}

void HttpServer::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  route_metrics_.clear();
  pool_.set_metrics(registry);
}

HttpServerStats HttpServer::stats() const {
  return HttpServerStats{requests_.value(),      responses_2xx_.value(),
                         responses_4xx_.value(), responses_5xx_.value(),
                         parse_errors_.value(),  requests_shed_.value()};
}

void HttpServer::count_status(int status) {
  if (status >= 500) {
    responses_5xx_.inc(metrics_);
  } else if (status >= 400) {
    responses_4xx_.inc(metrics_);
  } else {
    responses_2xx_.inc(metrics_);
  }
}

HttpServer::RouteMetrics& HttpServer::route_metrics(
    const Router::Route& route) {
  if (route_metrics_.size() <= route.id) route_metrics_.resize(route.id + 1);
  RouteMetrics& m = route_metrics_[route.id];
  if (m.requests == nullptr) {
    const std::string prefix = "http.route." +
                               std::string(method_name(route.method)) + ":" +
                               route.pattern;
    m.requests = &metrics_->counter(prefix + ".requests");
    m.latency = &metrics_->histogram(prefix + ".latency_us");
  }
  return m;
}

void HttpServer::note_stream_parse_error() { parse_errors_.inc(metrics_); }

void HttpServer::handle_bytes(const Bytes& wire,
                              std::function<void(Bytes)> respond) {
  Request req;
  try {
    req = parse_request(wire);
  } catch (const FormatError& e) {
    parse_errors_.inc(metrics_);
    respond(serialize(Response::error(400, e.what())));
    return;
  }

  // Sanitize the remote trace header before anything can observe it: a
  // valid header is rewritten in canonical serialization, anything else
  // (oversized, non-hex, truncated, zero ids) is dropped so the request
  // starts a fresh root and the hostile bytes are never echoed back.
  obs::TraceContext remote;  // stays invalid without a usable header
  if (const auto trace_header = req.header(obs::kTraceHeaderName)) {
    if (const auto parsed = obs::parse_trace_header(*trace_header)) {
      remote = *parsed;
      req.headers[obs::kTraceHeaderName] = obs::format_trace_header(remote);
    } else {
      req.headers.erase(obs::kTraceHeaderName);
      trace_headers_rejected_.inc(metrics_);
    }
  }

  // One route lookup per request. Metrics are labelled by the route's
  // registration pattern (bounded cardinality), not the raw request path.
  PathParams params;
  const Router::Route* route = router_.find(req, params);
  const auto marked = [route](const std::set<std::string>& patterns) {
    return route != nullptr && patterns.contains(route->pattern);
  };

  // Metrics-exempt routes (the /metrics exporter) are served outside the
  // worker pool and without instrumentation, so that exporting a snapshot
  // neither perturbs pool occupancy nor mutates the registry it reports.
  if (marked(metrics_exempt_)) {
    auto responder = [respond = std::move(respond)](Response resp) {
      respond(serialize(resp));
    };
    try {
      route->handler(req, params, responder);
    } catch (const Error& e) {
      AMNESIA_ERROR("websvc") << "exempt handler threw: " << e.what();
      responder(Response::error(500, "internal error"));
    }
    return;
  }

  // Load shedding: reject rather than queue unboundedly. An early 503
  // with Retry-After costs the client one cheap round instead of a worker
  // queue slot held for seconds (graceful degradation under overload).
  if (shed_max_queue_ > 0 && pool_.busy() >= pool_.workers() &&
      pool_.queue_depth() >= shed_max_queue_ && !marked(never_shed_)) {
    requests_shed_.inc(metrics_);
    responses_5xx_.inc(metrics_);
    if (metrics_) {
      const obs::ScopedTrace scope(remote);  // tag the event with the trace
      metrics_->events().emit(obs::EventLevel::kWarn, "websvc",
                              "load shed 503: " + req.path);
    }
    Response resp = Response::error(503, "server overloaded");
    resp.headers["Retry-After"] = "1";
    respond(serialize(resp));
    return;
  }

  // The server span opens at arrival (not dispatch) so queueing and
  // modelled service time are attributed to this hop in the trace tree.
  obs::TraceContext server_span;  // invalid when tracing is off
  if (metrics_) {
    obs::Tracer& tracer = metrics_->tracer();
    server_span = tracer.start_span("http.server", "server", remote);
    tracer.add_attribute(server_span, "path", req.path);
  }

  const Micros arrived_at = exec_.clock().now_us();
  pool_.submit([this, arrived_at, server_span, route, req = std::move(req),
                params = std::move(params), respond = std::move(respond)](
                   std::function<void()> release) mutable {
    const Micros cost = service_time_ ? service_time_(req) : 0;
    auto dispatch = [this, arrived_at, server_span, route,
                     req = std::move(req), params = std::move(params),
                     respond = std::move(respond),
                     release = std::move(release)]() mutable {
      requests_.inc(metrics_);
      obs::Histogram* latency = nullptr;
      if (metrics_ && route) {
        RouteMetrics& m = route_metrics(*route);
        m.requests->inc();
        latency = m.latency;
      }

      auto responder = [this, arrived_at, latency, server_span, route,
                        respond = std::move(respond),
                        release = std::move(release)](Response resp) {
        count_status(resp.status);
        if (latency) {
          // The server hop's context is the exemplar: an operator reading
          // a slow bucket in the snapshot jumps to GET /trace/<id> for
          // the exact request that landed there.
          latency->record(exec_.clock().now_us() - arrived_at, server_span,
                          route->pattern);
        }
        if (server_span.valid()) {
          // Echo only our own canonical serialization, never the inbound
          // header bytes, and close the server hop.
          resp.headers[obs::kTraceHeaderName] =
              obs::format_trace_header(server_span);
          metrics_->tracer().end(server_span);
        }
        respond(serialize(resp));
        release();
      };
      if (!route) {
        responder(Response::error(404, "no route for " + req.path));
        return;
      }
      try {
        // Handlers (and everything they call synchronously) see this
        // request's context as the ambient trace.
        const obs::ScopedTrace scope(server_span);
        route->handler(req, params, responder);
      } catch (const Error& e) {
        AMNESIA_ERROR("websvc") << "handler threw: " << e.what();
        responder(Response::error(500, "internal error"));
      }
    };
    if (cost > 0) {
      exec_.run_after(cost, std::move(dispatch));
    } else {
      dispatch();
    }
  });
}

void HttpServer::bind(simnet::Node& node) {
  node.set_rpc_handler([this](const simnet::NodeId& /*from*/,
                              const Bytes& body,
                              std::function<void(Bytes)> respond) {
    handle_bytes(body, std::move(respond));
  });
}

}  // namespace amnesia::websvc
