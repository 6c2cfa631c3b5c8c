#include "websvc/server.h"

#include <memory>

#include "common/error.h"
#include "common/logging.h"

namespace amnesia::websvc {

HttpServer::HttpServer(net::Executor& exec, int workers)
    : exec_(exec), pool_(exec, workers) {}

void HttpServer::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  pool_.set_metrics(registry);
}

void HttpServer::count_status(int status) {
  if (status >= 500) {
    ++stats_.responses_5xx;
  } else if (status >= 400) {
    ++stats_.responses_4xx;
  } else {
    ++stats_.responses_2xx;
  }
}

void HttpServer::note_stream_parse_error() {
  ++stats_.parse_errors;
  if (metrics_) metrics_->counter("http.parse_errors").inc();
}

void HttpServer::handle_bytes(const Bytes& wire,
                              std::function<void(Bytes)> respond) {
  ++stats_.requests;
  Request req;
  try {
    req = parse_request(wire);
  } catch (const FormatError& e) {
    ++stats_.parse_errors;
    ++stats_.responses_4xx;
    if (metrics_) metrics_->counter("http.parse_errors").inc();
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
      if (metrics_) metrics_->counter("http.trace_headers_rejected").inc();
    }
  }

  // Metrics-exempt routes (the /metrics exporter) are served outside the
  // worker pool and without instrumentation, so that exporting a snapshot
  // neither perturbs pool occupancy nor mutates the registry it reports.
  if (!metrics_exempt_.empty()) {
    PathParams params;
    std::string pattern;
    const Handler* found = router_.find(req, params, &pattern);
    if (found && metrics_exempt_.contains(pattern)) {
      Handler handler = *found;
      auto responder = [this, respond = std::move(respond)](Response resp) {
        count_status(resp.status);
        respond(serialize(resp));
      };
      try {
        handler(req, params, responder);
      } catch (const Error& e) {
        AMNESIA_ERROR("websvc") << "exempt handler threw: " << e.what();
        responder(Response::error(500, "internal error"));
      }
      return;
    }
  }

  // Load shedding: reject rather than queue unboundedly. An early 503
  // with Retry-After costs the client one cheap round instead of a worker
  // queue slot held for seconds (graceful degradation under overload).
  if (shed_max_queue_ > 0 && pool_.busy() >= pool_.workers() &&
      pool_.queue_depth() >= shed_max_queue_) {
    ++stats_.requests_shed;
    count_status(503);
    if (metrics_) {
      metrics_->counter("resilience.requests_shed").inc();
      metrics_->counter("http.responses_5xx").inc();
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
    server_span = tracer.start_span("http.server", trace_component_, remote);
    tracer.add_attribute(server_span, "path", req.path);
  }

  const Micros arrived_at = exec_.clock().now_us();
  pool_.submit([this, arrived_at, server_span, req = std::move(req),
                respond = std::move(respond)](
                   std::function<void()> release) mutable {
    const Micros cost = service_time_ ? service_time_(req) : 0;
    auto dispatch = [this, arrived_at, server_span, req = std::move(req),
                     respond = std::move(respond),
                     release = std::move(release)]() mutable {
      // Resolve the route up front so the responder can label metrics by
      // the registration pattern (bounded cardinality) rather than the
      // raw request path.
      PathParams params;
      std::string pattern;
      const Handler* handler = router_.find(req, params, &pattern);

      const bool observe =
          metrics_ && (!handler || !metrics_exempt_.contains(pattern));
      obs::Histogram* latency = nullptr;
      if (observe) metrics_->counter("http.requests").inc();
      if (observe && handler) {
        const std::string route =
            std::string(method_name(req.method)) + ":" + pattern;
        metrics_->counter("http.route." + route + ".requests").inc();
        latency = &metrics_->histogram("http.route." + route + ".latency_us");
      }

      auto responder = [this, arrived_at, observe, latency, server_span,
                        pattern,
                        respond = std::move(respond),
                        release = std::move(release)](Response resp) {
        count_status(resp.status);
        if (observe) {
          if (resp.status >= 500) {
            metrics_->counter("http.responses_5xx").inc();
          } else if (resp.status >= 400) {
            metrics_->counter("http.responses_4xx").inc();
          } else {
            metrics_->counter("http.responses_2xx").inc();
          }
        }
        if (latency) {
          // The server hop's context is the exemplar: an operator reading
          // a slow bucket in the snapshot jumps to GET /trace/<id> for
          // the exact request that landed there.
          latency->record(exec_.clock().now_us() - arrived_at, server_span,
                          pattern);
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
      if (!handler) {
        responder(Response::error(404, "no route for " + req.path));
        return;
      }
      try {
        // Handlers (and everything they call synchronously) see this
        // request's context as the ambient trace.
        const obs::ScopedTrace scope(server_span);
        (*handler)(req, params, responder);
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
