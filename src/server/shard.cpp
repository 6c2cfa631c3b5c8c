#include "server/shard.h"

#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/error.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "resilience/fault.h"

namespace amnesia::server {

using websvc::Method;
using websvc::Request;
using websvc::Response;

namespace {

Response concatenated(const std::vector<std::string>& parts) {
  std::string body;
  for (const std::string& part : parts) body += part;
  return Response::ok_text(std::move(body));
}

/// An endpoint every shard serves for its own slice of the state.
struct Aggregate {
  Method method;
  std::string_view path;  // ending in '/': matches any path below it
  Response (*merge)(const std::vector<std::string>& parts);
};

// The aggregate endpoints, listed once: route_target() and handle() both
// read this table.
const Aggregate kAggregates[] = {
    {Method::kGet, "/metrics",
     [](const std::vector<std::string>& parts) {
       obs::Snapshot merged;
       for (const std::string& part : parts) {
         if (!part.empty()) obs::merge_snapshot(merged, obs::parse_text(part));
       }
       return Response::ok_text(obs::to_text(merged));
     }},
    {Method::kGet, "/trace/",
     [](const std::vector<std::string>& parts) {
       for (const std::string& part : parts) {
         if (!part.empty()) {
           return Response::ok_text(obs::merge_trace_json(parts));
         }
       }
       return Response::error(404, "unknown trace");
     }},
    {Method::kGet, "/events", concatenated},
    // Each shard's /profile keeps only its own reactor thread's samples,
    // so summing the legs never double-counts one.
    {Method::kGet, "/profile",
     [](const std::vector<std::string>& parts) {
       return Response::ok_text(obs::merge_collapsed(parts));
     }},
    {Method::kGet, "/slowlog", concatenated},
    // Parked payloads stay until TTL and the phone dedups by request id,
    // so concatenation (even with a leg missing) keeps the at-least-once
    // contract.
    {Method::kPost, "/push/poll", concatenated},
};

const Aggregate* find_aggregate(const Request& req) {
  for (const Aggregate& agg : kAggregates) {
    if (req.method != agg.method) continue;
    if (agg.path.ends_with('/') ? req.path.starts_with(agg.path)
                                : req.path == agg.path) {
      return &agg;
    }
  }
  return nullptr;
}

}  // namespace

std::size_t shard_of_user(const std::string& user, std::size_t shard_count) {
  // FNV-1a 64: tiny, dependency-free, and stable — the same user must
  // land on the same shard from every process, platform, and transport.
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : user) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return shard_count <= 1 ? 0 : static_cast<std::size_t>(h % shard_count);
}

std::string shard_token_prefix(std::size_t index, std::size_t shard_count) {
  if (shard_count <= 1) return "";
  return "s" + std::to_string(index) + ".";
}

std::optional<std::size_t> shard_of_token(const std::string& token,
                                          std::size_t shard_count) {
  if (token.size() < 3 || token[0] != 's') return std::nullopt;
  const std::size_t dot = token.find('.');
  if (dot == std::string::npos || dot < 2) return std::nullopt;
  std::size_t index = 0;
  for (std::size_t i = 1; i < dot; ++i) {
    const char c = token[i];
    if (c < '0' || c > '9') return std::nullopt;
    index = index * 10 + static_cast<std::size_t>(c - '0');
    if (index >= shard_count) return std::nullopt;
  }
  return index;
}

std::optional<std::size_t> shard_of_request_id(std::uint64_t request_id,
                                               std::size_t shard_count) {
  if (request_id == 0) return std::nullopt;
  return static_cast<std::size_t>((request_id - 1) % shard_count);
}

ShardRouter::ShardRouter(std::vector<ShardRef> shards)
    : shards_(std::move(shards)) {
  if (shards_.empty()) throw Error("ShardRouter: needs at least one shard");
  if (shards_.size() == 1) return;  // stock wiring stays bit-identical
  counters_.reserve(shards_.size());
  for (ShardRef& shard : shards_) {
    obs::MetricsRegistry& m = shard.server->metrics();
    counters_.push_back(ShardCounters{
        &m.counter("shard.forwarded_out"),
        &m.counter("shard.forwarded_in"),
        &m.counter("shard.scatter_ops"),
        &m.counter("shard.mailbox_dropped"),
    });
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].server->secure().set_handler(
        [this, i](const Bytes& plain, std::function<void(Bytes)> respond) {
          handle(i, plain, std::move(respond));
        });
  }
}

ShardRouter::~ShardRouter() {
  if (shards_.size() == 1) return;
  for (ShardRef& shard : shards_) {
    AmnesiaServer* server = shard.server;
    server->secure().set_handler(
        [server](const Bytes& plain, std::function<void(Bytes)> respond) {
          server->http().handle_bytes(plain, std::move(respond));
        });
  }
}

std::optional<std::size_t> ShardRouter::route_target(const Request& req,
                                                     std::size_t origin) const {
  const std::size_t n = shards_.size();
  const std::string& path = req.path;
  if (find_aggregate(req)) return std::nullopt;  // every shard answers
  if (path == "/signup" || path == "/login" || path == "/pair/complete" ||
      path == "/recover/mp/confirm") {
    const auto form = req.form();
    const auto it = form.find("user");
    // Missing field: handle locally so the stock 400 comes back.
    return it == form.end() ? origin : shard_of_user(it->second, n);
  }
  if (path == "/token" || path == "/token/decline") {
    const auto form = req.form();
    const auto it = form.find("request_id");
    if (it != form.end()) {
      try {
        if (const auto k = shard_of_request_id(std::stoull(it->second), n)) {
          return *k;
        }
      } catch (const std::exception&) {
        // malformed id: local shard produces the stock 400
      }
    }
    return origin;
  }
  if (const auto token = req.cookie("session")) {
    if (const auto k = shard_of_token(*token, n)) return *k;
  }
  return origin;  // unauthenticated / untagged: the stock 401 is local
}

void ShardRouter::handle(std::size_t origin, const Bytes& plain,
                         std::function<void(Bytes)> respond) {
  Request req;
  try {
    req = websvc::parse_request(plain);
  } catch (const FormatError&) {
    // Unparseable bytes can't name an owner; the local HttpServer turns
    // them into the same 400 the single-shard server would.
    shards_[origin].server->http().handle_bytes(plain, std::move(respond));
    return;
  }
  if (const Aggregate* agg = find_aggregate(req)) {
    scatter(origin, plain, agg->merge, std::move(respond));
    return;
  }
  const auto target = route_target(req, origin);
  if (!target || *target == origin) {
    shards_[origin].server->http().handle_bytes(plain, std::move(respond));
    return;
  }
  forward(origin, *target, plain, std::move(respond));
}

void ShardRouter::forward(std::size_t origin, std::size_t target,
                          const Bytes& plain,
                          std::function<void(Bytes)> respond) {
  if (const auto fault = resilience::fault_check("shard.mailbox.forward")) {
    counters_[origin].mailbox_dropped->inc();
    if (fault->kind == resilience::FaultKind::kError) {
      respond(websvc::serialize(
          Response::error(503, "shard mailbox unavailable")));
    }
    return;  // kDrop: silent loss; the client's retry re-sends
  }
  counters_[origin].forwarded_out->inc();
  // Copy: `plain` aliases the secure channel's reused scratch buffer,
  // which the accepting thread overwrites on its next record.
  Bytes copy = plain;
  const obs::TraceContext trace = obs::current_trace();
  net::Executor* origin_exec = shards_[origin].exec;
  shards_[target].exec->post([this, origin_exec, target, trace,
                              copy = std::move(copy),
                              respond = std::move(respond)]() mutable {
    counters_[target].forwarded_in->inc();
    // The request bytes carry X-Amnesia-Trace too; re-establishing the
    // ambient context keeps spans opened outside the HTTP layer parented.
    obs::ScopedTrace scoped(trace);
    NetGateway* gw = shards_[target].gateway;
    if (gw) gw->pump();
    shards_[target].server->http().handle_bytes(
        copy, [this, target, origin_exec,
               respond = std::move(respond)](Bytes response) mutable {
          if (resilience::fault_check("shard.mailbox.reply")) {
            counters_[target].mailbox_dropped->inc();
            return;  // reply lost in the mailbox; the client retries
          }
          origin_exec->post(
              [respond = std::move(respond),
               response = std::move(response)]() mutable {
                respond(std::move(response));
              });
        });
    if (gw) gw->pump();
  });
}

void ShardRouter::scatter(std::size_t origin, const Bytes& plain, Merge merge,
                          std::function<void(Bytes)> respond) {
  counters_[origin].scatter_ops->inc();
  struct State {
    std::vector<Bytes> legs;  // raw responses; a lost leg stays empty
    std::size_t remaining;
    Merge merge;
    std::function<void(Bytes)> respond;
  };
  auto state = std::make_shared<State>(
      State{std::vector<Bytes>(shards_.size()), shards_.size(), merge,
            std::move(respond)});
  // Runs on the origin thread; lands leg k and answers after the last.
  auto land = [state](std::size_t k, Bytes leg) {
    state->legs[k] = std::move(leg);
    if (--state->remaining > 0) return;
    std::vector<std::string> parts;
    parts.reserve(state->legs.size());
    for (const Bytes& raw : state->legs) {
      Response leg_resp;
      try {
        leg_resp = websvc::parse_response(raw);
      } catch (const FormatError&) {
        parts.emplace_back();  // lost in the mailbox (no bytes): empty part
        continue;
      }
      if (leg_resp.status == 400) {
        // Every shard parses the request alike: one 400 speaks for all.
        state->respond(raw);
        return;
      }
      parts.push_back(leg_resp.status == 200 ? std::move(leg_resp.body)
                                             : std::string());
    }
    state->respond(websvc::serialize(state->merge(parts)));
  };
  // Every leg needs the request bytes on its own thread; one shared copy.
  auto wire = std::make_shared<const Bytes>(plain);
  net::Executor* origin_exec = shards_[origin].exec;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    if (k == origin) {
      shards_[k].server->http().handle_bytes(
          *wire, [land, k](Bytes raw) { land(k, std::move(raw)); });
      continue;
    }
    if (resilience::fault_check("shard.mailbox.forward")) {
      counters_[origin].mailbox_dropped->inc();
      land(k, Bytes{});
      continue;
    }
    shards_[k].exec->post([this, k, origin_exec, wire, land] {
      NetGateway* gw = shards_[k].gateway;
      if (gw) gw->pump();
      shards_[k].server->http().handle_bytes(
          *wire, [this, k, origin_exec, land](Bytes raw) {
            if (resilience::fault_check("shard.mailbox.reply")) {
              counters_[k].mailbox_dropped->inc();
              raw.clear();
            }
            origin_exec->post([land, k, raw = std::move(raw)]() mutable {
              land(k, std::move(raw));
            });
          });
      if (gw) gw->pump();
    });
  }
}

}  // namespace amnesia::server
