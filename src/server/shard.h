// ShardRouter: shard-per-core deployment of the Amnesia server.
//
// The server is replicated into N shared-nothing shards. Each shard owns a
// full AmnesiaServer (routes, sessions, rendezvous, storage) plus the
// reactor it runs on; users are partitioned by hash(user) % N and a
// user's sessions, pending protocol rounds, poll queues, and database
// rows live on exactly one shard. Nothing is protected by a shared lock:
// the only way work crosses a shard boundary is an explicit message
// posted onto the owning shard's Executor (the eventfd wakeup channel of
// its EventLoop, or schedule-at-now on the shared Simulation in
// deterministic tests).
//
// The router hooks each shard's SecureServer plaintext handler. Decrypted
// requests are routed by whichever identity the route carries:
//
//   form `user`        /signup /login /pair/complete /recover/mp/confirm
//                      -> hash(user) % N
//   form `request_id`  /token /token/decline -> issuing shard, recovered
//                      from the id itself (shard k issues k+1, k+1+N, ...)
//   session cookie     every authenticated route -> the shard tag minted
//                      into the token ("s2.<hex>")
//   aggregates         replayed on every shard, and the legs' bodies
//                      merged into one answer (table in shard.cpp):
//                        GET  /metrics     obs::merge_snapshot of the texts
//                        GET  /trace/<id>  obs::merge_trace_json
//                        GET  /events      JSON lines, concatenated
//                        GET  /profile     obs::merge_collapsed
//                        GET  /slowlog     JSON lines, concatenated
//                        POST /push/poll   payloads, concatenated (the
//                                          registration id is an opaque
//                                          bearer token; its parked
//                                          payloads live wherever the
//                                          owning user does)
//
// Each leg replays the request bytes through that shard's own route, so
// query strings (?level= ?since= ?ms=) and forms are parsed there. One
// status rule folds the legs: a 400 from any leg answers for all (every
// shard parses the request alike); any other non-200 leg — shed, no such
// trace, or lost in the mailbox — is an empty part. /trace/<id> answers
// 404 when every part is empty.
//
// Anything unroutable (malformed request, missing field, untagged cookie)
// is handled locally — the shard that accepted the connection produces
// the same 4xx the single-shard server would.
//
// Mailbox fault points (docs/RESILIENCE.md): `shard.mailbox.forward` on
// the request leg (kError -> 503 to the client, kDrop -> silent loss) and
// `shard.mailbox.reply` on the response leg (any fault -> the reply is
// lost; an aggregate leg becomes an empty part, so the answer degrades
// rather than hangs). Clients already retry on both.
//
// N == 1 installs nothing: the stock SecureServer -> HttpServer wiring is
// untouched and behaviour stays bit-identical to the unsharded server.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "net/executor.h"
#include "server/gateway.h"
#include "server/server_app.h"
#include "websvc/http.h"

namespace amnesia::server {

/// hash(user) % shard_count — FNV-1a 64, stable across platforms so a
/// user's shard never moves between runs or transports.
std::size_t shard_of_user(const std::string& user, std::size_t shard_count);

/// Session-token prefix shard `index` mints ("s2."); empty for a
/// single-shard deployment so tokens stay byte-identical to before.
std::string shard_token_prefix(std::size_t index, std::size_t shard_count);

/// Recovers the owning shard from a token's prefix; nullopt if the token
/// carries no (valid) tag.
std::optional<std::size_t> shard_of_token(const std::string& token,
                                          std::size_t shard_count);

/// Recovers the issuing shard from a request id (shard k issues ids
/// k+1, k+1+N, ...); nullopt for id 0, which no shard ever issues.
std::optional<std::size_t> shard_of_request_id(std::uint64_t request_id,
                                               std::size_t shard_count);

/// One shard as the router sees it.
struct ShardRef {
  AmnesiaServer* server = nullptr;
  /// Where this shard's work must run: its EventLoop in the multi-reactor
  /// deployment, or the shared Simulation in deterministic tests.
  net::Executor* exec = nullptr;
  /// Pumped before forwarded work runs, so the request sees the shard's
  /// current virtual time; null when `exec` is the simulation itself.
  ClockBridge* bridge = nullptr;
};

class ShardRouter {
 public:
  /// Installs the routing handler on every shard's SecureServer (no-op
  /// for a single shard). The router must outlive the servers' traffic.
  explicit ShardRouter(std::vector<ShardRef> shards);
  /// Restores every shard's stock SecureServer -> HttpServer handler, so
  /// the servers may outlive the router (teardown choreography).
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  std::size_t size() const { return shards_.size(); }

  /// Routing decision for one parsed request arriving on `origin`
  /// (exposed for tests; aggregate endpoints return nullopt).
  std::optional<std::size_t> route_target(const websvc::Request& req,
                                          std::size_t origin) const;

 private:
  struct ShardCounters {
    obs::Counter* forwarded_out = nullptr;
    obs::Counter* forwarded_in = nullptr;
    obs::Counter* scatter_ops = nullptr;
    obs::Counter* mailbox_dropped = nullptr;
  };
  /// Folds the legs' 200 bodies (shard order; "" for an empty part).
  using Merge = websvc::Response (*)(const std::vector<std::string>& parts);

  void handle(std::size_t origin, const Bytes& plain,
              std::function<void(Bytes)> respond);
  void forward(std::size_t origin, std::size_t target, const Bytes& plain,
               std::function<void(Bytes)> respond);
  /// Replays `plain` on every shard and answers with `merge` of the legs,
  /// on the origin thread, once every leg has landed.
  void scatter(std::size_t origin, const Bytes& plain, Merge merge,
               std::function<void(Bytes)> respond);

  std::vector<ShardRef> shards_;
  std::vector<ShardCounters> counters_;
};

}  // namespace amnesia::server
