// Request/response RPC over a ByteStream.
//
// Each frame payload is [kind:1][corr_id:8 big-endian][trace_len:1][trace]
// [body], with kind 0 = request and 1 = response. Correlation ids let
// one connection carry pipelined requests whose responses complete out of
// order (the Amnesia server answers a password request only after the
// phone round-trip, while later requests on the same connection finish
// immediately). The trace is the sender's serialized obs::TraceContext,
// empty when none is ambient; a request's context becomes the handler's
// ambient trace, and its response carries the canonical re-serialization
// (or nothing, when the inbound bytes did not parse). The body bytes
// (securechan envelopes, serialized HTTP) are the ones a simnet::Node RPC
// pipe carries, so either backend serves the same protocol.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>

#include "common/bytes.h"
#include "common/result.h"
#include "net/framing.h"
#include "net/transport.h"
#include "resilience/policy.h"

namespace amnesia::obs {
class MetricsRegistry;
}

namespace amnesia::net {

using ResponseHandler = std::function<void(Result<Bytes>)>;

constexpr Micros kDefaultRpcTimeoutUs = 10'000'000;  // 10 s, as simnet::Node

/// One framed RPC endpoint bound to a stream. Symmetric: it can issue
/// requests and serve them (the gateway uses handler mode; RpcClient uses
/// request mode). Owners hold the shared_ptr; stream callbacks hold weak
/// references, so dropping the owner tears the peer down.
class RpcPeer : public std::enable_shared_from_this<RpcPeer> {
 public:
  /// Server-side handler; `respond` may be stored and called later (at
  /// most once), exactly like simnet::Node::RpcHandler.
  using Handler =
      std::function<void(const Bytes& body, std::function<void(Bytes)> respond)>;

  static std::shared_ptr<RpcPeer> attach(StreamPtr stream, Executor& executor);

  ~RpcPeer() = default;

  void set_handler(Handler handler) { handler_ = std::move(handler); }
  /// Invoked when the underlying stream closes (peer FIN, error, idle
  /// timeout). Pending requests have already been failed at this point.
  void set_on_close(std::function<void()> fn) { on_close_ = std::move(fn); }

  /// Issues one request; `cb` gets the response body, or kUnavailable on
  /// timeout / close. `trace` is a serialized obs::TraceContext for the
  /// frame metadata (empty = capture the ambient context; the frame's
  /// trace stays empty when none is active).
  void request(Bytes body, ResponseHandler cb,
               Micros timeout_us = kDefaultRpcTimeoutUs,
               std::string trace = {});

  /// Closes the stream and fails all pending requests.
  void close();
  bool closed() const { return closed_; }
  ByteStream& stream() { return *stream_; }

 private:
  RpcPeer(StreamPtr stream, Executor& executor)
      : stream_(std::move(stream)), executor_(executor) {}

  void on_data(ByteView chunk);
  void on_frame(ByteView frame);
  void on_stream_close();
  void fail_pending(const std::string& reason);
  bool send_frame(std::uint8_t kind, std::uint64_t corr,
                  std::string_view trace, ByteView body);

  StreamPtr stream_;
  Executor& executor_;
  FrameDecoder decoder_;
  Handler handler_;
  std::function<void()> on_close_;
  std::map<std::uint64_t, ResponseHandler> pending_;
  std::uint64_t next_corr_ = 1;
  bool closed_ = false;
  Bytes frame_scratch_;  // reused per outbound frame
};

/// Per-client retry policy for RpcClient (opt-in; off by default so
/// non-idempotent callers are never surprised). Retries fire only on
/// kUnavailable failures — timeouts, refused/closed connections.
struct RpcRetryConfig {
  resilience::BackoffConfig backoff{};
  std::uint64_t seed = 0;
  /// Optional shared breaker (caller-owned, must outlive the client).
  resilience::CircuitBreaker* breaker = nullptr;
  /// Optional shared retry budget (caller-owned).
  resilience::RetryBudget* budget = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Per-request deadline budget; each attempt's RPC timeout is clamped
  /// to what remains. 0 = no overall deadline (per-attempt timeout only).
  Micros deadline_us = 0;
};

/// Client convenience: lazily connects a Transport, then behaves like a
/// Node::request pipe. Requests issued before the connection completes are
/// queued and flushed, mirroring SecureClient's pre-handshake queue.
class RpcClient {
 public:
  explicit RpcClient(Transport& transport,
                     Micros timeout_us = kDefaultRpcTimeoutUs);
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  void request(Bytes body, ResponseHandler cb);

  /// Enables retries for subsequent request() calls. The underlying
  /// reconnect-on-demand path makes a retry after a connection failure
  /// dial fresh.
  void set_retry(RpcRetryConfig config) { retry_ = std::move(config); }

  /// Adapter with the shape securechan::SecureClient and
  /// websvc::ByteTransport expect. The RpcClient must outlive the
  /// returned function.
  std::function<void(Bytes, ResponseHandler)> wire();

  bool connected() const { return peer_ != nullptr && !peer_->closed(); }
  void close();
  RpcPeer* peer() { return peer_.get(); }

 private:
  void start_connect();
  void flush_waiting();
  /// One attempt: the pre-retry request() body.
  void request_once(Bytes body, ResponseHandler cb, Micros timeout_us,
                    std::string trace);

  Transport& transport_;
  Micros timeout_us_;
  std::shared_ptr<RpcPeer> peer_;
  bool connecting_ = false;
  /// body, callback, timeout, serialized trace context (captured when the
  /// caller issued the request — the ambient context is gone by the time
  /// the connect callback flushes the queue).
  std::deque<std::tuple<Bytes, ResponseHandler, Micros, std::string>> waiting_;
  std::optional<RpcRetryConfig> retry_;
  std::uint64_t retry_calls_ = 0;  // per-call jitter stream derivation
};

}  // namespace amnesia::net
