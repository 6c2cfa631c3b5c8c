#include "net/rpc.h"

#include <utility>

#include "common/logging.h"
#include "obs/trace.h"
#include "resilience/retry.h"

namespace amnesia::net {
namespace {

// Frame kinds, the values simnet::Node's RPC framing uses too.
constexpr std::uint8_t kRequest = 0;
constexpr std::uint8_t kResponse = 1;

// [kind:1][corr_id:8][trace_len:1]; the trace and the body follow.
constexpr std::size_t kRpcHeaderSize = 1 + 8 + 1;

std::uint64_t read_corr(ByteView frame) {
  std::uint64_t corr = 0;
  for (int i = 0; i < 8; ++i) {
    corr = (corr << 8) | frame[1 + static_cast<std::size_t>(i)];
  }
  return corr;
}

/// The ambient trace serialized for frame metadata; empty when inactive.
std::string ambient_trace_header() {
  const obs::TraceContext ctx = obs::current_trace();
  return ctx.valid() ? obs::format_trace_header(ctx) : std::string();
}

}  // namespace

// ---- RpcPeer -----------------------------------------------------------

std::shared_ptr<RpcPeer> RpcPeer::attach(StreamPtr stream, Executor& executor) {
  auto peer = std::shared_ptr<RpcPeer>(new RpcPeer(std::move(stream), executor));
  std::weak_ptr<RpcPeer> weak = peer;
  ByteStream::Handlers handlers;
  handlers.on_data = [weak](ByteView chunk) {
    if (auto self = weak.lock()) self->on_data(chunk);
  };
  handlers.on_close = [weak]() {
    if (auto self = weak.lock()) self->on_stream_close();
  };
  peer->stream_->set_handlers(std::move(handlers));
  return peer;
}

bool RpcPeer::send_frame(std::uint8_t kind, std::uint64_t corr,
                         std::string_view trace, ByteView body) {
  frame_scratch_.clear();
  const std::uint32_t len = static_cast<std::uint32_t>(
      kRpcHeaderSize + trace.size() + body.size());
  frame_scratch_.reserve(4 + len);
  frame_scratch_.push_back(static_cast<std::uint8_t>(len));
  frame_scratch_.push_back(static_cast<std::uint8_t>(len >> 8));
  frame_scratch_.push_back(static_cast<std::uint8_t>(len >> 16));
  frame_scratch_.push_back(static_cast<std::uint8_t>(len >> 24));
  frame_scratch_.push_back(kind);
  for (int i = 7; i >= 0; --i) {
    frame_scratch_.push_back(static_cast<std::uint8_t>(corr >> (8 * i)));
  }
  frame_scratch_.push_back(static_cast<std::uint8_t>(trace.size()));
  frame_scratch_.insert(frame_scratch_.end(), trace.begin(), trace.end());
  append(frame_scratch_, body);
  return stream_->send(frame_scratch_);
}

void RpcPeer::request(Bytes body, ResponseHandler cb, Micros timeout_us,
                      std::string trace) {
  if (closed_) {
    cb(Result<Bytes>(Err::kUnavailable, "rpc peer closed"));
    return;
  }
  if (trace.empty()) trace = ambient_trace_header();
  if (trace.size() > 255) trace.clear();  // cannot fit the u8 length prefix
  const std::uint64_t corr = next_corr_++;
  pending_[corr] = std::move(cb);
  if (!send_frame(kRequest, corr, trace, body)) {
    // Backpressure overflow closed the stream; on_stream_close has already
    // failed every pending request (including this one).
    return;
  }
  std::weak_ptr<RpcPeer> weak = weak_from_this();
  executor_.run_after(timeout_us, [weak, corr]() {
    auto self = weak.lock();
    if (!self) return;
    auto it = self->pending_.find(corr);
    if (it == self->pending_.end()) return;
    ResponseHandler cb = std::move(it->second);
    self->pending_.erase(it);
    cb(Result<Bytes>(Err::kUnavailable, "rpc timeout"));
  });
}

void RpcPeer::on_data(ByteView chunk) {
  auto self = shared_from_this();  // keep alive across sink callbacks
  if (!decoder_.feed(chunk, [this](ByteView frame) { on_frame(frame); })) {
    AMNESIA_ERROR("net.rpc") << decoder_.error() << "; closing stream";
    close();
  }
}

void RpcPeer::on_frame(ByteView frame) {
  // A runt header, or a trace running past the frame: the stream is corrupt.
  if (frame.size() < kRpcHeaderSize ||
      frame.size() < kRpcHeaderSize + frame[kRpcHeaderSize - 1]) {
    AMNESIA_ERROR("net.rpc") << "torn frame (" << frame.size()
                             << " bytes); closing stream";
    close();
    return;
  }
  const std::uint8_t kind = frame[0];
  const std::uint64_t corr = read_corr(frame);
  const ByteView trace =
      frame.subspan(kRpcHeaderSize, frame[kRpcHeaderSize - 1]);
  const ByteView body = frame.subspan(kRpcHeaderSize + trace.size());

  if (kind == kResponse) {
    auto it = pending_.find(corr);
    if (it == pending_.end()) return;  // late response after timeout
    ResponseHandler cb = std::move(it->second);
    pending_.erase(it);
    cb(Result<Bytes>(Bytes(body.begin(), body.end())));
    return;
  }
  if (kind == kRequest) {
    // An unparseable context is dropped: the handler starts fresh roots
    // and the response carries no trace, so nothing hostile is echoed.
    obs::TraceContext remote;
    std::string canonical_trace;
    if (const auto parsed = obs::parse_trace_header(std::string_view(
            reinterpret_cast<const char*>(trace.data()), trace.size()))) {
      remote = *parsed;
      canonical_trace = obs::format_trace_header(remote);
    }
    if (!handler_) {
      AMNESIA_ERROR("net.rpc") << "request with no handler installed; dropping";
      return;
    }
    std::weak_ptr<RpcPeer> weak = weak_from_this();
    auto respond = [weak, corr, canonical_trace](Bytes response) {
      auto self = weak.lock();
      if (!self || self->closed_) return;  // connection died while serving
      self->send_frame(kResponse, corr, canonical_trace, response);
    };
    const obs::ScopedTrace scope(remote);
    handler_(Bytes(body.begin(), body.end()), std::move(respond));
    return;
  }
  AMNESIA_ERROR("net.rpc") << "unknown frame kind " << static_cast<int>(kind)
                           << "; closing stream";
  close();
}

void RpcPeer::fail_pending(const std::string& reason) {
  auto pending = std::move(pending_);
  pending_.clear();
  for (auto& [corr, cb] : pending) {
    cb(Result<Bytes>(Err::kUnavailable, reason));
  }
}

void RpcPeer::on_stream_close() {
  if (closed_) return;
  closed_ = true;
  fail_pending("connection closed");
  if (on_close_) {
    auto fn = std::move(on_close_);
    on_close_ = nullptr;
    fn();
  }
}

void RpcPeer::close() {
  if (closed_) return;
  closed_ = true;
  fail_pending("rpc peer closed");
  stream_->close();
  if (on_close_) {
    auto fn = std::move(on_close_);
    on_close_ = nullptr;
    fn();
  }
}

// ---- RpcClient ---------------------------------------------------------

RpcClient::RpcClient(Transport& transport, Micros timeout_us)
    : transport_(transport), timeout_us_(timeout_us) {}

RpcClient::~RpcClient() { close(); }

void RpcClient::request(Bytes body, ResponseHandler cb) {
  // Capture the ambient trace here: retry attempts and the lazy-connect
  // queue both run from executor callbacks with no ambient context.
  std::string trace = ambient_trace_header();
  if (!retry_) {
    request_once(std::move(body), std::move(cb), timeout_us_,
                 std::move(trace));
    return;
  }
  resilience::RetryOptions opts;
  opts.backoff = retry_->backoff;
  // Distinct deterministic jitter stream per logical call.
  opts.seed = retry_->seed + ++retry_calls_;
  if (retry_->deadline_us > 0) {
    opts.deadline = resilience::Deadline::after(transport_.executor().clock(),
                                                retry_->deadline_us);
  }
  opts.breaker = retry_->breaker;
  opts.budget = retry_->budget;
  opts.metrics = retry_->metrics;
  opts.op_name = "rpc";
  resilience::retry_async<Bytes>(
      transport_.executor(), std::move(opts),
      [this, body = std::move(body), trace = std::move(trace)](
          int /*attempt*/, resilience::Deadline deadline,
          std::function<void(Result<Bytes>)> done) {
        const Micros now = transport_.executor().clock().now_us();
        request_once(body, std::move(done), deadline.clamp(timeout_us_, now),
                     trace);
      },
      std::move(cb));
}

void RpcClient::request_once(Bytes body, ResponseHandler cb, Micros timeout_us,
                             std::string trace) {
  if (peer_ && !peer_->closed()) {
    peer_->request(std::move(body), std::move(cb), timeout_us,
                   std::move(trace));
    return;
  }
  waiting_.emplace_back(std::move(body), std::move(cb), timeout_us,
                        std::move(trace));
  if (!connecting_) start_connect();
}

std::function<void(Bytes, ResponseHandler)> RpcClient::wire() {
  return [this](Bytes body, ResponseHandler cb) {
    request(std::move(body), std::move(cb));
  };
}

void RpcClient::start_connect() {
  connecting_ = true;
  transport_.connect([this](Result<StreamPtr> stream) {
    connecting_ = false;
    if (!stream.ok()) {
      auto waiting = std::move(waiting_);
      waiting_.clear();
      const Failure& f = stream.failure();
      for (auto& [body, cb, timeout, trace] : waiting) {
        cb(Result<Bytes>(f.code, f.message));
      }
      return;
    }
    peer_ = RpcPeer::attach(std::move(stream).take(), transport_.executor());
    flush_waiting();
  });
}

void RpcClient::flush_waiting() {
  auto waiting = std::move(waiting_);
  waiting_.clear();
  for (auto& [body, cb, timeout, trace] : waiting) {
    peer_->request(std::move(body), std::move(cb), timeout, std::move(trace));
  }
}

void RpcClient::close() {
  if (peer_) {
    peer_->set_on_close(nullptr);
    peer_->close();
    peer_.reset();
  }
  auto waiting = std::move(waiting_);
  waiting_.clear();
  for (auto& [body, cb, timeout, trace] : waiting) {
    cb(Result<Bytes>(Err::kUnavailable, "rpc client closed"));
  }
}

}  // namespace amnesia::net
