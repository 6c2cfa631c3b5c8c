// net::RpcPeer against hand-built frames over a simulated stream pair.
// Every frame is [kind][corr:8][trace_len][trace][body]. A frame that is
// torn (shorter than its header, or a trace running past its end) or of
// an unknown kind closes the stream and fails what is pending, and a
// hostile trace never becomes the handler's context or comes back in the
// response. Empty and valid traces round-trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/framing.h"
#include "net/rpc.h"
#include "obs/trace.h"
#include "simnet/stream.h"

namespace amnesia::net {
namespace {

constexpr std::uint8_t kRequest = 0;
constexpr std::uint8_t kResponse = 1;

// Long enough for any frame to cross the wire, far short of the 10 s
// request timeout — so a failed request was failed by the close.
constexpr Micros kSettleUs = 1'000'000;

/// A frame payload, with `trace_len` free to disagree with `trace`.
Bytes payload(std::uint8_t kind, std::uint64_t corr, std::size_t trace_len,
              std::string_view trace, std::string_view body) {
  Bytes out{kind};
  for (int i = 7; i >= 0; --i) {
    out.push_back(static_cast<std::uint8_t>(corr >> (8 * i)));
  }
  out.push_back(static_cast<std::uint8_t>(trace_len));
  out.insert(out.end(), trace.begin(), trace.end());
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

Bytes payload(std::uint8_t kind, std::uint64_t corr, std::string_view trace,
              std::string_view body) {
  return payload(kind, corr, trace.size(), trace, body);
}

/// The far end of the wire: reads frames and writes raw bytes.
struct RawEnd {
  StreamPtr stream;
  FrameDecoder decoder;
  std::vector<Bytes> frames;
  bool closed = false;

  void attach(StreamPtr s) {
    stream = std::move(s);
    stream->set_handlers(
        {[this](ByteView chunk) {
           decoder.feed(chunk, [this](ByteView frame) {
             frames.emplace_back(frame.begin(), frame.end());
           });
         },
         [this] { closed = true; }});
  }
  void send(ByteView frame_payload) {
    stream->send(encode_frame(frame_payload));
  }
};

struct Wire {
  simnet::Simulation sim{42};
  simnet::Network net{sim};
  simnet::SimStreamTransport server{net, "server"};
  simnet::SimStreamTransport client{net, "client", "server"};
};

// ----------------------------------------------- torn and unknown frames

TEST(RpcHostileFrames, TornOrUnknownResponseClosesAndFailsPending) {
  const std::vector<std::pair<std::string, Bytes>> hostile = {
      {"shorter than the header", Bytes{kResponse, 0, 0, 0, 0}},
      {"trace past the end", payload(kResponse, 1, 200, "", "0123456789")},
      {"unknown kind", payload(7, 1, "", "body")},
  };
  for (const auto& [what, bytes] : hostile) {
    Wire w;
    RawEnd raw;
    w.server.listen([&](StreamPtr s) { raw.attach(std::move(s)); });
    std::shared_ptr<RpcPeer> peer;
    w.client.connect([&](Result<StreamPtr> s) {
      ASSERT_TRUE(s.ok());
      peer = RpcPeer::attach(std::move(s).take(), w.client.executor());
    });
    ASSERT_NE(peer, nullptr);

    std::vector<std::string> failures;
    const auto expect_failure = [&](Result<Bytes> r) {
      ASSERT_FALSE(r.ok()) << what;
      EXPECT_EQ(r.failure().code, Err::kUnavailable) << what;
      failures.push_back(r.failure().message);
    };
    peer->request(to_bytes("ping"), expect_failure);
    peer->request(to_bytes("ping again"), expect_failure);
    w.sim.run_until(w.sim.now() + kSettleUs);
    ASSERT_EQ(raw.frames.size(), 2u) << what;
    // With no ambient trace the request still carries the trace field,
    // at length 0.
    EXPECT_EQ(raw.frames[0], payload(kRequest, 1, "", "ping")) << what;

    raw.send(bytes);
    w.sim.run_until(w.sim.now() + kSettleUs);
    EXPECT_TRUE(peer->closed()) << what;
    EXPECT_EQ(failures,
              (std::vector<std::string>{"rpc peer closed", "rpc peer closed"}))
        << what << ": every pending request fails";
    EXPECT_TRUE(raw.closed) << what << ": the far end sees the stream close";
  }
}

TEST(RpcHostileFrames, TornRequestClosesTheServingPeer) {
  Wire w;
  std::shared_ptr<RpcPeer> peer;
  bool served = false;
  w.server.listen([&](StreamPtr s) {
    peer = RpcPeer::attach(std::move(s), w.server.executor());
    peer->set_handler([&](const Bytes&, std::function<void(Bytes)>) {
      served = true;
    });
  });
  RawEnd raw;
  w.client.connect([&](Result<StreamPtr> s) {
    ASSERT_TRUE(s.ok());
    raw.attach(std::move(s).take());
  });
  raw.send(payload(kRequest, 1, 60, std::string(10, 'a'), ""));
  w.sim.run_until(w.sim.now() + kSettleUs);
  ASSERT_NE(peer, nullptr);
  EXPECT_TRUE(peer->closed());
  EXPECT_FALSE(served) << "a torn request must never reach the handler";
  EXPECT_TRUE(raw.closed);
}

// ------------------------------------------------------ request traces

/// A serving peer that records the ambient trace its handler ran under
/// and answers "pong".
struct EchoServer {
  Wire w;
  std::shared_ptr<RpcPeer> peer;
  RawEnd raw;
  std::vector<obs::TraceContext> seen;

  EchoServer() {
    w.server.listen([this](StreamPtr s) {
      peer = RpcPeer::attach(std::move(s), w.server.executor());
      peer->set_handler([this](const Bytes& body,
                               std::function<void(Bytes)> respond) {
        EXPECT_EQ(to_string(body), "ping");
        seen.push_back(obs::current_trace());
        respond(to_bytes("pong"));
      });
    });
    w.client.connect([this](Result<StreamPtr> s) {
      ASSERT_TRUE(s.ok());
      raw.attach(std::move(s).take());
    });
  }

  /// Sends one request with `trace`; returns the response payload.
  Bytes call(std::uint64_t corr, std::string_view trace) {
    raw.send(payload(kRequest, corr, trace, "ping"));
    const std::size_t before = raw.frames.size();
    w.sim.run_until(w.sim.now() + kSettleUs);
    EXPECT_EQ(raw.frames.size(), before + 1);
    return raw.frames.empty() ? Bytes{} : raw.frames.back();
  }
};

TEST(RpcRequestTrace, HostileTraceIsNeitherAmbientNorReflected) {
  EchoServer s;
  // 255 bytes: the longest trace the length byte allows, and no context.
  const std::string hostile(255, 'Z');
  EXPECT_EQ(s.call(9, hostile), payload(kResponse, 9, "", "pong"));
  ASSERT_EQ(s.seen.size(), 1u);
  EXPECT_FALSE(s.seen[0].valid());
  EXPECT_FALSE(s.peer->closed());
}

TEST(RpcRequestTrace, EmptyTraceGetsItsResponse) {
  EchoServer s;
  EXPECT_EQ(s.call(3, ""), payload(kResponse, 3, "", "pong"));
  ASSERT_EQ(s.seen.size(), 1u);
  EXPECT_FALSE(s.seen[0].valid());
}

TEST(RpcRequestTrace, ValidTraceIsAmbientAndEchoedCanonically) {
  EchoServer s;
  const obs::TraceContext ctx{obs::TraceId{0x1234, 0x5678}, 0x9abc, true};
  const std::string header = obs::format_trace_header(ctx);
  EXPECT_EQ(s.call(4, header), payload(kResponse, 4, header, "pong"));
  ASSERT_EQ(s.seen.size(), 1u);
  EXPECT_EQ(s.seen[0].trace_id, ctx.trace_id);
  EXPECT_EQ(s.seen[0].span_id, ctx.span_id);
  EXPECT_TRUE(s.seen[0].sampled);
}

}  // namespace
}  // namespace amnesia::net
