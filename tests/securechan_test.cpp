// Secure channel: key schedule, record layer, handshake authentication,
// tamper/replay rejection, and HTTP-over-secure-channel integration.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/error.h"
#include "crypto/drbg.h"
#include "securechan/channel.h"
#include "simnet/network.h"
#include "storage/codec.h"
#include "simnet/node.h"
#include "simnet/sim.h"
#include "websvc/client.h"
#include "websvc/server.h"

namespace amnesia::securechan {
namespace {

TEST(KeySchedule, DirectionalKeysAreDistinct) {
  crypto::ChaChaDrbg rng(1);
  const Bytes ss = rng.bytes(32);
  const Bytes nc = rng.bytes(16);
  const Bytes ns = rng.bytes(16);
  const ChannelKeys keys = derive_keys(ss, nc, ns);
  EXPECT_EQ(keys.client_to_server_key.size(), 32u);
  EXPECT_EQ(keys.server_to_client_key.size(), 32u);
  EXPECT_EQ(keys.client_to_server_iv.size(), 12u);
  EXPECT_EQ(keys.server_to_client_iv.size(), 12u);
  EXPECT_NE(keys.client_to_server_key, keys.server_to_client_key);
  EXPECT_NE(keys.client_to_server_iv, keys.server_to_client_iv);
}

TEST(KeySchedule, NoncesBindTheSession) {
  crypto::ChaChaDrbg rng(2);
  const Bytes ss = rng.bytes(32);
  const Bytes nc = rng.bytes(16);
  const Bytes ns = rng.bytes(16);
  Bytes ns2 = ns;
  ns2[0] ^= 1;
  EXPECT_NE(derive_keys(ss, nc, ns).client_to_server_key,
            derive_keys(ss, nc, ns2).client_to_server_key);
}

TEST(RecordLayer, RoundTripAndSeqBinding) {
  crypto::ChaChaDrbg rng(3);
  const Bytes key = rng.bytes(32);
  const Bytes iv = rng.bytes(12);
  const Bytes aad = to_bytes("dir0chan1");
  const Bytes sealed = seal_record(key, iv, 7, aad, to_bytes("payload"));

  const auto opened = open_record(key, iv, 7, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(to_string(*opened), "payload");

  // A different sequence number derives a different nonce -> reject.
  EXPECT_FALSE(open_record(key, iv, 8, aad, sealed).has_value());
  // Different AAD -> reject.
  EXPECT_FALSE(open_record(key, iv, 7, to_bytes("dir1chan1"), sealed)
                   .has_value());
}

struct SecureWorld {
  simnet::Simulation sim{77};
  simnet::Network net{sim};
  simnet::Node server_node{net, "server"};
  simnet::Node client_node{net, "client"};
  crypto::ChaChaDrbg server_rng{100};
  crypto::ChaChaDrbg client_rng{200};
  crypto::X25519KeyPair server_keys = crypto::x25519_generate(server_rng);
  SecureServer server{server_keys, server_rng};
  SecureClient client{client_node, "server", server_keys.public_key,
                      client_rng};

  SecureWorld() {
    server.set_handler([](const Bytes& req, std::function<void(Bytes)> respond) {
      Bytes reply = to_bytes("echo:");
      append(reply, req);
      respond(std::move(reply));
    });
    server.bind(server_node);
  }
};

TEST(SecureChannel, RequestResponseRoundTrip) {
  SecureWorld w;
  std::string got;
  w.client.request(to_bytes("hello"), [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok());
    got = to_string(r.value());
  });
  w.sim.run();
  EXPECT_EQ(got, "echo:hello");
  EXPECT_TRUE(w.client.established());
  EXPECT_EQ(w.server.stats().handshakes, 1u);
  EXPECT_EQ(w.server.stats().records_opened, 1u);
}

TEST(SecureChannel, HandshakeHappensOnceForManyRequests) {
  SecureWorld w;
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    w.client.request(to_bytes("r" + std::to_string(i)),
                     [&](Result<Bytes> r) {
                       ASSERT_TRUE(r.ok());
                       ++done;
                     });
  }
  w.sim.run();
  EXPECT_EQ(done, 5);
  EXPECT_EQ(w.server.stats().handshakes, 1u);
  EXPECT_EQ(w.server.stats().records_opened, 5u);
}

TEST(SecureChannel, PlaintextNeverAppearsOnTheWire) {
  SecureWorld w;
  const std::string secret = "MySup3rSecretGeneratedPassword!";
  bool plaintext_seen = false;
  w.net.add_tap("", "", [&](Micros, simnet::Message& msg) {
    const std::string wire = to_string(msg.payload);
    if (wire.find(secret) != std::string::npos) plaintext_seen = true;
    return simnet::TapAction::kPass;
  });
  std::string got;
  w.client.request(to_bytes(secret), [&](Result<Bytes> r) {
    got = to_string(r.value());
  });
  w.sim.run();
  EXPECT_EQ(got, "echo:" + secret);
  EXPECT_FALSE(plaintext_seen);
}

TEST(SecureChannel, TamperedRequestIsRejectedByServer) {
  SecureWorld w;
  // Flip one ciphertext byte on every client->server data record.
  w.net.add_tap("client", "server", [&](Micros, simnet::Message& msg) {
    if (!msg.payload.empty() && msg.payload.back() != 0) {
      // Node frame header is 9 bytes; the secure envelope follows. Only
      // corrupt data records (first envelope byte 0x03).
      if (msg.payload.size() > 10 && msg.payload[9] == 0x03) {
        msg.payload.back() ^= 0x01;
      }
    }
    return simnet::TapAction::kPass;
  });
  bool failed = false;
  w.client.request(
      to_bytes("x"),
      [&](Result<Bytes> r) {
        failed = !r.ok();
        if (!r.ok()) {
          EXPECT_EQ(r.code(), Err::kUnavailable);  // server drops silently
        }
      });
  w.sim.run_capped(100000);
  EXPECT_TRUE(failed);
  EXPECT_GE(w.server.stats().records_rejected, 1u);
}

TEST(SecureChannel, TamperedResponseIsRejectedByClient) {
  SecureWorld w;
  w.net.add_tap("server", "client", [&](Micros, simnet::Message& msg) {
    if (msg.payload.size() > 10 && msg.payload[9] == 0x03) {
      msg.payload.back() ^= 0x01;
    }
    return simnet::TapAction::kPass;
  });
  bool verification_failed = false;
  w.client.request(to_bytes("x"), [&](Result<Bytes> r) {
    verification_failed = !r.ok() && r.code() == Err::kVerificationFailed;
  });
  w.sim.run();
  EXPECT_TRUE(verification_failed);
}

TEST(SecureChannel, ImpersonatorWithoutPinnedKeyIsDetected) {
  // A rogue server node answers the handshake with its own key pair. The
  // client's pinned-key confirmation must fail — this is the self-signed
  // certificate check from the paper's implementation.
  simnet::Simulation sim(88);
  simnet::Network net(sim);
  simnet::Node rogue_node(net, "server");  // occupies the server's address
  simnet::Node client_node(net, "client");
  crypto::ChaChaDrbg rogue_rng(300);
  crypto::ChaChaDrbg client_rng(301);
  crypto::ChaChaDrbg honest_rng(302);

  // The client pins the honest key, but the rogue generates its own.
  const auto honest_keys = crypto::x25519_generate(honest_rng);
  const auto rogue_keys = crypto::x25519_generate(rogue_rng);
  SecureServer rogue(rogue_keys, rogue_rng);
  rogue.set_handler([](const Bytes&, std::function<void(Bytes)> respond) {
    respond(to_bytes("gotcha"));
  });
  rogue.bind(rogue_node);

  SecureClient client(client_node, "server", honest_keys.public_key,
                      client_rng);
  bool rejected = false;
  client.request(to_bytes("secret"), [&](Result<Bytes> r) {
    rejected = !r.ok() && r.code() == Err::kVerificationFailed;
  });
  sim.run();
  EXPECT_TRUE(rejected);
  EXPECT_FALSE(client.established());
}

TEST(SecureChannel, ReplayedDataRecordIsRejected) {
  SecureWorld w;
  // Capture the first data record and replay it afterwards.
  Bytes captured;
  w.net.add_tap("client", "server", [&](Micros, simnet::Message& msg) {
    if (captured.empty() && msg.payload.size() > 10 &&
        msg.payload[9] == 0x03) {
      captured = msg.payload;
    }
    return simnet::TapAction::kPass;
  });
  std::string got;
  w.client.request(to_bytes("one"), [&](Result<Bytes> r) {
    got = to_string(r.value());
  });
  w.sim.run();
  ASSERT_EQ(got, "echo:one");
  ASSERT_FALSE(captured.empty());

  // Replay the captured frame from a node the attacker controls. The
  // server's replay window must reject it without invoking the handler.
  const auto opened_before = w.server.stats().records_opened;
  simnet::Node attacker(w.net, "attacker");
  // Strip the 9-byte node frame header; re-send the envelope as a fresh
  // RPC from the attacker.
  Bytes envelope(captured.begin() + 9, captured.end());
  attacker.request("server", envelope, [](Result<Bytes>) {});
  w.sim.run();
  EXPECT_EQ(w.server.stats().records_opened, opened_before);
  EXPECT_GE(w.server.stats().replays_rejected, 1u);
}

/// A data record's sequence number, read from its envelope.
std::uint64_t RecordSeq(const Bytes& envelope) {
  storage::BufReader r(envelope);
  r.u8();   // record type
  r.u64();  // channel id
  return r.u64();
}

/// Diverts the client's data records whose sequence number `hold`
/// accepts, as envelopes (node frame header stripped), instead of
/// delivering them; `held` keeps them in send order.
void HoldClientRecords(SecureWorld& w, std::function<bool(std::uint64_t)> hold,
                       std::vector<Bytes>& held) {
  w.net.add_tap("client", "server", [&held, hold](Micros, simnet::Message& m) {
    if (m.payload.size() <= 10 || m.payload[9] != 0x03) {
      return simnet::TapAction::kPass;
    }
    Bytes envelope(m.payload.begin() + 9, m.payload.end());
    if (!hold(RecordSeq(envelope))) return simnet::TapAction::kPass;
    held.push_back(std::move(envelope));
    return simnet::TapAction::kDrop;
  });
}

TEST(SecureChannel, ForgedRecordsDoNotConsumeSequenceNumbers) {
  // Forgeries fail authentication and must leave the replay window as it
  // was: another node that sends garbage records for the next sequence
  // numbers cannot lock the honest client out of its channel.
  SecureWorld w;
  std::string got;
  w.client.request(to_bytes("one"), [&](Result<Bytes> r) {
    got = to_string(r.value());
  });
  w.sim.run();
  ASSERT_EQ(got, "echo:one");

  simnet::Node attacker(w.net, "attacker");
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    storage::BufWriter forged;
    forged.u8(0x03);
    forged.u64(1);  // the client's channel id
    forged.u64(seq);
    forged.bytes(Bytes(40, 0xab));
    attacker.request("server", forged.take(), [](Result<Bytes>) {});
  }
  w.sim.run();
  EXPECT_EQ(w.server.stats().records_opened, 1u);
  EXPECT_EQ(w.server.stats().records_rejected +
                w.server.stats().replays_rejected,
            100u);

  Result<Bytes> next(Err::kInternal, "pending");
  w.client.request(to_bytes("two"),
                   [&](Result<Bytes> r) { next = std::move(r); });
  w.sim.run();
  ASSERT_TRUE(next.ok()) << next.message();
  EXPECT_EQ(to_string(next.value()), "echo:two");
}

TEST(SecureChannel, ReorderedRecordsInsideTheWindowAreAccepted) {
  SecureWorld w;
  std::vector<Bytes> held;
  HoldClientRecords(w, [](std::uint64_t) { return true; }, held);
  for (const char* body : {"r0", "r1", "r2", "r3", "r4"}) {
    w.client.request(to_bytes(body), [](Result<Bytes>) {});
  }
  w.sim.run();
  ASSERT_EQ(held.size(), 5u);

  std::vector<std::string> replies;
  auto deliver = [&](const Bytes& envelope) {
    w.server.handle_wire(envelope, [&](Bytes reply) {
      replies.push_back(to_string(reply));
    });
  };
  for (const std::size_t i : {4u, 0u, 2u, 3u, 1u}) deliver(held[i]);
  EXPECT_EQ(w.server.stats().records_opened, 5u);
  EXPECT_EQ(w.server.stats().replays_rejected, 0u);
  EXPECT_EQ(replies.size(), 5u);
  // Each of them again is a replay.
  for (const Bytes& envelope : held) deliver(envelope);
  EXPECT_EQ(w.server.stats().records_opened, 5u);
  EXPECT_EQ(w.server.stats().replays_rejected, 5u);
}

TEST(SecureChannel, RecordBelowTheWindowIsRejected) {
  // Hold back the records numbered 0 and 1, then let SeqWindow::kSize - 1
  // more through: the highest number is kSize, so 1 is the oldest number
  // the window still covers and 0 has fallen out of it.
  SecureWorld w;
  std::vector<Bytes> held;
  HoldClientRecords(w, [](std::uint64_t seq) { return seq < 2; }, held);
  for (std::uint64_t i = 0; i < SeqWindow::kSize + 1; ++i) {
    w.client.request(to_bytes("r"), [](Result<Bytes>) {});
  }
  w.sim.run();
  ASSERT_EQ(held.size(), 2u);
  ASSERT_EQ(w.server.stats().records_opened, SeqWindow::kSize - 1);

  std::size_t replies = 0;
  auto deliver = [&](const Bytes& envelope) {
    w.server.handle_wire(envelope, [&](Bytes) { ++replies; });
  };
  deliver(held[0]);
  EXPECT_EQ(w.server.stats().replays_rejected, 1u);
  EXPECT_EQ(replies, 0u);
  deliver(held[1]);
  EXPECT_EQ(w.server.stats().records_opened, SeqWindow::kSize);
  EXPECT_EQ(replies, 1u);
}

TEST(SeqWindowTest, MarksOnlyTheLastKSizeNumbers) {
  constexpr std::uint64_t k = SeqWindow::kSize;
  SeqWindow w;
  EXPECT_TRUE(w.fresh(0));
  EXPECT_TRUE(w.fresh(~std::uint64_t{0}));
  for (const std::uint64_t seq : {1u, 2u, 3u}) w.mark(seq);
  EXPECT_FALSE(w.fresh(2));
  EXPECT_TRUE(w.fresh(0));
  EXPECT_TRUE(w.fresh(4));

  // Slide up by less than the window: 3 stays marked, and the slots the
  // slide reuses (those of 1 and 2) are clear for k + 1 and k + 2.
  w.mark(k + 2);
  EXPECT_FALSE(w.fresh(3));
  EXPECT_TRUE(w.fresh(4));
  EXPECT_TRUE(w.fresh(k + 1));
  EXPECT_FALSE(w.fresh(k + 2));
  EXPECT_FALSE(w.fresh(2));  // below the window now
  w.mark(k + 1);
  EXPECT_FALSE(w.fresh(k + 1));

  // A jump of more than the window forgets everything below it.
  w.mark(10 * k);
  EXPECT_FALSE(w.fresh(9 * k));
  EXPECT_TRUE(w.fresh(9 * k + 1));
  EXPECT_TRUE(w.fresh(10 * k - 1));
  EXPECT_FALSE(w.fresh(10 * k));
  EXPECT_TRUE(w.fresh(10 * k + 1));

  // The top of the number space slides without wrapping.
  const std::uint64_t top = ~std::uint64_t{0};
  w.mark(top - 1);
  w.mark(top);
  EXPECT_FALSE(w.fresh(top));
  EXPECT_FALSE(w.fresh(top - 1));
  EXPECT_TRUE(w.fresh(top - 2));
  EXPECT_FALSE(w.fresh(10 * k));
}

TEST(SecureChannel, ResetIsTicketPreservingAndResumes) {
  // reset() keeps the cached session ticket, so the next request pays a
  // one-round-trip resumption instead of a second X25519 exchange.
  SecureWorld w;
  w.client.request(to_bytes("a"), [](Result<Bytes>) {});
  w.sim.run();
  EXPECT_EQ(w.server.stats().handshakes, 1u);
  EXPECT_TRUE(w.client.has_ticket());
  w.client.reset();
  EXPECT_FALSE(w.client.established());
  EXPECT_TRUE(w.client.has_ticket());
  w.client.request(to_bytes("b"), [](Result<Bytes>) {});
  w.sim.run();
  EXPECT_TRUE(w.client.established());
  EXPECT_EQ(w.server.stats().handshakes, 1u);
  EXPECT_EQ(w.server.stats().resumptions, 1u);
}

TEST(SecureChannel, ForgetTicketForcesRehandshake) {
  // The explicit opt-out for tests and the attack harness: dropping the
  // ticket restores the original reset-means-full-handshake behaviour.
  SecureWorld w;
  w.client.request(to_bytes("a"), [](Result<Bytes>) {});
  w.sim.run();
  EXPECT_EQ(w.server.stats().handshakes, 1u);
  w.client.forget_ticket();
  w.client.reset();
  EXPECT_FALSE(w.client.has_ticket());
  w.client.request(to_bytes("b"), [](Result<Bytes>) {});
  w.sim.run();
  EXPECT_TRUE(w.client.established());
  EXPECT_EQ(w.server.stats().handshakes, 2u);
  EXPECT_EQ(w.server.stats().resumptions, 0u);
}

TEST(SecureChannel, DebugKeysExposedOnlyWhenEstablished) {
  SecureWorld w;
  EXPECT_EQ(w.client.debug_keys(), nullptr);
  w.client.request(to_bytes("a"), [](Result<Bytes>) {});
  w.sim.run();
  ASSERT_NE(w.client.debug_keys(), nullptr);
  EXPECT_EQ(w.client.debug_keys()->client_to_server_key.size(), 32u);
}

TEST(SecureChannel, AllQueuedRequestsFailTogetherOnHandshakeFailure) {
  // Several requests issued before the handshake completes must each get
  // a failure callback when the handshake is rejected — none may hang.
  simnet::Simulation sim(101);
  simnet::Network net(sim);
  simnet::Node rogue_node(net, "server");
  simnet::Node client_node(net, "client");
  crypto::ChaChaDrbg rogue_rng(1), client_rng(2), honest_rng(3);
  const auto honest = crypto::x25519_generate(honest_rng);
  SecureServer rogue(crypto::x25519_generate(rogue_rng), rogue_rng);
  rogue.bind(rogue_node);

  SecureClient client(client_node, "server", honest.public_key, client_rng);
  int failures = 0;
  for (int i = 0; i < 4; ++i) {
    client.request(to_bytes("q" + std::to_string(i)), [&](Result<Bytes> r) {
      EXPECT_FALSE(r.ok());
      EXPECT_EQ(r.code(), Err::kVerificationFailed);
      ++failures;
    });
  }
  sim.run();
  EXPECT_EQ(failures, 4);
  EXPECT_FALSE(client.established());
}

TEST(SecureChannel, HandshakeTimeoutPropagatesToQueuedRequests) {
  simnet::Simulation sim(102);
  simnet::Network net(sim);
  simnet::Node client_node(net, "client");  // no server node at all
  crypto::ChaChaDrbg rng(4);
  crypto::X25519Key pinned{};
  SecureClient client(client_node, "server", pinned, rng, ms_to_us(500));
  int failures = 0;
  client.request(to_bytes("q"), [&](Result<Bytes> r) {
    EXPECT_EQ(r.code(), Err::kUnavailable);
    ++failures;
  });
  sim.run();
  EXPECT_EQ(failures, 1);
}

TEST(SecureChannel, ServerIgnoresDataOnUnknownChannel) {
  SecureWorld w;
  // Establish a channel, then throw a data record with a bogus channel id
  // at the server from another node.
  w.client.request(to_bytes("warm"), [](Result<Bytes>) {});
  w.sim.run();

  storage::BufWriter forged;
  forged.u8(0x03);
  forged.u64(0xdeadbeef);  // unknown channel
  forged.u64(1);
  forged.bytes(Bytes(32, 0x42));
  simnet::Node attacker(w.net, "attacker");
  bool got_reply = false;
  attacker.request(
      "server", forged.take(),
      [&](Result<Bytes> r) { got_reply = r.ok(); }, ms_to_us(500));
  w.sim.run();
  EXPECT_FALSE(got_reply);  // silently dropped, like a TLS terminator
  EXPECT_GE(w.server.stats().records_rejected, 1u);
}

TEST(SecureChannel, HttpOverSecureChannel) {
  // Full stack: HttpClient -> SecureClient -> simnet -> SecureServer ->
  // HttpServer. This is the browser->Amnesia-server HTTPS leg.
  simnet::Simulation sim(99);
  simnet::Network net(sim);
  simnet::Node server_node(net, "server");
  simnet::Node client_node(net, "client");
  crypto::ChaChaDrbg srng(1), crng(2);
  const auto keys = crypto::x25519_generate(srng);

  websvc::HttpServer http(sim, 10);
  http.router().add(websvc::Method::kGet, "/secure",
                    [](const websvc::Request&, const websvc::PathParams&,
                       websvc::Responder respond) {
                      respond(websvc::Response::ok_text("over tls"));
                    });
  SecureServer secure_server(keys, srng);
  secure_server.set_handler(
      [&http](const Bytes& plain, std::function<void(Bytes)> respond) {
        http.handle_bytes(plain, std::move(respond));
      });
  secure_server.bind(server_node);

  SecureClient secure_client(client_node, "server", keys.public_key, crng);
  websvc::HttpClient client(
      [&secure_client](Bytes wire, std::function<void(Result<Bytes>)> cb) {
        secure_client.request(std::move(wire), std::move(cb));
      });

  std::string body;
  client.get("/secure", [&](Result<websvc::Response> r) {
    ASSERT_TRUE(r.ok());
    body = r.value().body;
  });
  sim.run();
  EXPECT_EQ(body, "over tls");
}

}  // namespace
}  // namespace amnesia::securechan
