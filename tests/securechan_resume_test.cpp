// Session resumption: ticket codec hostile-input properties, replay
// window semantics, resume/fallback state machines on both ends, and the
// FaultInjector-driven rejection path.
#include <gtest/gtest.h>

#include "common/error.h"
#include "crypto/drbg.h"
#include "resilience/fault.h"
#include "obs/metrics.h"
#include "securechan/channel.h"
#include "securechan/ticket.h"
#include "simnet/network.h"
#include "simnet/node.h"
#include "simnet/sim.h"
#include "storage/codec.h"

namespace amnesia::securechan {
namespace {

// ------------------------------------------------------------- tickets

TEST(TicketCodec, RoundTripAndOneRotationGrace) {
  crypto::ChaChaDrbg rng(1);
  auto store = TicketKeyStore::generate(rng);
  const Bytes rms = rng.bytes(kResumptionSecretLen);
  const Bytes ticket = store->seal(rms, rng);

  auto opened = store->open(ticket);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, rms);

  // Survives exactly one rotation (the "previous" key slot)...
  store->rotate(rng);
  opened = store->open(ticket);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, rms);

  // ...and no more.
  store->rotate(rng);
  EXPECT_FALSE(store->open(ticket).has_value());
}

TEST(TicketCodec, EveryTruncationIsRejected) {
  crypto::ChaChaDrbg rng(2);
  auto store = TicketKeyStore::generate(rng);
  const Bytes ticket = store->seal(rng.bytes(kResumptionSecretLen), rng);
  for (std::size_t len = 0; len < ticket.size(); ++len) {
    const Bytes truncated(ticket.begin(),
                          ticket.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(store->open(truncated).has_value()) << "prefix len " << len;
  }
  // Trailing garbage is not ours either.
  Bytes extended = ticket;
  extended.push_back(0x00);
  EXPECT_FALSE(store->open(extended).has_value());
}

TEST(TicketCodec, EveryBitFlipIsRejected) {
  crypto::ChaChaDrbg rng(3);
  auto store = TicketKeyStore::generate(rng);
  const Bytes ticket = store->seal(rng.bytes(kResumptionSecretLen), rng);
  for (std::size_t i = 0; i < ticket.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = ticket;
      flipped[i] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(store->open(flipped).has_value())
          << "byte " << i << " bit " << bit;
    }
  }
}

TEST(TicketCodec, WrongStoreRejects) {
  crypto::ChaChaDrbg rng(4);
  auto store = TicketKeyStore::generate(rng);
  auto other = TicketKeyStore::generate(rng);
  const Bytes ticket = store->seal(rng.bytes(kResumptionSecretLen), rng);
  // Same key id (both stores start at 1), different key: tag check fails.
  EXPECT_EQ(store->current_key_id(), other->current_key_id());
  EXPECT_FALSE(other->open(ticket).has_value());
}

TEST(ReplayWindow, DropOldestSemantics) {
  ReplayWindow window(2);
  const Bytes a = to_bytes("a"), b = to_bytes("b"), c = to_bytes("c");
  EXPECT_TRUE(window.insert(a));
  EXPECT_TRUE(window.insert(b));
  EXPECT_FALSE(window.insert(a));  // replay while still in the window
  EXPECT_TRUE(window.insert(c));   // evicts the oldest (a)
  EXPECT_EQ(window.size(), 2u);
  EXPECT_TRUE(window.insert(a));   // slid out: admitted again
  EXPECT_FALSE(window.insert(c));  // still inside
}

// ------------------------------------------------------ resume protocol

struct SecureWorld {
  simnet::Simulation sim{177};
  simnet::Network net{sim};
  simnet::Node server_node{net, "server"};
  simnet::Node client_node{net, "client"};
  crypto::ChaChaDrbg server_rng{100};
  crypto::ChaChaDrbg client_rng{200};
  crypto::X25519KeyPair server_keys = crypto::x25519_generate(server_rng);
  obs::MetricsRegistry metrics;  // SecureServer::stats() reads it
  SecureServer server{server_keys, server_rng};
  SecureClient client{client_node, "server", server_keys.public_key,
                      client_rng};

  SecureWorld() {
    server.set_metrics(&metrics);
    server.set_handler(
        [](const Bytes& req, std::function<void(Bytes)> respond) {
          Bytes reply = to_bytes("echo:");
          append(reply, req);
          respond(std::move(reply));
        });
    server.bind(server_node);
  }

  std::string round_trip(const std::string& payload) {
    std::string got;
    client.request(to_bytes(payload),
                   [&](Result<Bytes> r) { got = r.ok() ? to_string(r.value())
                                                       : r.message(); });
    sim.run();
    return got;
  }
};

TEST(Resume, OneRoundTripWithFreshKeysAndNoX25519) {
  SecureWorld w;
  ASSERT_EQ(w.round_trip("one"), "echo:one");
  ASSERT_NE(w.client.debug_keys(), nullptr);
  const Bytes cold_key = w.client.debug_keys()->client_to_server_key;

  w.client.reset();
  ASSERT_EQ(w.round_trip("two"), "echo:two");
  EXPECT_EQ(w.server.stats().handshakes, 1u);  // zero new X25519 exchanges
  EXPECT_EQ(w.server.stats().resumptions, 1u);
  EXPECT_EQ(w.server.stats().resumptions_rejected, 0u);
  // Fresh nonces -> fresh record keys: resumption never reuses a session.
  ASSERT_NE(w.client.debug_keys(), nullptr);
  EXPECT_NE(w.client.debug_keys()->client_to_server_key, cold_key);
}

TEST(Resume, TicketsChainAcrossManySessions) {
  SecureWorld w;
  ASSERT_EQ(w.round_trip("start"), "echo:start");
  for (int i = 0; i < 5; ++i) {
    w.client.reset();
    ASSERT_EQ(w.round_trip("again"), "echo:again");
  }
  EXPECT_EQ(w.server.stats().handshakes, 1u);
  EXPECT_EQ(w.server.stats().resumptions, 5u);
  // Every session minted a successor ticket: 1 full + 5 resumed.
  EXPECT_EQ(w.server.stats().tickets_issued, 6u);
  EXPECT_TRUE(w.client.has_ticket());
}

TEST(Resume, ReplayedResumeHelloIsRejected) {
  SecureWorld w;
  // Capture the resume hello (envelope type 0x04 behind the 9-byte node
  // frame header).
  Bytes captured;
  w.net.add_tap("client", "server", [&](Micros, simnet::Message& msg) {
    if (captured.empty() && msg.payload.size() > 10 &&
        msg.payload[9] == 0x04) {
      captured = msg.payload;
    }
    return simnet::TapAction::kPass;
  });
  ASSERT_EQ(w.round_trip("one"), "echo:one");
  w.client.reset();
  ASSERT_EQ(w.round_trip("two"), "echo:two");
  ASSERT_FALSE(captured.empty());
  ASSERT_EQ(w.server.stats().resumptions, 1u);

  // An attacker replays the captured hello verbatim. The replay window
  // rejects the reused nonce; the attacker learns exactly one byte.
  simnet::Node attacker(w.net, "attacker");
  Bytes envelope(captured.begin() + 9, captured.end());
  Bytes reply;
  attacker.request("server", envelope,
                   [&](Result<Bytes> r) { if (r.ok()) reply = r.value(); });
  w.sim.run();
  EXPECT_EQ(w.server.stats().resumptions, 1u);  // no second session
  EXPECT_EQ(w.server.stats().resume_replays_rejected, 1u);
  EXPECT_EQ(w.server.stats().resumptions_rejected, 1u);
  EXPECT_EQ(reply, Bytes{0x06});  // resume_reject, nothing reflected

  // The honest client is unaffected and keeps resuming with fresh nonces.
  w.client.reset();
  ASSERT_EQ(w.round_trip("three"), "echo:three");
  EXPECT_EQ(w.server.stats().resumptions, 2u);
  EXPECT_EQ(w.server.stats().handshakes, 1u);
}

TEST(Resume, InjectedRejectionFallsBackTransparently) {
  SecureWorld w;
  ASSERT_EQ(w.round_trip("one"), "echo:one");

  // The securechan.resume fault point makes the server refuse the next
  // resumption; the client must complete the request anyway via a full
  // handshake — the caller never sees the rejected attempt.
  resilience::FaultInjector injector(7);
  resilience::ScopedFaultInjector scoped(injector);
  injector.add_rule(resilience::FaultRule{.point = "securechan.resume",
                                          .max_fires = 1});
  w.client.reset();
  ASSERT_EQ(w.round_trip("two"), "echo:two");
  EXPECT_TRUE(w.client.established());
  EXPECT_EQ(w.server.stats().resumptions, 0u);
  EXPECT_EQ(w.server.stats().resumptions_rejected, 1u);
  EXPECT_EQ(w.server.stats().handshakes, 2u);

  // The fallback handshake re-ticketed the client: resumption works
  // again once the fault clears.
  w.client.reset();
  ASSERT_EQ(w.round_trip("three"), "echo:three");
  EXPECT_EQ(w.server.stats().resumptions, 1u);
  EXPECT_EQ(w.server.stats().handshakes, 2u);
}

TEST(Resume, DroppedResumeHelloFallsBackAfterTimeout) {
  SecureWorld w;
  ASSERT_EQ(w.round_trip("one"), "echo:one");

  resilience::FaultInjector injector(8);
  resilience::ScopedFaultInjector scoped(injector);
  injector.add_rule(resilience::FaultRule{.point = "securechan.resume",
                                          .max_fires = 1,
                                          .kind = resilience::FaultKind::kDrop});
  w.client.reset();
  // The hello is swallowed; the node RPC timeout expires, the client
  // burns the ticket and falls back. Slower, but the request completes.
  ASSERT_EQ(w.round_trip("two"), "echo:two");
  EXPECT_EQ(w.server.stats().handshakes, 2u);
  EXPECT_EQ(w.server.stats().resumptions, 0u);
}

TEST(Resume, CorruptAdoptedTicketFallsBackTransparently) {
  SecureWorld w;
  ASSERT_EQ(w.round_trip("one"), "echo:one");

  auto credential = w.client.export_ticket();
  ASSERT_TRUE(credential.has_value());
  credential->ticket[credential->ticket.size() / 2] ^= 0x40;
  w.client.adopt_ticket(*credential);
  w.client.reset();
  ASSERT_EQ(w.round_trip("two"), "echo:two");
  EXPECT_EQ(w.server.stats().handshakes, 2u);
  EXPECT_EQ(w.server.stats().resumptions, 0u);
  EXPECT_EQ(w.server.stats().resumptions_rejected, 1u);
}

TEST(Resume, DoubleKeyRotationExpiresTicketGracefully) {
  SecureWorld w;
  ASSERT_EQ(w.round_trip("one"), "echo:one");

  // One rotation: the ticket (sealed under the now-previous key) still
  // resumes, and the chained replacement is sealed under the new key.
  w.server.ticket_keys()->rotate(w.server_rng);
  w.client.reset();
  ASSERT_EQ(w.round_trip("two"), "echo:two");
  EXPECT_EQ(w.server.stats().resumptions, 1u);

  // Two rotations with no contact in between: the held ticket has
  // rotated out; the client pays one full handshake and re-tickets.
  w.server.ticket_keys()->rotate(w.server_rng);
  w.server.ticket_keys()->rotate(w.server_rng);
  w.client.reset();
  ASSERT_EQ(w.round_trip("three"), "echo:three");
  EXPECT_EQ(w.server.stats().resumptions, 1u);
  EXPECT_EQ(w.server.stats().resumptions_rejected, 1u);
  EXPECT_EQ(w.server.stats().handshakes, 2u);
}

TEST(Resume, HostileResumeBytesNeverCrashOrReflect) {
  SecureWorld w;
  ASSERT_EQ(w.round_trip("one"), "echo:one");  // server has live state

  crypto::ChaChaDrbg fuzz(99);
  std::vector<Bytes> hellos;
  hellos.push_back(Bytes{0x04});  // bare type byte
  {
    // Length prefix far beyond the buffer.
    storage::BufWriter wtr;
    wtr.u8(0x04);
    wtr.u32(0xFFFFFFFFu);
    hellos.push_back(wtr.take());
  }
  {
    // Well-formed framing, garbage ticket, correct-length nonce.
    storage::BufWriter wtr;
    wtr.u8(0x04);
    wtr.bytes(fuzz.bytes(64));
    wtr.raw(fuzz.bytes(16));
    hellos.push_back(wtr.take());
  }
  for (int i = 0; i < 200; ++i) {
    Bytes h{0x04};
    append(h, fuzz.bytes(fuzz.uniform(120)));
    hellos.push_back(std::move(h));
  }

  for (const auto& hello : hellos) {
    std::vector<Bytes> responses;
    w.server.handle_wire(hello,
                         [&](Bytes reply) { responses.push_back(reply); });
    for (const auto& r : responses) {
      // Either silence or the 1-byte reject: hostile input is never
      // echoed and never mints a channel.
      EXPECT_EQ(r, Bytes{0x06});
    }
  }
  EXPECT_EQ(w.server.stats().resumptions, 0u);

  // The server is still fully functional afterwards.
  w.client.reset();
  ASSERT_EQ(w.round_trip("two"), "echo:two");
  EXPECT_EQ(w.server.stats().resumptions, 1u);
}

TEST(Resume, ServerReplayWindowIsBounded) {
  SecureWorld w;
  w.server.set_resume_replay_capacity(4);
  ASSERT_EQ(w.round_trip("one"), "echo:one");
  // Far more resumptions than the window holds: memory stays bounded
  // (drop-oldest) and every fresh nonce is still admitted.
  for (int i = 0; i < 32; ++i) {
    w.client.reset();
    ASSERT_EQ(w.round_trip("again"), "echo:again");
  }
  EXPECT_EQ(w.server.stats().resumptions, 32u);
  EXPECT_EQ(w.server.stats().handshakes, 1u);
}

}  // namespace
}  // namespace amnesia::securechan
