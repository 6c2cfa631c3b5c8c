// Secure channel: the HTTPS substitute.
//
// The paper protects browser<->server and phone<->server traffic with
// HTTPS under a self-signed certificate that both clients pin. This module
// reproduces that trust model with modern primitives:
//
//   handshake  : ephemeral-static X25519 against the *pinned* server
//                public key (the self-signed-cert analogue), nonces from
//                both sides, HKDF-SHA256 key schedule;
//   records    : ChaCha20-Poly1305, per-direction keys and IVs, explicit
//                sequence numbers XORed into the nonce, direction- and
//                channel-bound AAD, replay detection.
//
// Only the holder of the server's static private key can produce a valid
// key-confirmation record, so a man-in-the-middle without that key cannot
// impersonate the server; like HTTPS, the client is anonymous at this
// layer and authenticates above it with the master password.
//
// Wire envelope (inside a simnet Node RPC body):
//   [0x01] client_hello  : eph_pub(32) nonce_c(16)
//   [0x02] server_hello  : nonce_s(16) channel_id(8) confirm_record [ticket]
//   [0x03] data          : channel_id(8) seq(8) sealed(...) [trace_str]
//   [0x04] resume_hello  : ticket nonce_c(16)
//   [0x05] resume_ok     : nonce_s(16) channel_id(8) confirm_record [ticket]
//   [0x06] resume_reject : (empty)
//
// Resumption (TLS 1.3 style, see ticket.h): the server_hello / resume_ok
// trailing ticket is the session's resumption master secret sealed under
// a process-wide rotating ticket key. A resume_hello replaces the X25519
// exchange on reconnect — one round trip, zero scalar multiplications —
// with fresh channel keys HKDF-derived from the resumption secret and
// both nonces, and ticket chaining (every resumption mints a successor
// ticket under a successor secret). A bounded sliding replay window over
// resume-hello nonces rejects replays; *any* rejection — bad ticket,
// rotated-out key, replay, hostile bytes — answers resume_reject and the
// client falls back transparently to a full handshake.
//
// Record replay window (RFC 4303 section 3.4.3): each end keeps, per
// channel and direction, the highest authenticated sequence number and a
// bitmap of the SeqWindow::kSize numbers below it. A data record is
// checked against the window, then authenticated, and only then marked
// as seen, so forged records leave no state behind. A repeat, or a
// number older than the window, is a replay. The window must exceed how
// far records of one channel arrive out of order: TCP keeps them in
// order, but simulated links reorder within their jitter (up to 160 ms,
// simnet::profiles()). The deepest reordering in the test suite and the
// simulated benches is 7 numbers (bench_ablation_threads), so kSize =
// 1024 leaves two orders of magnitude of headroom, for a fixed 128 bytes
// per direction per channel.
//
// The optional trailing trace_str is a length-prefixed serialized
// obs::TraceContext — plaintext record *metadata*, deliberately outside
// both the sealed payload and the AAD, so a transport-level observer (or
// the ops tooling) can correlate records with traces without any key
// material. It carries no secrets: ids only.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/x25519.h"
#include "obs/metrics.h"
#include "securechan/ticket.h"
#include "simnet/node.h"

namespace amnesia::storage {
class BufReader;
}

namespace amnesia::securechan {

struct ChannelKeys {
  Bytes client_to_server_key;  // 32 bytes
  Bytes server_to_client_key;  // 32 bytes
  Bytes client_to_server_iv;   // 12 bytes
  Bytes server_to_client_iv;   // 12 bytes

  ChannelKeys() = default;
  ChannelKeys(const ChannelKeys&) = default;
  ChannelKeys& operator=(const ChannelKeys&) = default;
  ChannelKeys(ChannelKeys&&) noexcept = default;
  /// Wipes the keys being replaced before adopting the new ones.
  ChannelKeys& operator=(ChannelKeys&& other) noexcept;
  /// Session keys are zeroized before the memory is released, so torn-down
  /// channels don't leave secrets on the freed heap.
  ~ChannelKeys() { wipe(); }

  void wipe();
};

/// Derives both directions' keys from the X25519 shared secret and the
/// two handshake nonces. Exposed for tests and the attack harness (a
/// "broken HTTPS" adversary is modelled as one that obtained these keys).
ChannelKeys derive_keys(ByteView shared_secret, ByteView client_nonce,
                        ByteView server_nonce);

/// One session's full key schedule: the record keys plus the resumption
/// master secret that seeds the *next* session's ticket. The secret is
/// wiped on destruction.
struct SessionSecrets {
  ChannelKeys keys;
  Bytes resumption_secret;  // kResumptionSecretLen bytes

  SessionSecrets() = default;
  SessionSecrets(SessionSecrets&&) noexcept = default;
  SessionSecrets& operator=(SessionSecrets&&) noexcept = default;
  SessionSecrets(const SessionSecrets&) = delete;
  SessionSecrets& operator=(const SessionSecrets&) = delete;
  ~SessionSecrets() { secure_wipe(resumption_secret); }
};

/// Full-handshake schedule: same HKDF invocation as derive_keys() but
/// extended past the record keys, so the first 88 output bytes — and
/// therefore every record on the wire — are bit-identical to the
/// pre-resumption protocol.
SessionSecrets derive_full_session(ByteView shared_secret,
                                   ByteView client_nonce,
                                   ByteView server_nonce);

/// Resumed-session schedule: keyed by the previous session's resumption
/// secret instead of an X25519 shared secret, under a distinct HKDF info
/// label so the two schedules can never collide.
SessionSecrets derive_resumed_session(ByteView resumption_secret,
                                      ByteView client_nonce,
                                      ByteView server_nonce);

/// Seals/opens one record. `seq` is XORed into the trailing 8 bytes of the
/// IV; `aad` should bind direction and channel id.
Bytes seal_record(const Bytes& key, const Bytes& iv, std::uint64_t seq,
                  ByteView aad, ByteView plaintext);
std::optional<Bytes> open_record(const Bytes& key, const Bytes& iv,
                                 std::uint64_t seq, ByteView aad,
                                 ByteView sealed);

/// Allocation-free variants: the nonce lives on the stack and `out` is a
/// caller-owned scratch buffer whose capacity is reused across records
/// (see crypto::aead_seal_into / aead_open_into for aliasing rules).
void seal_record_into(const Bytes& key, const Bytes& iv, std::uint64_t seq,
                      ByteView aad, ByteView plaintext, Bytes& out);
bool open_record_into(const Bytes& key, const Bytes& iv, std::uint64_t seq,
                      ByteView aad, ByteView sealed, Bytes& out);

/// One direction's record replay window (see the header comment).
class SeqWindow {
 public:
  static constexpr std::uint64_t kSize = 1024;

  /// False if `seq` is already marked or older than the window.
  bool fresh(std::uint64_t seq) const;
  /// Marks an authenticated `seq`; a number above the highest slides the
  /// window up to it.
  void mark(std::uint64_t seq);

 private:
  bool bit(std::uint64_t seq) const {
    return (bits_[(seq % kSize) / 64] >> (seq % 64)) & 1u;
  }

  bool any_ = false;
  std::uint64_t highest_ = 0;
  // Ring bitmap: slot seq % kSize holds seq for the kSize numbers up to
  // and including highest_.
  std::array<std::uint64_t, kSize / 64> bits_{};
};

struct SecureServerStats {
  std::uint64_t handshakes = 0;
  std::uint64_t records_opened = 0;
  std::uint64_t records_rejected = 0;
  std::uint64_t replays_rejected = 0;
  std::uint64_t resumptions = 0;
  std::uint64_t resumptions_rejected = 0;   // all causes, incl. replays
  std::uint64_t resume_replays_rejected = 0;  // replay-window hits only
  std::uint64_t tickets_issued = 0;
};

/// Server side: terminates secure channels and hands decrypted request
/// bytes to a plaintext handler (normally HttpServer::handle_bytes).
class SecureServer {
 public:
  using PlainHandler = std::function<void(const Bytes& plaintext,
                                          std::function<void(Bytes)> respond)>;

  SecureServer(crypto::X25519KeyPair static_keys, RandomSource& rng);

  const crypto::X25519Key& public_key() const { return static_keys_.public_key; }

  void set_handler(PlainHandler handler) { handler_ = std::move(handler); }

  /// Installs this channel terminator as `node`'s RPC handler.
  void bind(simnet::Node& node);

  /// Handles one raw RPC body (exposed for tests without a network).
  void handle_wire(const Bytes& wire, std::function<void(Bytes)> respond);

  const SecureServerStats& stats() const { return stats_; }

  /// Publishes securechan.* metrics: handshake / record counters and
  /// wire bytes_in / bytes_out (ciphertext sizes, the paper's Table 3
  /// traffic view).
  void set_metrics(obs::MetricsRegistry* registry);

  /// Replaces the ticket-sealing key store. A sharded deployment installs
  /// one shared store into every shard so tickets are fleet-valid; the
  /// constructor-generated default store keeps a standalone server fully
  /// functional. The constructor always draws its default store from
  /// `rng` regardless, so installing a shared store does not perturb the
  /// deterministic rng stream (N=1 bit-compatibility).
  void set_ticket_keys(std::shared_ptr<TicketKeyStore> keys);
  const std::shared_ptr<TicketKeyStore>& ticket_keys() const {
    return ticket_keys_;
  }

  /// Test hook: shrinks/expands the resume-hello replay window (default
  /// kDefaultResumeReplayCapacity nonces, drop-oldest).
  void set_resume_replay_capacity(std::size_t capacity);

  static constexpr std::size_t kDefaultResumeReplayCapacity = 4096;

 private:
  struct Channel {
    ChannelKeys keys;
    std::uint64_t send_seq = 1;  // 0 was the confirm record
    SeqWindow client_seqs;
    // Reused seal/open scratch: steady-state records don't allocate.
    Bytes seal_scratch;
    Bytes open_scratch;
  };

  void handle_resume_hello(storage::BufReader& r,
                           std::function<void(Bytes)>& respond);

  crypto::X25519KeyPair static_keys_;
  RandomSource& rng_;
  PlainHandler handler_;
  std::map<std::uint64_t, Channel> channels_;
  std::uint64_t next_channel_id_ = 1;
  SecureServerStats stats_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::shared_ptr<TicketKeyStore> ticket_keys_;
  ReplayWindow resume_window_{kDefaultResumeReplayCapacity};
};

/// Client side: performs the pinned-key handshake lazily on the first
/// request and then seals every request / opens every response.
class SecureClient {
 public:
  /// One wire round-trip: sends a request body, eventually delivers the
  /// response body (or a transport failure). The channel protocol above it
  /// is byte-identical whether the function wraps a simnet Node RPC or a
  /// net::RpcClient over real TCP.
  using WireFn = std::function<void(Bytes, std::function<void(Result<Bytes>)>)>;

  /// Transport-agnostic constructor: the secure channel runs over any
  /// request/response wire.
  SecureClient(WireFn wire, crypto::X25519Key pinned_server_key,
               RandomSource& rng);

  /// Convenience for the simulated backend: wraps `node`'s RPC pipe to
  /// `server` (delegates to the WireFn constructor).
  SecureClient(simnet::Node& node, simnet::NodeId server,
               crypto::X25519Key pinned_server_key, RandomSource& rng,
               Micros timeout_us = simnet::Node::kDefaultTimeoutUs);

  /// Wipes the cached resumption secret.
  ~SecureClient();

  /// Sends `plaintext` as one sealed request; `cb` gets the decrypted
  /// response, Err::kVerificationFailed on a tampered/forged reply, or the
  /// transport failure.
  void request(Bytes plaintext, std::function<void(Result<Bytes>)> cb);

  bool established() const { return channel_.has_value(); }

  /// Drops the channel. Ticket-preserving: if the last session minted a
  /// ticket the next request resumes (one round trip, no X25519) instead
  /// of paying a full handshake. Call forget_ticket() first to force the
  /// full exchange.
  void reset();

  /// Repoints the channel at a different wire (cluster failover: the
  /// browser retargets from the crashed primary to the promoted
  /// follower). Implies reset(); the cached ticket survives, so a fleet
  /// sharing one TicketKeyStore resumes on the new server in one round
  /// trip.
  void set_wire(WireFn wire);

  /// Simnet convenience for set_wire: retargets at `server` via `node`'s
  /// RPC pipe.
  void retarget(simnet::Node& node, simnet::NodeId server,
                Micros timeout_us = simnet::Node::kDefaultTimeoutUs);

  /// A client-cached resumption credential: the opaque server-sealed
  /// ticket plus the client's matching secret. Copyable so a connection
  /// pool can seed new clients from a shared cache; the secret is wiped
  /// on destruction.
  struct SessionTicket {
    Bytes ticket;
    Bytes secret;

    SessionTicket() = default;
    SessionTicket(const SessionTicket&) = default;
    SessionTicket& operator=(const SessionTicket&) = default;
    SessionTicket(SessionTicket&&) noexcept = default;
    SessionTicket& operator=(SessionTicket&&) noexcept = default;
    ~SessionTicket() { secure_wipe(secret); }
  };

  bool has_ticket() const {
    return !ticket_.empty() && !resumption_secret_.empty();
  }

  /// Snapshot of the current resumption credential, if any. Another
  /// SecureClient against the same fleet can adopt_ticket() it and resume
  /// without ever having handshaken itself (tickets are bearer tokens
  /// scoped to the securechan layer, exactly like TLS 1.3 PSKs).
  std::optional<SessionTicket> export_ticket() const;
  void adopt_ticket(SessionTicket t);

  /// Drops the cached ticket + secret (zeroizing the secret); the next
  /// handshake is a full X25519 exchange. For tests and the attack
  /// harness.
  void forget_ticket();

  /// Records client-observed handshake round-trip latency into
  /// `securechan.handshake_latency_us` (virtual time from `clock`) and
  /// counts completed handshakes. In the simulation the whole testbed
  /// shares one registry, so client-leg handshake RTTs land next to the
  /// server-side channel counters.
  void set_metrics(obs::MetricsRegistry* registry, const Clock* clock);

  /// Testing/attack hook: the live channel keys, if established. A
  /// compromised-HTTPS adversary (paper section IV-A) is granted exactly
  /// this view.
  const ChannelKeys* debug_keys() const;

 private:
  struct Established {
    std::uint64_t channel_id;
    ChannelKeys keys;
    std::uint64_t send_seq = 0;
    SeqWindow server_seqs;
    // Reused seal/open scratch: steady-state records don't allocate.
    Bytes seal_scratch;
    Bytes open_scratch;
  };

  void start_handshake();
  void start_full_handshake();
  void start_resume();
  void install_session(std::uint64_t channel_id, SessionSecrets secrets,
                       Bytes ticket);
  void flush_queue();
  void send_record(Bytes plaintext, std::string trace,
                   std::function<void(Result<Bytes>)> cb);

  WireFn wire_;
  crypto::X25519Key pinned_server_key_;
  RandomSource& rng_;
  std::optional<Established> channel_;
  bool handshake_in_flight_ = false;
  obs::MetricsRegistry* metrics_ = nullptr;
  const Clock* metrics_clock_ = nullptr;
  // Requests issued before the handshake completes. The trace context is
  // captured at request() time: by the time the handshake completes and
  // the queue flushes, the caller's ambient context is gone.
  std::deque<std::tuple<Bytes, std::string, std::function<void(Result<Bytes>)>>>
      queue_;
  // Handshake state while in flight.
  Bytes pending_eph_private_;
  Bytes pending_client_nonce_;
  Micros handshake_started_us_ = 0;
  // Cached resumption credential (see SessionTicket). Lives outside
  // channel_ so reset() keeps it across sessions.
  Bytes ticket_;
  Bytes resumption_secret_;
};

}  // namespace amnesia::securechan
