#include "securechan/channel.h"

#include <algorithm>
#include <array>

#include "common/error.h"
#include "common/logging.h"
#include "crypto/aead.h"
#include "crypto/hkdf.h"
#include "resilience/fault.h"
#include "storage/codec.h"

namespace amnesia::securechan {

namespace {

constexpr std::uint8_t kClientHello = 0x01;
constexpr std::uint8_t kServerHello = 0x02;
constexpr std::uint8_t kData = 0x03;
constexpr std::uint8_t kResumeHello = 0x04;
constexpr std::uint8_t kResumeOk = 0x05;
constexpr std::uint8_t kResumeReject = 0x06;

constexpr std::size_t kNonceLen = 16;
const char kKdfInfo[] = "amnesia securechan v1";
const char kResumeKdfInfo[] = "amnesia securechan resume v1";
const char kConfirmPayload[] = "amnesia key confirm";

// 0: client->server, 1: server->client. Stack-built, but byte-identical
// to BufWriter{u8(direction), u64(channel_id)} from earlier versions.
std::array<std::uint8_t, 9> direction_aad(std::uint8_t direction,
                                          std::uint64_t channel_id) {
  std::array<std::uint8_t, 9> aad;
  aad[0] = direction;
  for (int i = 0; i < 8; ++i) {
    aad[1 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(channel_id >> (i * 8));
  }
  return aad;
}

}  // namespace

void ChannelKeys::wipe() {
  secure_wipe(client_to_server_key);
  secure_wipe(server_to_client_key);
  secure_wipe(client_to_server_iv);
  secure_wipe(server_to_client_iv);
}

ChannelKeys& ChannelKeys::operator=(ChannelKeys&& other) noexcept {
  if (this != &other) {
    wipe();
    client_to_server_key = std::move(other.client_to_server_key);
    server_to_client_key = std::move(other.server_to_client_key);
    client_to_server_iv = std::move(other.client_to_server_iv);
    server_to_client_iv = std::move(other.server_to_client_iv);
  }
  return *this;
}

namespace {

// Shared schedule layout: 88 bytes of record keys/IVs followed by the
// 32-byte resumption master secret for the *next* session's ticket.
SessionSecrets derive_session(ByteView ikm, ByteView client_nonce,
                              ByteView server_nonce, const char* info) {
  const Bytes salt = concat({client_nonce, server_nonce});
  Bytes okm = crypto::hkdf(salt, ikm, to_bytes(std::string(info)),
                           88 + kResumptionSecretLen);
  SessionSecrets s;
  s.keys.client_to_server_key.assign(okm.begin(), okm.begin() + 32);
  s.keys.server_to_client_key.assign(okm.begin() + 32, okm.begin() + 64);
  s.keys.client_to_server_iv.assign(okm.begin() + 64, okm.begin() + 76);
  s.keys.server_to_client_iv.assign(okm.begin() + 76, okm.begin() + 88);
  s.resumption_secret.assign(okm.begin() + 88,
                             okm.begin() + 88 + kResumptionSecretLen);
  secure_wipe(okm);
  return s;
}

}  // namespace

SessionSecrets derive_full_session(ByteView shared_secret,
                                   ByteView client_nonce,
                                   ByteView server_nonce) {
  return derive_session(shared_secret, client_nonce, server_nonce, kKdfInfo);
}

SessionSecrets derive_resumed_session(ByteView resumption_secret,
                                      ByteView client_nonce,
                                      ByteView server_nonce) {
  return derive_session(resumption_secret, client_nonce, server_nonce,
                        kResumeKdfInfo);
}

ChannelKeys derive_keys(ByteView shared_secret, ByteView client_nonce,
                        ByteView server_nonce) {
  // HKDF-Expand output is prefix-stable, so taking the record keys from
  // the extended schedule is bit-identical to the original 88-byte call.
  SessionSecrets s =
      derive_full_session(shared_secret, client_nonce, server_nonce);
  return std::move(s.keys);
}

namespace {

std::array<std::uint8_t, crypto::kAeadNonceSize> seq_nonce(const Bytes& iv,
                                                           std::uint64_t seq) {
  if (iv.size() != crypto::kAeadNonceSize) {
    throw CryptoError("securechan: record IV must be 12 bytes");
  }
  std::array<std::uint8_t, crypto::kAeadNonceSize> nonce;
  std::copy(iv.begin(), iv.end(), nonce.begin());
  for (int i = 0; i < 8; ++i) {
    nonce[4 + static_cast<std::size_t>(i)] ^=
        static_cast<std::uint8_t>(seq >> ((7 - i) * 8));
  }
  return nonce;
}

}  // namespace

void seal_record_into(const Bytes& key, const Bytes& iv, std::uint64_t seq,
                      ByteView aad, ByteView plaintext, Bytes& out) {
  const auto nonce = seq_nonce(iv, seq);
  crypto::aead_seal_into(key, ByteView(nonce.data(), nonce.size()), aad,
                         plaintext, out);
}

bool open_record_into(const Bytes& key, const Bytes& iv, std::uint64_t seq,
                      ByteView aad, ByteView sealed, Bytes& out) {
  const auto nonce = seq_nonce(iv, seq);
  return crypto::aead_open_into(key, ByteView(nonce.data(), nonce.size()), aad,
                                sealed, out);
}

Bytes seal_record(const Bytes& key, const Bytes& iv, std::uint64_t seq,
                  ByteView aad, ByteView plaintext) {
  Bytes out;
  seal_record_into(key, iv, seq, aad, plaintext, out);
  return out;
}

std::optional<Bytes> open_record(const Bytes& key, const Bytes& iv,
                                 std::uint64_t seq, ByteView aad,
                                 ByteView sealed) {
  Bytes out;
  if (!open_record_into(key, iv, seq, aad, sealed, out)) return std::nullopt;
  return out;
}

bool SeqWindow::fresh(std::uint64_t seq) const {
  if (!any_ || seq > highest_) return true;
  if (highest_ - seq >= kSize) return false;
  return !bit(seq);
}

void SeqWindow::mark(std::uint64_t seq) {
  if (!any_ || seq > highest_) {
    if (!any_ || seq - highest_ >= kSize) {
      bits_.fill(0);
    } else {
      // The slots the window slides over held numbers kSize lower, which
      // now fall out of it.
      for (std::uint64_t n = highest_; n != seq;) {
        ++n;
        bits_[(n % kSize) / 64] &= ~(std::uint64_t{1} << (n % 64));
      }
    }
    highest_ = seq;
    any_ = true;
  }
  bits_[(seq % kSize) / 64] |= std::uint64_t{1} << (seq % 64);
}

// ---------------------------------------------------------------- server

SecureServer::SecureServer(crypto::X25519KeyPair static_keys,
                           RandomSource& rng)
    : static_keys_(static_keys), rng_(rng) {
  // Always generated — even when a sharded deployment immediately
  // replaces it via set_ticket_keys — so the rng stream consumed by this
  // constructor is identical in every configuration (the N=1 shard must
  // stay bit-compatible with the plain testbed).
  ticket_keys_ = TicketKeyStore::generate(rng_);
}

void SecureServer::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
}

void SecureServer::set_ticket_keys(std::shared_ptr<TicketKeyStore> keys) {
  if (keys) ticket_keys_ = std::move(keys);
}

void SecureServer::set_resume_replay_capacity(std::size_t capacity) {
  resume_window_.set_capacity(capacity);
}

void SecureServer::bind(simnet::Node& node) {
  node.set_rpc_handler([this](const simnet::NodeId& /*from*/,
                              const Bytes& body,
                              std::function<void(Bytes)> respond) {
    handle_wire(body, std::move(respond));
  });
}

void SecureServer::handle_wire(const Bytes& wire,
                               std::function<void(Bytes)> respond) {
  if (metrics_) {
    metrics_->counter("securechan.bytes_in")
        .inc(static_cast<std::uint64_t>(wire.size()));
  }
  if (wire.empty()) {
    ++stats_.records_rejected;
    if (metrics_) metrics_->counter("securechan.records_rejected").inc();
    return;  // silent drop, like a TLS terminator on garbage
  }
  storage::BufReader r(wire);
  std::uint8_t type = 0;
  try {
    type = r.u8();
    if (type == kClientHello) {
      Bytes eph_pub;
      eph_pub.reserve(32);
      for (int i = 0; i < 32; ++i) eph_pub.push_back(r.u8());
      Bytes client_nonce;
      for (std::size_t i = 0; i < kNonceLen; ++i) client_nonce.push_back(r.u8());

      const auto shared = crypto::x25519(static_keys_.private_key, eph_pub);
      const Bytes server_nonce = rng_.bytes(kNonceLen);
      const std::uint64_t channel_id = next_channel_id_++;
      SessionSecrets secrets =
          derive_full_session(ByteView(shared.data(), shared.size()),
                              client_nonce, server_nonce);
      Channel chan;
      chan.keys = std::move(secrets.keys);

      // Key confirmation: record seq 0 in the server->client direction.
      seal_record_into(chan.keys.server_to_client_key,
                       chan.keys.server_to_client_iv, 0,
                       direction_aad(1, channel_id),
                       to_bytes(std::string(kConfirmPayload)),
                       chan.seal_scratch);

      storage::BufWriter w;
      w.u8(kServerHello);
      for (std::uint8_t b : server_nonce) w.u8(b);
      w.u64(channel_id);
      w.bytes(chan.seal_scratch);
      // Trailing ticket: pre-resumption clients never look past the
      // confirm record, so this extension is wire-compatible.
      w.bytes(ticket_keys_->seal(secrets.resumption_secret, rng_));
      ++stats_.tickets_issued;
      channels_.emplace(channel_id, std::move(chan));
      ++stats_.handshakes;
      Bytes hello = w.take();
      if (metrics_) {
        metrics_->counter("securechan.handshakes").inc();
        metrics_->counter("securechan.tickets_issued").inc();
        metrics_->counter("securechan.records_sealed").inc();
        metrics_->counter("securechan.bytes_out")
            .inc(static_cast<std::uint64_t>(hello.size()));
      }
      respond(std::move(hello));
      return;
    }
    if (type == kResumeHello) {
      handle_resume_hello(r, respond);
      return;
    }
    if (type == kData) {
      const std::uint64_t channel_id = r.u64();
      const std::uint64_t seq = r.u64();
      const Bytes sealed = r.bytes();
      // Optional plaintext trace slot; malformed trailing bytes throw
      // FormatError here and reject the whole record below.
      std::string trace;
      if (!r.done()) trace = r.str();
      const auto it = channels_.find(channel_id);
      if (it == channels_.end()) {
        ++stats_.records_rejected;
        if (metrics_) metrics_->counter("securechan.records_rejected").inc();
        return;
      }
      Channel& chan = it->second;
      if (!chan.client_seqs.fresh(seq)) {
        ++stats_.replays_rejected;
        if (metrics_) metrics_->counter("securechan.replays_rejected").inc();
        return;
      }
      if (!open_record_into(chan.keys.client_to_server_key,
                            chan.keys.client_to_server_iv, seq,
                            direction_aad(0, channel_id), sealed,
                            chan.open_scratch)) {
        ++stats_.records_rejected;
        if (metrics_) metrics_->counter("securechan.records_rejected").inc();
        return;
      }
      chan.client_seqs.mark(seq);
      ++stats_.records_opened;
      if (metrics_) metrics_->counter("securechan.records_opened").inc();
      if (!handler_) return;
      const std::uint64_t channel_id_copy = channel_id;
      // A parseable trace slot becomes the ambient context for the
      // dispatch; a bogus one is dropped and never echoed back.
      obs::TraceContext remote;
      std::string canonical_trace;
      if (const auto parsed = obs::parse_trace_header(trace)) {
        remote = *parsed;
        canonical_trace = obs::format_trace_header(remote);
      }
      const obs::ScopedTrace scope(remote);
      handler_(chan.open_scratch,
               [this, channel_id_copy, canonical_trace,
                respond = std::move(respond)](Bytes reply) {
        const auto chan_it = channels_.find(channel_id_copy);
        if (chan_it == channels_.end()) return;  // channel torn down
        Channel& c = chan_it->second;
        const std::uint64_t reply_seq = c.send_seq++;
        seal_record_into(c.keys.server_to_client_key,
                         c.keys.server_to_client_iv, reply_seq,
                         direction_aad(1, channel_id_copy), reply,
                         c.seal_scratch);
        storage::BufWriter w;
        w.u8(kData);
        w.u64(channel_id_copy);
        w.u64(reply_seq);
        w.bytes(c.seal_scratch);
        if (!canonical_trace.empty()) w.str(canonical_trace);
        Bytes out = w.take();
        if (metrics_) {
          metrics_->counter("securechan.records_sealed").inc();
          metrics_->counter("securechan.bytes_out")
              .inc(static_cast<std::uint64_t>(out.size()));
        }
        respond(std::move(out));
      });
      return;
    }
  } catch (const FormatError&) {
    // fall through to reject
  }
  ++stats_.records_rejected;
  if (metrics_) metrics_->counter("securechan.records_rejected").inc();
}

void SecureServer::handle_resume_hello(storage::BufReader& r,
                                       std::function<void(Bytes)>& respond) {
  // Every rejection answers a 1-byte kResumeReject (never echoing any
  // attacker-controlled bytes) so an honest client with a stale ticket
  // falls back to a full handshake in one round trip instead of a
  // timeout. A hostile sender learns only "no".
  auto reject = [&] {
    ++stats_.resumptions_rejected;
    if (metrics_) {
      metrics_->counter("securechan.resumptions_rejected").inc();
    }
    Bytes nack{kResumeReject};
    if (metrics_) {
      metrics_->counter("securechan.bytes_out")
          .inc(static_cast<std::uint64_t>(nack.size()));
    }
    respond(std::move(nack));
  };

  Bytes ticket;
  Bytes client_nonce;
  try {
    ticket = r.bytes();
    for (std::size_t i = 0; i < kNonceLen; ++i) client_nonce.push_back(r.u8());
    if (!r.done()) throw FormatError("trailing bytes in resume hello");
  } catch (const FormatError&) {
    reject();
    return;
  }

  // Fault point for the resilience harness: a fired fault makes the
  // server refuse resumption (kDrop: silently, every other kind: with a
  // reject), exercising the client's transparent full-handshake fallback.
  if (auto f = resilience::fault_check("securechan.resume")) {
    if (f->kind == resilience::FaultKind::kDrop) return;
    reject();
    return;
  }

  auto rms = ticket_keys_->open(ticket);
  if (!rms) {
    reject();
    return;
  }
  if (!resume_window_.insert(client_nonce)) {
    ++stats_.resume_replays_rejected;
    if (metrics_) {
      metrics_->counter("securechan.resume_replays_rejected").inc();
    }
    reject();
    return;
  }

  const Bytes server_nonce = rng_.bytes(kNonceLen);
  const std::uint64_t channel_id = next_channel_id_++;
  SessionSecrets secrets =
      derive_resumed_session(*rms, client_nonce, server_nonce);
  secure_wipe(*rms);
  Channel chan;
  chan.keys = std::move(secrets.keys);

  // Same key-confirmation discipline as the full handshake: only a
  // holder of the ticket key (i.e. the real fleet) can derive these keys.
  seal_record_into(chan.keys.server_to_client_key,
                   chan.keys.server_to_client_iv, 0,
                   direction_aad(1, channel_id),
                   to_bytes(std::string(kConfirmPayload)), chan.seal_scratch);

  storage::BufWriter w;
  w.u8(kResumeOk);
  w.raw(server_nonce);
  w.u64(channel_id);
  w.bytes(chan.seal_scratch);
  // Ticket chaining: every resumed session mints a successor ticket
  // under a successor secret, so one stolen ticket never replays into
  // more than the replay window already allows.
  w.bytes(ticket_keys_->seal(secrets.resumption_secret, rng_));
  ++stats_.tickets_issued;
  channels_.emplace(channel_id, std::move(chan));
  ++stats_.resumptions;
  Bytes ok = w.take();
  if (metrics_) {
    metrics_->counter("securechan.resumptions").inc();
    metrics_->counter("securechan.tickets_issued").inc();
    metrics_->counter("securechan.records_sealed").inc();
    metrics_->counter("securechan.bytes_out")
        .inc(static_cast<std::uint64_t>(ok.size()));
  }
  respond(std::move(ok));
}

// ---------------------------------------------------------------- client

SecureClient::SecureClient(WireFn wire, crypto::X25519Key pinned_server_key,
                           RandomSource& rng)
    : wire_(std::move(wire)),
      pinned_server_key_(pinned_server_key),
      rng_(rng) {}

SecureClient::SecureClient(simnet::Node& node, simnet::NodeId server,
                           crypto::X25519Key pinned_server_key,
                           RandomSource& rng, Micros timeout_us)
    : SecureClient(
          [&node, server = std::move(server), timeout_us](
              Bytes body, std::function<void(Result<Bytes>)> cb) {
            node.request(server, std::move(body), std::move(cb), timeout_us);
          },
          pinned_server_key, rng) {}

SecureClient::~SecureClient() {
  secure_wipe(resumption_secret_);
  secure_wipe(pending_eph_private_);
}

void SecureClient::reset() {
  // Ticket-preserving: ticket_ / resumption_secret_ survive, so the next
  // request resumes instead of re-running X25519 (forget_ticket() forces
  // the full exchange).
  channel_.reset();
  handshake_in_flight_ = false;
}

void SecureClient::set_wire(WireFn wire) {
  wire_ = std::move(wire);
  reset();
}

void SecureClient::retarget(simnet::Node& node, simnet::NodeId server,
                            Micros timeout_us) {
  set_wire([&node, server = std::move(server), timeout_us](
               Bytes body, std::function<void(Result<Bytes>)> cb) {
    node.request(server, std::move(body), std::move(cb), timeout_us);
  });
}

std::optional<SecureClient::SessionTicket> SecureClient::export_ticket()
    const {
  if (!has_ticket()) return std::nullopt;
  SessionTicket t;
  t.ticket = ticket_;
  t.secret = resumption_secret_;
  return t;
}

void SecureClient::adopt_ticket(SessionTicket t) {
  forget_ticket();
  ticket_ = std::move(t.ticket);
  resumption_secret_ = std::move(t.secret);
}

void SecureClient::forget_ticket() {
  secure_wipe(resumption_secret_);
  ticket_.clear();
}

void SecureClient::set_metrics(obs::MetricsRegistry* registry,
                               const Clock* clock) {
  metrics_ = registry;
  metrics_clock_ = clock;
}

const ChannelKeys* SecureClient::debug_keys() const {
  return channel_ ? &channel_->keys : nullptr;
}

void SecureClient::request(Bytes plaintext,
                           std::function<void(Result<Bytes>)> cb) {
  // Capture the ambient trace context now: a queued request is flushed
  // from the handshake callback, where the caller's context is gone.
  std::string trace;
  if (const obs::TraceContext ctx = obs::current_trace(); ctx.valid()) {
    trace = obs::format_trace_header(ctx);
  }
  if (!channel_) {
    queue_.emplace_back(std::move(plaintext), std::move(trace), std::move(cb));
    if (!handshake_in_flight_) start_handshake();
    return;
  }
  send_record(std::move(plaintext), std::move(trace), std::move(cb));
}

void SecureClient::send_record(Bytes plaintext, std::string trace,
                               std::function<void(Result<Bytes>)> cb) {
  Established& chan = *channel_;
  const std::uint64_t seq = chan.send_seq++;
  seal_record_into(chan.keys.client_to_server_key,
                   chan.keys.client_to_server_iv, seq,
                   direction_aad(0, chan.channel_id), plaintext,
                   chan.seal_scratch);
  if (metrics_) metrics_->counter("securechan.records_sealed").inc();
  storage::BufWriter w;
  w.u8(kData);
  w.u64(chan.channel_id);
  w.u64(seq);
  w.bytes(chan.seal_scratch);
  if (!trace.empty()) w.str(trace);

  wire_(
      w.take(),
      [this, cb = std::move(cb)](Result<Bytes> wire) {
        if (!wire.ok()) {
          cb(Result<Bytes>(wire.failure()));
          return;
        }
        if (!channel_) {
          cb(Result<Bytes>(Err::kInternal, "channel was reset"));
          return;
        }
        try {
          storage::BufReader r(wire.value());
          if (r.u8() != kData) throw FormatError("not a data record");
          const std::uint64_t channel_id = r.u64();
          const std::uint64_t seq = r.u64();
          const Bytes sealed = r.bytes();
          if (channel_id != channel_->channel_id) {
            throw FormatError("wrong channel id");
          }
          if (!channel_->server_seqs.fresh(seq)) {
            cb(Result<Bytes>(Err::kVerificationFailed, "replayed record"));
            return;
          }
          if (!open_record_into(channel_->keys.server_to_client_key,
                                channel_->keys.server_to_client_iv, seq,
                                direction_aad(1, channel_id), sealed,
                                channel_->open_scratch)) {
            cb(Result<Bytes>(Err::kVerificationFailed,
                             "record authentication failed"));
            return;
          }
          channel_->server_seqs.mark(seq);
          cb(Result<Bytes>(channel_->open_scratch));
        } catch (const FormatError& e) {
          cb(Result<Bytes>(Err::kVerificationFailed,
                           std::string("malformed record: ") + e.what()));
        }
      });
}

void SecureClient::start_handshake() {
  handshake_in_flight_ = true;
  if (has_ticket()) {
    start_resume();
  } else {
    start_full_handshake();
  }
}

void SecureClient::install_session(std::uint64_t channel_id,
                                   SessionSecrets secrets, Bytes ticket) {
  Established est;
  est.channel_id = channel_id;
  est.keys = std::move(secrets.keys);
  est.server_seqs.mark(0);  // the confirm record
  channel_ = std::move(est);
  handshake_in_flight_ = false;
  secure_wipe(resumption_secret_);
  resumption_secret_ = std::move(secrets.resumption_secret);
  ticket_ = std::move(ticket);
  flush_queue();
}

void SecureClient::start_resume() {
  handshake_started_us_ = metrics_clock_ ? metrics_clock_->now_us() : 0;
  pending_client_nonce_ = rng_.bytes(kNonceLen);

  storage::BufWriter w;
  w.u8(kResumeHello);
  w.bytes(ticket_);
  w.raw(pending_client_nonce_);

  wire_(
      w.take(),
      [this](Result<Bytes> wire) {
        // Resumption is an optimistic fast path: *any* failure —
        // transport error, server reject, malformed or unverifiable
        // reply — burns the ticket and falls back to one full handshake.
        // Queued requests never observe the attempt.
        auto fall_back = [this] {
          forget_ticket();
          if (metrics_) {
            metrics_->counter("securechan.client_resumptions_rejected").inc();
          }
          start_full_handshake();
        };
        if (!wire.ok()) {
          fall_back();
          return;
        }
        try {
          storage::BufReader r(wire.value());
          if (r.u8() != kResumeOk) {
            fall_back();  // kResumeReject, or something else entirely
            return;
          }
          Bytes server_nonce;
          for (std::size_t i = 0; i < kNonceLen; ++i) {
            server_nonce.push_back(r.u8());
          }
          const std::uint64_t channel_id = r.u64();
          const Bytes confirm = r.bytes();
          Bytes next_ticket;
          if (!r.done()) next_ticket = r.bytes();

          SessionSecrets secrets = derive_resumed_session(
              resumption_secret_, pending_client_nonce_, server_nonce);
          const auto confirm_plain = open_record(
              secrets.keys.server_to_client_key,
              secrets.keys.server_to_client_iv, 0,
              direction_aad(1, channel_id), confirm);
          if (!confirm_plain || to_string(*confirm_plain) != kConfirmPayload) {
            // Whoever answered could not derive the resumed keys.
            fall_back();
            return;
          }
          if (metrics_) {
            metrics_->counter("securechan.client_resumptions").inc();
            if (metrics_clock_) {
              const Micros rtt =
                  metrics_clock_->now_us() - handshake_started_us_;
              metrics_->histogram("securechan.handshake_latency_us")
                  .record(rtt);
              metrics_->histogram("securechan.handshake_latency_us.resumed")
                  .record(rtt);
            }
          }
          install_session(channel_id, std::move(secrets),
                          std::move(next_ticket));
        } catch (const FormatError&) {
          fall_back();
        }
      });
}

void SecureClient::start_full_handshake() {
  handshake_started_us_ = metrics_clock_ ? metrics_clock_->now_us() : 0;
  const auto eph = crypto::x25519_generate(rng_);
  pending_eph_private_.assign(eph.private_key.begin(), eph.private_key.end());
  pending_client_nonce_ = rng_.bytes(kNonceLen);

  storage::BufWriter w;
  w.u8(kClientHello);
  for (std::uint8_t b : eph.public_key) w.u8(b);
  for (std::uint8_t b : pending_client_nonce_) w.u8(b);

  wire_(
      w.take(),
      [this](Result<Bytes> wire) {
        handshake_in_flight_ = false;
        auto fail_all = [this](Err code, const std::string& msg) {
          auto queue = std::move(queue_);
          queue_.clear();
          for (auto& [payload, trace, cb] : queue) {
            cb(Result<Bytes>(code, msg));
          }
        };
        if (!wire.ok()) {
          fail_all(wire.failure().code, wire.failure().message);
          return;
        }
        try {
          storage::BufReader r(wire.value());
          if (r.u8() != kServerHello) throw FormatError("not a server hello");
          Bytes server_nonce;
          for (std::size_t i = 0; i < kNonceLen; ++i) {
            server_nonce.push_back(r.u8());
          }
          const std::uint64_t channel_id = r.u64();
          const Bytes confirm = r.bytes();
          Bytes ticket;
          if (!r.done()) ticket = r.bytes();

          const auto shared = crypto::x25519(
              pending_eph_private_,
              ByteView(pinned_server_key_.data(), pinned_server_key_.size()));
          SessionSecrets secrets =
              derive_full_session(ByteView(shared.data(), shared.size()),
                                  pending_client_nonce_, server_nonce);
          const auto confirm_plain = open_record(
              secrets.keys.server_to_client_key,
              secrets.keys.server_to_client_iv, 0,
              direction_aad(1, channel_id), confirm);
          if (!confirm_plain ||
              to_string(*confirm_plain) != kConfirmPayload) {
            // Whoever answered does not hold the pinned static key.
            fail_all(Err::kVerificationFailed,
                     "server key confirmation failed (pinned key mismatch)");
            return;
          }
          secure_wipe(pending_eph_private_);
          if (metrics_) {
            metrics_->counter("securechan.client_handshakes").inc();
            if (metrics_clock_) {
              const Micros rtt =
                  metrics_clock_->now_us() - handshake_started_us_;
              metrics_->histogram("securechan.handshake_latency_us")
                  .record(rtt);
              metrics_->histogram("securechan.handshake_latency_us.cold")
                  .record(rtt);
            }
          }
          install_session(channel_id, std::move(secrets), std::move(ticket));
        } catch (const FormatError& e) {
          fail_all(Err::kVerificationFailed,
                   std::string("malformed server hello: ") + e.what());
        }
      });
}

void SecureClient::flush_queue() {
  auto queue = std::move(queue_);
  queue_.clear();
  for (auto& [payload, trace, cb] : queue) {
    send_record(std::move(payload), std::move(trace), std::move(cb));
  }
}

}  // namespace amnesia::securechan
