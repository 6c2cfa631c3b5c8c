// The Amnesia web server (paper sections III, V-A).
//
// One process bundles the three components the paper names — session/user
// management, a cryptography component, and the database handler — behind
// an HTTP API served over the secure channel (HTTPS stand-in) with a
// CherryPy-style fixed worker pool (default 10 threads, as in the
// prototype).
//
// HTTP API (all bodies are form-encoded):
//   POST /signup            user, master_password
//   POST /login             user, master_password      -> session cookie
//   POST /logout
//   POST /pair/start        (auth)                     -> captcha code
//   POST /pair/complete     user, captcha, pid, reg_id    [called by phone]
//   POST /accounts/add      username, domain [, policy]  (auth)
//   GET  /accounts          (auth)   -> lines "username\tdomain"
//   POST /accounts/remove   username, domain             (auth)
//   POST /accounts/rotate   username, domain             (auth)  new sigma
//   POST /password/request  username, domain             (auth)
//        -> waits for the phone's token, then returns the password
//   POST /token             request_id, token, tstart     [called by phone]
//   POST /token/decline     request_id                    [called by phone]
//   POST /recover/phone     backup (base64 K_p blob)     (auth)
//        -> lines "username\tdomain\told_password"; purges phone binding
//   POST /recover/mp/start  new_master_password          (auth)
//   POST /recover/mp/confirm user, pid                    [called by phone]
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/generate.h"
#include "core/protocol.h"
#include "crypto/x25519.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "rendezvous/push_service.h"
#include "resilience/policy.h"
#include "securechan/channel.h"
#include "server/auth.h"
#include "server/db.h"
#include "simnet/node.h"
#include "websvc/server.h"
#include "websvc/session.h"

namespace amnesia::server {

struct AmnesiaServerConfig {
  simnet::NodeId node_id = "amnesia-server";
  simnet::NodeId rendezvous_node = "gcm";
  int workers = 10;  // the prototype's CherryPy thread pool size
  crypto::PasswordHasherOptions mp_hash{};
  ThrottleConfig throttle{};
  std::string db_path;  // empty = in-memory

  // --- Shard-per-core deployment (docs/SHARDING.md) ---
  //
  // One AmnesiaServer is one shard. The defaults reproduce the
  // single-server behaviour bit-for-bit; server::ShardRouter sets all
  // four when it wires N shards together.

  // The static channel key pair to serve under. Every shard of one
  // deployment must present the same self-signed certificate (clients pin
  // one key and SO_REUSEPORT hands their connection to an arbitrary
  // shard); nullopt generates a fresh pair from `rng` as before.
  std::optional<crypto::X25519KeyPair> channel_keys;
  // The ticket-sealing key store shared by every shard of one deployment,
  // so a session ticket minted by shard k resumes against shard j with no
  // cross-shard traffic (see securechan/ticket.h). Null = the shard's
  // SecureServer keeps its own constructor-generated store, exactly as a
  // standalone server.
  std::shared_ptr<securechan::TicketKeyStore> ticket_keys;
  // Prepended to session tokens so a cookie names its owning shard
  // ("s2." on shard 2). Empty = untagged tokens, exactly as today.
  std::string session_token_prefix;
  // Pending-password request ids start here and advance by this stride.
  // Shard k of N uses first = k + 1, stride = N, so id % N recovers the
  // owning shard and ids never collide across shards. 1/1 = the old
  // dense sequence.
  std::uint64_t request_id_first = 1;
  std::uint64_t request_id_stride = 1;

  // Virtual CPU time charged per request (the Python + PyCrypto cost the
  // latency evaluation observes server-side).
  double token_compute_mean_ms = 15.0;
  double token_compute_stddev_ms = 5.0;
  double light_compute_ms = 2.0;

  Micros phone_wait_timeout_us = 30'000'000;  // browser gets 504 after this

  // Section VIII extension: the session mechanism. When > 0, a generated
  // password is cached per (session, account) for this long, so repeated
  // requests within a session skip the phone round-trip. 0 reproduces the
  // paper's prototype (a phone confirmation on every request).
  Micros password_cache_ttl_us = 0;

  // --- Graceful degradation (resilience layer) ---

  // Circuit breaker guarding the rendezvous push leg. While it is open
  // the server skips the doomed push RPC entirely and parks the request
  // payload in a per-registration poll queue that the phone drains via
  // POST /push/poll — a full login still completes with rendezvous down.
  resilience::CircuitBreaker::Config rendezvous_breaker{};
  // Timeout on the push RPC itself (clamped under phone_wait_timeout_us so
  // a dead rendezvous fails — and trips the breaker — before the browser
  // gives up).
  Micros push_rpc_timeout_us = simnet::Node::kDefaultTimeoutUs;
  Micros poll_entry_ttl_us = 60'000'000;  // as long as a push lives

  // When > 0, enables HTTP load shedding: once every worker is busy and
  // the accept queue reaches this depth, new requests get an immediate
  // 503 + Retry-After instead of an unbounded wait.
  std::size_t shed_max_queue = 0;

  // --- Observability (docs/OBSERVABILITY.md) ---

  // Slow-request SLO: a phone round whose end-to-end duration exceeds
  // this lands in the GET /slowlog flight recorder with its trace id,
  // per-hop critical-path blame, and resilience flags. 0 disables (the
  // default: no recording cost, deterministic artifacts unchanged).
  Micros slow_request_slo_us = 0;
  // Thread-name filter this server applies to GET /profile scrapes of
  // the process-wide sampling profiler. The shard router sets shard k's
  // filter to net::ReactorPool::thread_name(k), so each in-process shard
  // reports only its own reactor's samples and the scatter-gather merge
  // never double-counts. Empty = all threads (standalone server).
  std::string profile_thread;

  // --- Cluster mode (docs/CLUSTER.md) ---
  //
  // When true, the server mirrors its process-resident protocol state —
  // web sessions, in-flight phone round-trips, parked poll payloads —
  // into cluster_* tables, so the storage layer's journal shipping
  // replicates it to followers record-for-record. promote_to_primary()
  // rebuilds the live maps from those tables, which is what lets a
  // promoted follower finish a round the crashed primary started
  // mid-protocol. false reproduces the standalone server bit-for-bit
  // (no extra tables, no extra journal records).
  bool replicated_state = false;
};

struct AmnesiaServerStats {
  std::uint64_t signups = 0;
  std::uint64_t logins_ok = 0;
  std::uint64_t logins_failed = 0;
  std::uint64_t logins_throttled = 0;
  std::uint64_t pairings_completed = 0;
  std::uint64_t pairings_rejected = 0;
  std::uint64_t password_requests = 0;
  std::uint64_t tokens_accepted = 0;  // phone tokens matched to a round
  std::uint64_t passwords_generated = 0;
  std::uint64_t requests_declined = 0;
  std::uint64_t requests_timed_out = 0;
  std::uint64_t phone_recoveries = 0;
  std::uint64_t mp_changes = 0;
  std::uint64_t cache_hits = 0;       // session-mechanism extension
  std::uint64_t vault_stores = 0;     // chosen-password-vault extension
  std::uint64_t vault_retrievals = 0;
  std::uint64_t push_failures = 0;    // push leg failed; fell back to poll
  std::uint64_t poll_enqueued = 0;    // payloads parked for POST /push/poll
  std::uint64_t poll_delivered = 0;   // payloads handed to a polling phone
  std::uint64_t rounds_recovered = 0;  // in-flight rounds adopted at promote
  std::uint64_t awaits_parked = 0;     // POST /password/await responders held
};

class AmnesiaServer {
 public:
  AmnesiaServer(simnet::Simulation& sim, simnet::Network& network,
                RandomSource& rng, AmnesiaServerConfig config = {});
  ~AmnesiaServer();

  /// The static public key clients pin (the self-signed certificate).
  const crypto::X25519Key& public_key() const {
    return channel_keys_.public_key;
  }

  /// Breach surface: the static channel key pair is server data at rest
  /// (the self-signed certificate's private key on disk), so a section
  /// IV-C server breach hands it to the attacker. Only the attack harness
  /// should call this.
  const crypto::X25519KeyPair& breached_static_keys() const {
    return channel_keys_;
  }
  const simnet::NodeId& node_id() const { return node_->id(); }

  DbHandler& db() { return db_; }
  const AmnesiaServerStats& stats() const { return stats_; }
  websvc::HttpServer& http() { return http_; }
  /// The secure-channel terminator — the NetGateway feeds it wire
  /// envelopes received over real TCP (SecureServer::handle_wire is
  /// transport-agnostic).
  securechan::SecureServer& secure() { return secure_; }
  websvc::SessionManager& sessions() { return sessions_; }
  simnet::Simulation& sim() { return sim_; }

  /// The whole-testbed metrics registry (clocked by the simulation). The
  /// server wires its own subsystems in; the testbed additionally points
  /// the rendezvous service and client-side channels at it so one snapshot
  /// covers the full bilateral round. Served as text at GET /metrics.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// The slow-request flight recorder (GET /slowlog). Threshold comes
  /// from config.slow_request_slo_us; tests may tighten it at runtime.
  obs::SlowLog& slowlog() { return slowlog_; }
  const obs::SlowLog& slowlog() const { return slowlog_; }

  /// End-to-end password-generation latencies observed at the server
  /// (tend - tstart), in microseconds — the measurement of section VI-B.
  const std::vector<Micros>& password_latencies() const {
    return password_latencies_;
  }
  void clear_latencies() { password_latencies_.clear(); }

  // --- Cluster hooks (src/cluster; docs/CLUSTER.md) ---

  /// What GET /healthz reports about this replica's place in the cluster.
  /// The default (no provider installed) is a standalone primary.
  struct ClusterStatus {
    std::string role = "primary";  // "primary" | "follower"
    std::uint64_t replication_lag = 0;  // log records not yet acked
    std::size_t followers = 0;
  };
  using ClusterStatusFn = std::function<ClusterStatus()>;
  void set_cluster_status(ClusterStatusFn fn) {
    cluster_status_ = std::move(fn);
  }

  /// Installed by the cluster testbeds so an injected kCrash stops the
  /// process cooperatively (take the node offline, stop timers) instead
  /// of unwinding the event-loop thread. Without a handler crash()
  /// throws resilience::CrashInjected, the single-process behaviour.
  using CrashHandler = std::function<void()>;
  void set_crash_handler(CrashHandler fn) { crash_handler_ = std::move(fn); }

  /// Installed by the cluster layer on the primary: defers `fn` until the
  /// records journaled so far are acked by the followers (or a deadline
  /// passes), so side effects that escape the process — the rendezvous
  /// push handing R to the phone — never outrun the replication stream.
  /// Absent, deferred work runs inline.
  using ReplicationBarrier = std::function<void(std::function<void()>)>;
  void set_replication_barrier(ReplicationBarrier fn) {
    replication_barrier_ = std::move(fn);
  }
  /// Simulates a hard crash at the current instant (fault point
  /// "server.push.acked" routes here). Idempotent.
  void crash();
  bool crashed() const { return crashed_; }

  /// Rebuilds the process-resident maps — web sessions, parked poll
  /// payloads, in-flight phone round-trips — from the replicated
  /// cluster_* tables. The cluster layer calls this exactly once on the
  /// follower it promotes; recovered rounds re-arm their 504 backstop
  /// and answer through POST /password/await instead of the (dead)
  /// original connection.
  void promote_to_primary();

 private:
  void install_routes();

  /// Resolves the session cookie to a user name or responds 401.
  std::optional<std::string> require_auth(const websvc::Request& req,
                                          const websvc::Responder& respond);

  // Route handlers (names mirror the API table above).
  void handle_signup(const websvc::Request&, const websvc::Responder&);
  void handle_login(const websvc::Request&, const websvc::Responder&);
  void handle_logout(const websvc::Request&, const websvc::Responder&);
  void handle_pair_start(const websvc::Request&, const websvc::Responder&);
  void handle_pair_complete(const websvc::Request&, const websvc::Responder&);
  void handle_accounts_add(const websvc::Request&, const websvc::Responder&);
  void handle_accounts_list(const websvc::Request&, const websvc::Responder&);
  void handle_accounts_remove(const websvc::Request&,
                              const websvc::Responder&);
  void handle_accounts_rotate(const websvc::Request&,
                              const websvc::Responder&);
  void handle_password_request(const websvc::Request&,
                               const websvc::Responder&);
  void handle_token(const websvc::Request&, const websvc::Responder&);
  void handle_token_decline(const websvc::Request&, const websvc::Responder&);
  void handle_recover_phone(const websvc::Request&, const websvc::Responder&);
  void handle_recover_mp_start(const websvc::Request&,
                               const websvc::Responder&);
  void handle_recover_mp_confirm(const websvc::Request&,
                                 const websvc::Responder&);
  void handle_vault_store(const websvc::Request&, const websvc::Responder&);
  void handle_vault_retrieve(const websvc::Request&,
                             const websvc::Responder&);
  void handle_vault_list(const websvc::Request&, const websvc::Responder&);
  void handle_vault_remove(const websvc::Request&, const websvc::Responder&);
  void handle_push_poll(const websvc::Request&, const websvc::Responder&);
  void handle_password_await(const websvc::Request&,
                             const websvc::Responder&);

  struct PendingPairing {
    std::string captcha;
    Micros expires_at;
  };
  /// What the phone's token will be used for once it arrives.
  enum class TokenPurpose { kGenerate, kVaultStore, kVaultRetrieve };
  struct PendingPassword {
    std::string user;
    core::AccountId account;
    Micros tstart_us;
    websvc::Responder respond;
    TokenPurpose purpose = TokenPurpose::kGenerate;
    std::string chosen_password;  // kVaultStore only
    std::string session_token;    // for the session cache
    // Open spans for this round; ended on whichever completion path fires
    // (token, decline, timeout, push failure). end() tolerates invalid
    // contexts. Both join the trace of the browser request that started
    // the round (the ambient http.server span).
    obs::TraceContext round_span;
    obs::TraceContext wait_span;
    // True for a round adopted at promote_to_primary(): its original
    // browser connection died with the primary, so `respond` routes the
    // outcome into the /password/await rendezvous instead.
    bool recovered = false;
    // Flight-recorder context: did this round fall back to poll delivery
    // (breaker open or push failure), and how far behind was the reactor
    // loop when the round was admitted (net.loop.dispatch_delay_us).
    bool degraded = false;
    std::int64_t loop_delay_at_admission = 0;
  };
  struct CachedPassword {
    std::string password;
    Micros expires_at;
  };

  /// Starts a phone round-trip for `pending`; shared by password
  /// generation and both vault flows (the phone cannot tell them apart).
  void begin_phone_round_trip(const core::Seed& seed,
                              const std::string& registration_id,
                              const std::string& origin_ip,
                              PendingPassword pending);

  /// Drops cached passwords for one account across all sessions (seed
  /// rotation / account removal make them stale).
  void invalidate_cached_passwords(const std::string& user,
                                   const core::AccountId& id);
  struct PendingMpChange {
    crypto::PasswordRecord new_record;
    Micros expires_at;
  };

  /// Ends the wait + round spans of a pending request (any outcome).
  void finish_round_spans(const PendingPassword& pending);

  /// Flight recorder: if `now - pending.tstart_us` blew the SLO, records
  /// a slowlog entry with per-hop critical-path blame over the round's
  /// trace. Call after the round's spans have been ended (unfinished
  /// spans carry no self-time).
  void maybe_record_slow(const PendingPassword& pending, const char* outcome,
                         Micros now);

  /// A push payload parked for the phone to fetch over POST /push/poll —
  /// the degradation path when the rendezvous breaker is open or a push
  /// RPC fails outright.
  struct PollEntry {
    Bytes payload;
    Micros expires_at;
    std::uint64_t seq = 0;  // cluster_polls row key; 0 = not replicated
  };
  void enqueue_poll(const std::string& registration_id, Bytes payload);

  // --- replicated-state plumbing (config_.replicated_state) ---

  /// Creates the cluster_* tables on first use (journaled, so followers
  /// get the creates through the shipping stream — they must NOT create
  /// the tables themselves).
  void ensure_cluster_tables();
  /// Mirrors one in-flight round into cluster_rounds.
  void persist_round(std::uint64_t request_id, const PendingPassword& p);
  /// Drops a round row once any completion path fires.
  void remove_round_row(std::uint64_t request_id);
  /// Drops a poll row when its in-memory entry is dropped or expires.
  void drop_poll_row(std::uint64_t seq);
  /// Key identifying the account a browser can await on.
  static std::string await_key(const std::string& user,
                               const core::AccountId& id);
  /// Hands `resp` to a parked /password/await responder for `key`; when
  /// none is parked and `store_if_unclaimed`, keeps it for the next
  /// await (the recovered-round path: outcome first, await second).
  void deliver_await(const std::string& key, const websvc::Response& resp,
                     bool store_if_unclaimed);
  /// Arms (or re-arms, after promotion) the 504 backstop for a round.
  void arm_round_timeout(std::uint64_t request_id);

  simnet::Simulation& sim_;
  RandomSource& rng_;
  obs::MetricsRegistry metrics_;
  AmnesiaServerConfig config_;
  crypto::X25519KeyPair channel_keys_;
  std::unique_ptr<simnet::Node> node_;
  securechan::SecureServer secure_;
  websvc::HttpServer http_;
  websvc::SessionManager sessions_;
  DbHandler db_;
  ThrottleGuard throttle_;
  crypto::PasswordHasher mp_hasher_;
  rendezvous::PushClient push_;
  resilience::CircuitBreaker rendezvous_breaker_;

  std::map<std::string, std::deque<PollEntry>> poll_queues_;
  std::map<std::string, PendingPairing> pending_pairings_;
  std::map<std::uint64_t, PendingPassword> pending_passwords_;
  std::map<std::string, PendingMpChange> pending_mp_changes_;
  std::map<std::string, CachedPassword> password_cache_;
  std::uint64_t next_request_id_ = 1;  // re-seeded from config in the ctor

  // /password/await rendezvous: parked responders and unclaimed outcomes
  // of recovered rounds, both keyed by await_key().
  std::map<std::string, websvc::Responder> await_waiters_;
  std::map<std::string, websvc::Response> await_results_;
  std::uint64_t poll_seq_ = 0;  // cluster_polls row keys, monotonic

  ClusterStatusFn cluster_status_;
  CrashHandler crash_handler_;
  ReplicationBarrier replication_barrier_;
  bool crashed_ = false;

  std::vector<Micros> password_latencies_;
  AmnesiaServerStats stats_;
  obs::SlowLog slowlog_;
};

}  // namespace amnesia::server
