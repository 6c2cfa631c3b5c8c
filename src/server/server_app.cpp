#include "server/server_app.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/logging.h"
#include "crypto/aead.h"
#include "crypto/crypto_metrics.h"
#include "obs/profiler.h"
#include "resilience/fault.h"

namespace amnesia::server {

using websvc::Method;
using websvc::PathParams;
using websvc::Request;
using websvc::Responder;
using websvc::Response;

namespace {

/// Pulls a required form field or responds 400.
std::optional<std::string> need_field(
    const std::map<std::string, std::string>& form, const std::string& name,
    const Responder& respond) {
  const auto it = form.find(name);
  if (it == form.end() || it->second.empty()) {
    respond(Response::error(400, "missing field: " + name));
    return std::nullopt;
  }
  return it->second;
}

/// need_field for a user name, account username or domain. These are
/// joined with \x1f into storage keys (DbHandler::account_key) and listed
/// with \t and \n between fields, so a byte below 0x20 in one could alias
/// another user's key or split a listing line: such a value is a 400.
std::optional<std::string> need_identifier(
    const std::map<std::string, std::string>& form, const std::string& name,
    const Responder& respond) {
  auto value = need_field(form, name, respond);
  if (value && std::ranges::any_of(*value, [](char c) {
        return static_cast<unsigned char>(c) < 0x20;
      })) {
    respond(Response::error(400, "control byte in field: " + name));
    return std::nullopt;
  }
  return value;
}

// How long the rendezvous service holds an undelivered push, how long a
// pairing CAPTCHA or a master-password change waits for the phone, and
// how many payloads one registration's poll queue parks (drop-oldest).
constexpr Micros kPushTtlUs = 60'000'000;
constexpr Micros kCaptchaTtlUs = 5ll * 60 * 1'000'000;
constexpr std::size_t kPollQueueMax = 32;

/// Strict decimal parse for observability query values (?ms=, ?since=):
/// digits only, bounded length and magnitude. Anything else -> nullopt,
/// which the endpoints turn into a 400 — hostile query strings are
/// rejected, never guessed at (same stance as the trace-header codec).
std::optional<std::uint64_t> parse_bounded_decimal(const std::string& s,
                                                   std::uint64_t max_value) {
  if (s.empty() || s.size() > 19) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    if (value > max_value) return std::nullopt;
  }
  return value;
}

/// The ?since= filter of /events and /slowlog: 0 when absent, nullopt
/// once a malformed value has been answered with a 400.
std::optional<Micros> since_filter(const Request& req,
                                   const Responder& respond) {
  const auto it = req.query.find("since");
  if (it == req.query.end()) return 0;
  const auto parsed = parse_bounded_decimal(
      it->second, std::numeric_limits<std::int64_t>::max());
  if (!parsed) respond(Response::error(400, "malformed since filter"));
  return parsed ? std::optional<Micros>(*parsed) : std::nullopt;
}

}  // namespace

AmnesiaServer::AmnesiaServer(simnet::Simulation& sim,
                             simnet::Network& network, RandomSource& rng,
                             AmnesiaServerConfig config)
    : sim_(sim),
      rng_(rng),
      metrics_(&sim.clock()),
      config_(std::move(config)),
      channel_keys_(config_.channel_keys ? *config_.channel_keys
                                         : crypto::x25519_generate(rng)),
      node_(std::make_unique<simnet::Node>(network, config_.node_id)),
      secure_(channel_keys_, rng),
      http_(sim, config_.workers),
      sessions_(sim.clock(), rng),
      db_(config_.db_path),
      throttle_(sim.clock(), config_.throttle),
      mp_hasher_(config_.mp_hash),
      push_(*node_, config_.rendezvous_node),
      rendezvous_breaker_("rendezvous", config_.rendezvous_breaker),
      next_request_id_(config_.request_id_first) {
  sessions_.set_token_prefix(config_.session_token_prefix);
  // Installed after construction so the SecureServer ctor consumes the
  // same rng bytes in every deployment (N=1 bit-compatibility).
  if (config_.ticket_keys) secure_.set_ticket_keys(config_.ticket_keys);
  http_.set_service_time([this](const Request& req) -> Micros {
    // The final password computation (token handling) is the expensive
    // server-side step in the latency pipeline; everything else is light
    // routing/session work.
    if (req.path == "/token") {
      const double ms = std::max(
          0.5, rng_.gaussian(config_.token_compute_mean_ms,
                             config_.token_compute_stddev_ms));
      return ms_to_us(ms);
    }
    return ms_to_us(config_.light_compute_ms);
  });
  http_.set_metrics(&metrics_);
  secure_.set_metrics(&metrics_);
  db_.raw().set_metrics(&metrics_);
  rendezvous_breaker_.set_metrics(&metrics_);
  http_.set_load_shed(config_.shed_max_queue);
  // Crypto-layer load (PBKDF2 calls from master-password hashing) lands in
  // the same registry, so GET /metrics exposes it. Process-wide hook: with
  // several servers the most recently constructed one owns it.
  crypto::set_crypto_metrics(&metrics_);
  slowlog_.set_threshold(config_.slow_request_slo_us);
  install_routes();
  secure_.set_handler([this](const Bytes& plain,
                             std::function<void(Bytes)> respond) {
    http_.handle_bytes(plain, std::move(respond));
  });
  secure_.bind(*node_);
}

AmnesiaServerStats AmnesiaServer::stats() const {
  AmnesiaServerStats s = plain_;
  s.password_requests = password_requests_.value();
  s.passwords_generated = passwords_generated_.value();
  s.requests_declined = requests_declined_.value();
  s.requests_timed_out = requests_timed_out_.value();
  s.cache_hits = cache_hits_.value();
  s.push_failures = push_failures_.value();
  s.poll_enqueued = poll_enqueued_.value();
  s.poll_delivered = poll_delivered_.value();
  s.rounds_recovered = rounds_recovered_.value();
  s.awaits_parked = awaits_parked_.value();
  return s;
}

AmnesiaServer::~AmnesiaServer() {
  // Never leave the process-wide crypto hook pointing at a dead registry.
  crypto::detach_crypto_metrics(&metrics_);
}

void AmnesiaServer::finish_round_spans(const PendingPassword& pending) {
  metrics_.tracer().end(pending.wait_span);
  metrics_.tracer().end(pending.round_span);
}

void AmnesiaServer::maybe_record_slow(const PendingPassword& pending,
                                      const char* outcome, Micros now) {
  const Micros duration = now - pending.tstart_us;
  if (!slowlog_.should_record(duration)) return;
  obs::SlowLogEntry entry;
  entry.at = now;
  entry.trace_id = pending.round_span.trace_id;
  switch (pending.purpose) {
    case TokenPurpose::kGenerate: entry.name = "login"; break;
    case TokenPurpose::kVaultStore: entry.name = "vault.store"; break;
    case TokenPurpose::kVaultRetrieve: entry.name = "vault.retrieve"; break;
  }
  entry.outcome = outcome;
  entry.duration_us = duration;
  entry.threshold_us = slowlog_.threshold();
  entry.loop_delay_us = pending.loop_delay_at_admission;
  entry.degraded = pending.degraded;
  entry.breaker_open = rendezvous_breaker_.state() !=
                       resilience::CircuitBreaker::State::kClosed;
  // Per-hop blame over this round's own trace tree. The registry is
  // whole-testbed, so the phone/GCM hops are local too; spans still open
  // (the browser's enclosing http.server span) carry no self-time and
  // are skipped by critical_path.
  if (entry.trace_id.valid()) {
    entry.blame = obs::critical_path(metrics_.tracer().trace(entry.trace_id));
  }
  slowlog_.record(std::move(entry));
}

void AmnesiaServer::install_routes() {
  auto route = [this](Method m, const std::string& path,
                      void (AmnesiaServer::*fn)(const Request&,
                                                const Responder&)) {
    http_.router().add(m, path,
                       [this, fn](const Request& req, const PathParams&,
                                  Responder respond) {
                         (this->*fn)(req, respond);
                       });
  };
  route(Method::kPost, "/signup", &AmnesiaServer::handle_signup);
  route(Method::kPost, "/login", &AmnesiaServer::handle_login);
  route(Method::kPost, "/logout", &AmnesiaServer::handle_logout);
  route(Method::kPost, "/pair/start", &AmnesiaServer::handle_pair_start);
  route(Method::kPost, "/pair/complete",
        &AmnesiaServer::handle_pair_complete);
  route(Method::kPost, "/accounts/add", &AmnesiaServer::handle_accounts_add);
  route(Method::kGet, "/accounts", &AmnesiaServer::handle_accounts_list);
  route(Method::kPost, "/accounts/remove",
        &AmnesiaServer::handle_accounts_remove);
  route(Method::kPost, "/accounts/rotate",
        &AmnesiaServer::handle_accounts_rotate);
  route(Method::kPost, "/password/request",
        &AmnesiaServer::handle_password_request);
  route(Method::kPost, "/token", &AmnesiaServer::handle_token);
  route(Method::kPost, "/token/decline",
        &AmnesiaServer::handle_token_decline);
  // The phone's answer completes a round that already holds a worker, and
  // the phone takes any status as final: a shed answer would strand the
  // round until its phone-wait timeout. So these queue past the bound.
  http_.never_shed("/token");
  http_.never_shed("/token/decline");
  route(Method::kPost, "/recover/phone",
        &AmnesiaServer::handle_recover_phone);
  route(Method::kPost, "/recover/mp/start",
        &AmnesiaServer::handle_recover_mp_start);
  route(Method::kPost, "/recover/mp/confirm",
        &AmnesiaServer::handle_recover_mp_confirm);
  route(Method::kPost, "/vault/store", &AmnesiaServer::handle_vault_store);
  route(Method::kPost, "/vault/retrieve",
        &AmnesiaServer::handle_vault_retrieve);
  route(Method::kGet, "/vault", &AmnesiaServer::handle_vault_list);
  route(Method::kPost, "/vault/remove", &AmnesiaServer::handle_vault_remove);
  // Degraded-mode pull path: the phone drains parked push payloads when
  // the rendezvous push leg is broken. The registration id is unguessable
  // (a GCM token), so presenting it is the same bearer credential the
  // push path trusts.
  route(Method::kPost, "/push/poll", &AmnesiaServer::handle_push_poll);
  // Failover re-attach: a browser whose /password/request connection died
  // with the old primary asks the promoted one for the outcome of the
  // round that is still in flight for (username, domain).
  route(Method::kPost, "/password/await",
        &AmnesiaServer::handle_password_await);

  // Text snapshot of the whole-testbed registry. Exempt, so serving it
  // neither perturbs the pool nor mutates the numbers it is exporting —
  // the body stays byte-identical to an in-process snapshot.
  http_.router().add(Method::kGet, "/metrics",
                     [this](const Request&, const PathParams&,
                            Responder respond) {
                       respond(Response::ok_text(
                           obs::to_text(metrics_.snapshot())));
                     });
  http_.metrics_exempt("/metrics");

  // One trace tree as JSON, by 32-hex trace id. Exempt like /metrics:
  // fetching a trace must not grow it.
  http_.router().add(
      Method::kGet, "/trace/:id",
      [this](const Request&, const PathParams& params, Responder respond) {
        const auto it = params.find("id");
        const auto id =
            obs::parse_trace_id_hex(it != params.end() ? it->second : "");
        if (!id) {
          respond(Response::error(400, "malformed trace id"));
          return;
        }
        const auto spans = metrics_.tracer().trace(*id);
        if (spans.empty()) {
          respond(Response::error(404, "unknown trace"));
          return;
        }
        respond(Response::ok_text(obs::trace_to_json(spans)));
      });
  http_.metrics_exempt("/trace/:id");

  // The structured event log (retries, breaker transitions, fault
  // injections, shed 503s) as JSON lines, trace-tagged. ?level= keeps
  // records at or above a severity, ?since= those strictly after a
  // timestamp — so a polling scraper fetches the delta, not the ring.
  http_.router().add(
      Method::kGet, "/events",
      [this](const Request& req, const PathParams&, Responder respond) {
        obs::EventLevel min_level = obs::EventLevel::kDebug;
        if (const auto it = req.query.find("level"); it != req.query.end()) {
          const auto parsed = obs::parse_event_level(it->second);
          if (!parsed) {
            respond(Response::error(400, "malformed level filter"));
            return;
          }
          min_level = *parsed;
        }
        const auto since = since_filter(req, respond);
        if (!since) return;
        respond(Response::ok_text(
            metrics_.events().to_json_lines(min_level, *since)));
      });
  http_.metrics_exempt("/events");

  // Collapsed-stack CPU profile of the last ?ms= milliseconds (default
  // 1000, bounded at 10 minutes; the sample rings are always-on, so this
  // reads history rather than waiting). A sharded deployment filters on
  // its own reactor thread (config.profile_thread) and the router merges
  // the legs with obs::merge_collapsed — exactly the /metrics topology.
  http_.router().add(
      Method::kGet, "/profile",
      [this](const Request& req, const PathParams&, Responder respond) {
        Micros window_us = 1'000'000;
        if (const auto it = req.query.find("ms"); it != req.query.end()) {
          const auto parsed = parse_bounded_decimal(it->second, 600'000);
          if (!parsed) {
            respond(Response::error(400, "malformed ms window"));
            return;
          }
          window_us = static_cast<Micros>(*parsed) * 1'000;
        }
        respond(Response::ok_text(obs::Profiler::instance().collapsed(
            window_us, config_.profile_thread)));
      });
  http_.metrics_exempt("/profile");

  // The slow-request flight recorder as JSON lines (oldest first).
  // ?since= skips entries at or before a timestamp, mirroring /events.
  http_.router().add(
      Method::kGet, "/slowlog",
      [this](const Request& req, const PathParams&, Responder respond) {
        const auto since = since_filter(req, respond);
        if (!since) return;
        respond(Response::ok_text(slowlog_.to_json_lines(*since)));
      });
  http_.metrics_exempt("/slowlog");

  // Readiness probe: role, shard count, replication lag, open breakers.
  // A load balancer (or the cluster testbed) polls this to find the
  // primary; exempt like /metrics so probing never perturbs the pool.
  http_.router().add(
      Method::kGet, "/healthz",
      [this](const Request&, const PathParams&, Responder respond) {
        const ClusterStatus st =
            cluster_status_ ? cluster_status_() : ClusterStatus{};
        std::ostringstream body;
        body << "{\"role\": \"" << st.role
             << "\", \"shards\": " << config_.request_id_stride
             << ", \"followers\": " << st.followers
             << ", \"replication_lag\": " << st.replication_lag
             << ", \"open_breakers\": [";
        if (rendezvous_breaker_.state() !=
            resilience::CircuitBreaker::State::kClosed) {
          body << "\"rendezvous\"";
        }
        body << "], \"pending_rounds\": " << pending_passwords_.size()
             << "}\n";
        Response resp = Response::ok_text(body.str());
        resp.headers["Content-Type"] = "application/json";
        respond(resp);
      });
  http_.metrics_exempt("/healthz");
}

std::optional<std::string> AmnesiaServer::require_auth(
    const Request& req, const Responder& respond) {
  const auto token = req.cookie("session");
  if (token) {
    const auto session = sessions_.authenticate(*token);
    if (session) return session->principal;
  }
  respond(Response::error(401, "not authenticated"));
  return std::nullopt;
}

void AmnesiaServer::handle_signup(const Request& req,
                                  const Responder& respond) {
  const auto form = req.form();
  const auto user = need_identifier(form, "user", respond);
  if (!user) return;
  const auto mp = need_field(form, "master_password", respond);
  if (!mp) return;
  if (db_.user_exists(*user)) {
    respond(Response::error(409, "user exists"));
    return;
  }
  UserRecord record{*user, core::OnlineId::generate(rng_),
                    mp_hasher_.hash(to_bytes(*mp), rng_), std::nullopt,
                    std::nullopt};
  db_.create_user(record);
  ++plain_.signups;
  AMNESIA_INFO("server") << "signup: " << *user;
  respond(Response::ok_text("created"));
}

void AmnesiaServer::handle_login(const Request& req,
                                 const Responder& respond) {
  const auto form = req.form();
  const auto user = need_field(form, "user", respond);
  if (!user) return;
  const auto mp = need_field(form, "master_password", respond);
  if (!mp) return;

  if (!throttle_.allowed(*user)) {
    ++plain_.logins_throttled;
    respond(Response::error(429, "too many attempts; locked out"));
    return;
  }
  const auto record = db_.get_user(*user);
  const bool ok =
      record &&
      crypto::PasswordHasher::verify(to_bytes(*mp), record->mp_record);
  throttle_.record(*user, ok);
  if (!ok) {
    ++plain_.logins_failed;
    respond(Response::error(401, "bad user or master password"));
    return;
  }
  ++plain_.logins_ok;
  const std::string token = sessions_.create(*user);
  if (config_.replicated_state) {
    ensure_cluster_tables();
    db_.raw().upsert("cluster_sessions",
                     {token, *user, static_cast<std::int64_t>(sim_.now())});
  }
  Response resp = Response::ok_text("welcome");
  resp.headers["Set-Cookie"] = "session=" + token + "; HttpOnly";
  respond(resp);
}

void AmnesiaServer::handle_logout(const Request& req,
                                  const Responder& respond) {
  const auto token = req.cookie("session");
  if (token) {
    sessions_.revoke(*token);
    if (config_.replicated_state &&
        db_.raw().has_table("cluster_sessions")) {
      db_.raw().remove("cluster_sessions", *token);
    }
    // Drop this session's cached passwords with it.
    std::erase_if(password_cache_, [&](const auto& entry) {
      return entry.first.starts_with(*token + "\x1f");
    });
  }
  respond(Response::ok_text("bye"));
}

void AmnesiaServer::handle_pair_start(const Request& req,
                                      const Responder& respond) {
  const auto user = require_auth(req, respond);
  if (!user) return;
  // A 6-digit CAPTCHA code the user reads from the web page and types
  // into the phone app (paper section III-B1).
  std::string captcha;
  for (int i = 0; i < 6; ++i) {
    captcha.push_back(static_cast<char>('0' + rng_.uniform(10)));
  }
  pending_pairings_[*user] =
      PendingPairing{captcha, sim_.now() + kCaptchaTtlUs};
  respond(Response::ok_form({{"captcha", captcha}}));
}

void AmnesiaServer::handle_pair_complete(const Request& req,
                                         const Responder& respond) {
  const auto form = req.form();
  const auto user = need_field(form, "user", respond);
  if (!user) return;
  const auto captcha = need_field(form, "captcha", respond);
  if (!captcha) return;
  const auto pid_hex = need_field(form, "pid", respond);
  if (!pid_hex) return;
  const auto reg_id = need_field(form, "reg_id", respond);
  if (!reg_id) return;

  const auto it = pending_pairings_.find(*user);
  if (it == pending_pairings_.end() || it->second.expires_at < sim_.now() ||
      !ct_equal(to_bytes(it->second.captcha), to_bytes(*captcha))) {
    ++plain_.pairings_rejected;
    respond(Response::error(403, "captcha verification failed"));
    return;
  }
  pending_pairings_.erase(it);

  std::optional<core::PhoneId> pid;
  try {
    pid = core::PhoneId::from_hex(*pid_hex);
  } catch (const Error&) {
    respond(Response::error(400, "bad pid encoding"));
    return;
  }
  // "the server does not store the Pid in plaintext" (section III-B1).
  db_.set_phone_binding(*user, *reg_id, mp_hasher_.hash(pid->bytes(), rng_));
  AMNESIA_INFO("server") << "paired phone for " << *user;
  respond(Response::ok_text("paired"));
}

void AmnesiaServer::handle_accounts_add(const Request& req,
                                        const Responder& respond) {
  const auto user = require_auth(req, respond);
  if (!user) return;
  const auto form = req.form();
  const auto username = need_identifier(form, "username", respond);
  if (!username) return;
  const auto domain = need_identifier(form, "domain", respond);
  if (!domain) return;

  core::PasswordPolicy policy;
  const auto policy_it = form.find("policy");
  if (policy_it != form.end()) {
    try {
      policy = core::PasswordPolicy::decode(policy_it->second);
    } catch (const Error& e) {
      respond(Response::error(400, std::string("bad policy: ") + e.what()));
      return;
    }
  }
  AccountRecord record{*user, core::AccountId{*username, *domain},
                       core::Seed::generate(rng_), policy};
  if (!db_.add_account(record)) {
    respond(Response::error(409, "account already exists"));
    return;
  }
  respond(Response::ok_text("added"));
}

void AmnesiaServer::handle_accounts_list(const Request& req,
                                         const Responder& respond) {
  const auto user = require_auth(req, respond);
  if (!user) return;
  std::string body;
  db_.for_each_account_id(
      *user, [&](const std::string& username, const std::string& domain) {
        body.append(username).append(1, '\t').append(domain).append(1, '\n');
      });
  respond(Response::ok_text(std::move(body)));
}

void AmnesiaServer::handle_accounts_remove(const Request& req,
                                           const Responder& respond) {
  const auto user = require_auth(req, respond);
  if (!user) return;
  const auto form = req.form();
  const auto username = need_field(form, "username", respond);
  if (!username) return;
  const auto domain = need_field(form, "domain", respond);
  if (!domain) return;
  if (!db_.remove_account(*user, {*username, *domain})) {
    respond(Response::error(404, "no such account"));
    return;
  }
  invalidate_cached_passwords(*user, {*username, *domain});
  respond(Response::ok_text("removed"));
}

void AmnesiaServer::invalidate_cached_passwords(const std::string& user,
                                                const core::AccountId& id) {
  const std::string suffix =
      "\x1f" + user + "\x1f" + id.domain + "\x1f" + id.username;
  std::erase_if(password_cache_, [&](const auto& entry) {
    return entry.first.ends_with(suffix);
  });
}

void AmnesiaServer::handle_accounts_rotate(const Request& req,
                                           const Responder& respond) {
  const auto user = require_auth(req, respond);
  if (!user) return;
  const auto form = req.form();
  const auto username = need_field(form, "username", respond);
  if (!username) return;
  const auto domain = need_field(form, "domain", respond);
  if (!domain) return;
  // Changing sigma regenerates the account's password (section III-A2).
  if (!db_.set_seed(*user, {*username, *domain},
                    core::Seed::generate(rng_))) {
    respond(Response::error(404, "no such account"));
    return;
  }
  // Any cached copy is now stale.
  invalidate_cached_passwords(*user, {*username, *domain});
  respond(Response::ok_text("seed rotated"));
}

void AmnesiaServer::handle_password_request(const Request& req,
                                            const Responder& respond) {
  const auto user = require_auth(req, respond);
  if (!user) return;
  const auto form = req.form();
  const auto username = need_field(form, "username", respond);
  if (!username) return;
  const auto domain = need_field(form, "domain", respond);
  if (!domain) return;

  const auto account = db_.get_account(*user, {*username, *domain});
  if (!account) {
    respond(Response::error(404, "no such account"));
    return;
  }
  const auto user_record = db_.get_user(*user);
  if (!user_record || !user_record->registration_id) {
    respond(Response::error(409, "no phone paired"));
    return;
  }

  // Session-mechanism extension: serve from the per-session cache when
  // enabled and fresh.
  const std::string session_token = req.cookie("session").value_or("");
  const std::string cache_key =
      session_token + "\x1f" + *user + "\x1f" + *domain + "\x1f" + *username;
  if (config_.password_cache_ttl_us > 0) {
    const auto it = password_cache_.find(cache_key);
    if (it != password_cache_.end()) {
      if (it->second.expires_at > sim_.now()) {
        cache_hits_.inc(&metrics_);
        respond(websvc::Response::ok_form(
            {{"password", it->second.password}, {"cached", "1"}}));
        return;
      }
      password_cache_.erase(it);
    }
  }

  password_requests_.inc(&metrics_);
  begin_phone_round_trip(account->seed,
                         user_record->registration_id.value(),
                         req.header("X-Origin-IP").value_or("unknown"),
                         {.user = *user,
                          .account = account->id,
                          .respond = respond,
                          .session_token = session_token});
}

void AmnesiaServer::begin_phone_round_trip(const core::Seed& seed,
                                           const std::string& registration_id,
                                           const std::string& origin_ip,
                                           PendingPassword pending) {
  const std::uint64_t request_id = next_request_id_;
  next_request_id_ += config_.request_id_stride;
  // tstart is taken when R leaves for the rendezvous service — exactly
  // where the paper's latency instrumentation places it (section VI-B).
  const Micros tstart = sim_.now();
  pending.tstart_us = tstart;
  // Loop health at admission, for the flight recorder: a slow round that
  // was *admitted* behind a backed-up reactor is a capacity problem, not
  // a protocol one. Zero when this server runs without a TCP loop.
  pending.loop_delay_at_admission = dispatch_delay_.get(&metrics_)->value();
  const core::Request r = core::make_request(pending.account, seed);
  core::PasswordRequestPush push_msg{request_id, r, origin_ip, tstart,
                                     /*trace=*/""};

  // One round span per bilateral round, parented under the browser's
  // request trace (the ambient http.server span); the push leg and the
  // phone wait are children, and server.generate joins them when the
  // token arrives.
  obs::Tracer& tracer = metrics_.tracer();
  pending.round_span =
      tracer.start_span("protocol.round", "server", obs::current_trace());
  const obs::TraceContext round_span = pending.round_span;
  // Breaker open means the push leg is known-dead: skip the doomed RPC
  // (and its span) and park the payload for a polling phone. The round
  // still either completes — the token arrives over the phone's HTTPS
  // leg — or hits the phone-wait timeout.
  const bool push_allowed = rendezvous_breaker_.allow(sim_.now());
  const obs::TraceContext push_span =
      push_allowed ? tracer.start_span("rendezvous.push", "server", round_span)
                   : obs::TraceContext{};
  pending.wait_span = tracer.start_span("phone.wait", "server", round_span);

  // The push payload carries the wait span's context: whichever way the
  // request reaches the phone — rendezvous push or the poll fallback —
  // the phone's spans parent under the wait it is resolving.
  push_msg.trace = obs::format_trace_header(pending.wait_span);

  const auto [pit, inserted] =
      pending_passwords_.emplace(request_id, std::move(pending));
  if (config_.replicated_state) persist_round(request_id, pit->second);

  // The 504 backstop is armed before any transport branch: a parked
  // payload that no phone ever polls (push-only config, phone offline for
  // good) must still resolve the browser request instead of hanging it
  // and leaking the pending round.
  arm_round_timeout(request_id);

  // Handing R to the phone is the moment the round escapes this process:
  // once the push is out, the browser deserves an answer even if this
  // replica dies. Behind a replication barrier (cluster mode) that
  // handoff waits until the followers have acked the round record, so a
  // primary that crashes mid-round always leaves a survivor able to
  // finish it (docs/CLUSTER.md). Standalone, the barrier is absent and
  // the handoff runs inline.
  auto launch = [this, request_id, registration_id, push_allowed, round_span,
                 push_span, tstart, payload = push_msg.encode()]() {
    const auto pit = pending_passwords_.find(request_id);
    if (pit == pending_passwords_.end()) return;  // already resolved
    if (!push_allowed) {
      pit->second.degraded = true;
      const obs::ScopedTrace skipped(round_span);
      metrics_.events().emit(obs::EventLevel::kInfo, "server",
                             "rendezvous breaker open, queuing for poll");
      enqueue_poll(registration_id, payload);
      return;
    }
    const Micros push_timeout =
        std::min(config_.push_rpc_timeout_us, config_.phone_wait_timeout_us);
    // The push span is ambient for the duration of the push() call so the
    // rendezvous client stamps it into the RPC metadata (the GCM hop's
    // deliver span parents under it).
    const obs::ScopedTrace push_scope(push_span);
    push_.push(
        registration_id, payload, kPushTtlUs,
        [request_id, push_span, tstart, registration_id, payload,
         this](Status s) {
          metrics_.tracer().end(push_span);
          push_ack_.get(&metrics_)->record(sim_.now() - tstart);
          if (s.ok()) {
            rendezvous_breaker_.record_success(sim_.now());
            // Kill point for the failover drill: the request has reached
            // the phone but the browser's round is still pending — the
            // worst instant for the primary to die (docs/CLUSTER.md).
            if (const auto f = resilience::fault_check("server.push.acked");
                f && f->kind == resilience::FaultKind::kCrash) {
              crash();
            }
            return;
          }
          rendezvous_breaker_.record_failure(sim_.now());
          push_failures_.inc(&metrics_);
          // Degrade instead of failing the browser with a 502: if the
          // round is still pending, a polling phone can pick the request
          // up from the poll queue and answer before phone_wait_timeout_us.
          // The event is emitted under the (ended) push span's context so
          // the log line carries the trace id of the login that degraded.
          if (const auto still = pending_passwords_.find(request_id);
              still != pending_passwords_.end()) {
            still->second.degraded = true;
            const obs::ScopedTrace degraded(push_span);
            metrics_.events().emit(obs::EventLevel::kWarn, "server",
                                   "push failed (" + s.message() +
                                       "), degrading to poll delivery");
            enqueue_poll(registration_id, payload);
          }
        },
        push_timeout);
  };
  if (replication_barrier_) {
    replication_barrier_(std::move(launch));
  } else {
    launch();
  }
}

void AmnesiaServer::enqueue_poll(const std::string& registration_id,
                                 Bytes payload) {
  auto& queue = poll_queues_[registration_id];
  const Micros now = sim_.now();
  while (!queue.empty() && queue.front().expires_at <= now) {
    drop_poll_row(queue.front().seq);
    queue.pop_front();
  }
  // Bounded like every other queue in the degradation path: drop-oldest,
  // since the oldest request is the one closest to its 504 anyway.
  if (queue.size() >= kPollQueueMax) {
    drop_poll_row(queue.front().seq);
    queue.pop_front();
  }
  PollEntry entry{std::move(payload), now + config_.poll_entry_ttl_us};
  if (config_.replicated_state) {
    ensure_cluster_tables();
    entry.seq = ++poll_seq_;
    db_.raw().insert("cluster_polls",
                     {static_cast<std::int64_t>(entry.seq), registration_id,
                      entry.payload,
                      static_cast<std::int64_t>(entry.expires_at)});
  }
  queue.push_back(std::move(entry));
  poll_enqueued_.inc(&metrics_);
}

void AmnesiaServer::handle_push_poll(const Request& req,
                                     const Responder& respond) {
  const auto form = req.form();
  const auto reg_id = need_field(form, "reg_id", respond);
  if (!reg_id) return;
  std::ostringstream body;
  const auto it = poll_queues_.find(*reg_id);
  if (it != poll_queues_.end()) {
    auto& queue = it->second;
    const Micros now = sim_.now();
    while (!queue.empty() && queue.front().expires_at <= now) {
      drop_poll_row(queue.front().seq);
      queue.pop_front();
    }
    for (const auto& entry : queue) {
      body << base64_encode(entry.payload) << '\n';
      poll_delivered_.inc(&metrics_);
    }
    // Entries stay parked until TTL expiry rather than being deleted on
    // first delivery: this poll response may be lost to the same flaky
    // network the fallback exists for, and the phone dedups re-deliveries
    // by request id — at-least-once within the TTL window, never
    // at-most-once.
    if (queue.empty()) poll_queues_.erase(it);
  }
  respond(Response::ok_text(body.str()));
}

void AmnesiaServer::handle_token(const Request& req,
                                 const Responder& respond) {
  const auto form = req.form();
  const auto id_str = need_field(form, "request_id", respond);
  if (!id_str) return;
  const auto token_hex = need_field(form, "token", respond);
  if (!token_hex) return;

  std::uint64_t request_id = 0;
  core::Token token{Bytes(32, 0)};
  try {
    request_id = std::stoull(*id_str);
    token = core::Token::from_hex(*token_hex);
  } catch (const std::exception&) {
    respond(Response::error(400, "malformed token submission"));
    return;
  }

  const auto it = pending_passwords_.find(request_id);
  if (it == pending_passwords_.end()) {
    respond(Response::error(404, "unknown or expired request"));
    return;
  }
  PendingPassword pending = std::move(it->second);
  pending_passwords_.erase(it);
  remove_round_row(request_id);
  // The phone has answered: the wait leg of the round is over.
  ++plain_.tokens_accepted;
  metrics_.tracer().end(pending.wait_span);
  // A round that cannot complete answers the browser and the phone alike.
  const auto fail = [&](const Response& resp) {
    metrics_.tracer().end(pending.round_span);
    pending.respond(resp);
    respond(resp);
  };

  const auto user_record = db_.get_user(pending.user);
  if (!user_record) {
    fail(Response::error(500, "user state vanished"));
    return;
  }

  switch (pending.purpose) {
    case TokenPurpose::kGenerate: {
      const auto account = db_.get_account(pending.user, pending.account);
      if (!account) {
        fail(Response::error(500, "account state vanished"));
        return;
      }
      // p = SHA512(T || Oid || sigma), then the template fn (III-B4).
      const obs::TraceContext gen_span = metrics_.tracer().start_span(
          "server.generate", "server", pending.round_span);
      const std::string password = core::generate_password(
          token, user_record->oid, account->seed, account->policy);
      metrics_.tracer().end(gen_span);

      const Micros tend = sim_.now();
      password_latencies_.push_back(tend - pending.tstart_us);
      passwords_generated_.inc(&metrics_);
      // Explicit exemplar context: the bucket this round lands in keeps
      // its trace id, so a bad percentile in a snapshot links straight to
      // GET /trace/<id> for the round that produced it.
      round_latency_.get(&metrics_)->record(tend - pending.tstart_us,
                                   pending.round_span, "protocol.round");

      if (config_.password_cache_ttl_us > 0 &&
          !pending.session_token.empty()) {
        const std::string cache_key =
            pending.session_token + "\x1f" + pending.user + "\x1f" +
            pending.account.domain + "\x1f" + pending.account.username;
        password_cache_[cache_key] = CachedPassword{
            password, sim_.now() + config_.password_cache_ttl_us};
      }

      const Response result = websvc::Response::ok_form(
          {{"password", password},
           {"latency_ms",
            std::to_string(us_to_ms(tend - pending.tstart_us))}});
      pending.respond(result);
      deliver_await(await_key(pending.user, pending.account), result,
                    /*store_if_unclaimed=*/false);
      metrics_.tracer().end(pending.round_span);
      maybe_record_slow(pending, "ok", tend);
      respond(Response::ok_text("token accepted"));
      return;
    }
    case TokenPurpose::kVaultStore: {
      const auto record = db_.vault_get(pending.user, pending.account);
      if (!record) {
        fail(Response::error(500, "vault state vanished"));
        return;
      }
      // Vault key = first 32 bytes of SHA512(T || Oid || sigma_v): only a
      // fresh phone token re-derives it, so the sealed chosen password
      // stays bilateral like everything else.
      const Bytes p =
          core::intermediate_value(token, user_record->oid, record->seed);
      const Bytes key(p.begin(), p.begin() + 32);
      const Bytes nonce = rng_.bytes(crypto::kAeadNonceSize);
      const Bytes aad = to_bytes(pending.user + "\x1f" +
                                 pending.account.domain + "\x1f" +
                                 pending.account.username);
      const Bytes sealed = crypto::aead_seal(
          key, nonce, aad, to_bytes(pending.chosen_password));
      db_.vault_set_ciphertext(pending.user, pending.account, nonce, sealed);
      ++plain_.vault_stores;
      pending.respond(Response::ok_text("stored"));
      metrics_.tracer().end(pending.round_span);
      maybe_record_slow(pending, "ok", sim_.now());
      respond(Response::ok_text("token accepted"));
      return;
    }
    case TokenPurpose::kVaultRetrieve: {
      const auto record = db_.vault_get(pending.user, pending.account);
      if (!record || !record->ciphertext || !record->nonce) {
        fail(Response::error(404, "nothing stored"));
        return;
      }
      const Bytes p =
          core::intermediate_value(token, user_record->oid, record->seed);
      const Bytes key(p.begin(), p.begin() + 32);
      const Bytes aad = to_bytes(pending.user + "\x1f" +
                                 pending.account.domain + "\x1f" +
                                 pending.account.username);
      const auto opened =
          crypto::aead_open(key, *record->nonce, aad, *record->ciphertext);
      if (!opened) {
        // Wrong/stale phone (new T_E after recovery) or tampered record.
        metrics_.tracer().end(pending.round_span);
        pending.respond(Response::error(
            403, "vault record does not open with this phone"));
        respond(Response::ok_text("token accepted"));
        return;
      }
      pending.respond(
          websvc::Response::ok_form({{"password", to_string(*opened)}}));
      metrics_.tracer().end(pending.round_span);
      maybe_record_slow(pending, "ok", sim_.now());
      respond(Response::ok_text("token accepted"));
      return;
    }
  }
  respond(Response::error(500, "unknown token purpose"));
}

void AmnesiaServer::handle_token_decline(const Request& req,
                                         const Responder& respond) {
  const auto form = req.form();
  const auto id_str = need_field(form, "request_id", respond);
  if (!id_str) return;
  std::uint64_t request_id = 0;
  try {
    request_id = std::stoull(*id_str);
  } catch (const std::exception&) {
    respond(Response::error(400, "malformed request id"));
    return;
  }
  const auto it = pending_passwords_.find(request_id);
  if (it == pending_passwords_.end()) {
    respond(Response::error(404, "unknown or expired request"));
    return;
  }
  requests_declined_.inc(&metrics_);
  finish_round_spans(it->second);
  maybe_record_slow(it->second, "declined", sim_.now());
  const Response result = Response::error(403, "declined on phone");
  it->second.respond(result);
  deliver_await(await_key(it->second.user, it->second.account), result,
                /*store_if_unclaimed=*/false);
  pending_passwords_.erase(it);
  remove_round_row(request_id);
  respond(Response::ok_text("declined"));
}

void AmnesiaServer::handle_recover_phone(const Request& req,
                                         const Responder& respond) {
  const auto user = require_auth(req, respond);
  if (!user) return;
  const auto form = req.form();
  const auto backup_b64 = need_field(form, "backup", respond);
  if (!backup_b64) return;

  std::optional<core::PhoneSecrets> backup;
  try {
    backup = core::PhoneSecrets::deserialize(base64_decode(*backup_b64));
  } catch (const Error&) {
    respond(Response::error(400, "bad backup blob"));
    return;
  }

  const auto user_record = db_.get_user(*user);
  if (!user_record || !user_record->pid_record) {
    respond(Response::error(409, "no phone was paired"));
    return;
  }
  // "The server verifies the user by hashing the uploaded Pid value and
  // matching it with the value stored in its database" (section III-C1).
  if (!crypto::PasswordHasher::verify(backup->pid.bytes(),
                                      *user_record->pid_record)) {
    respond(Response::error(403, "backup does not match paired phone"));
    return;
  }

  // Regenerate every password with the uploaded entry table so the user
  // can log into each site one last time...
  std::ostringstream body;
  for (const auto& account : db_.list_accounts(*user)) {
    const std::string password = core::end_to_end_password(
        account.id, account.seed, user_record->oid, backup->entry_table,
        account.policy);
    body << account.id.username << '\t' << account.id.domain << '\t'
         << password << '\n';
  }
  // ...then purge the old phone's binding; a new phone must re-register.
  db_.clear_phone_binding(*user);
  ++plain_.phone_recoveries;
  AMNESIA_INFO("server") << "phone recovery for " << *user;
  respond(Response::ok_text(body.str()));
}

void AmnesiaServer::handle_recover_mp_start(const Request& req,
                                            const Responder& respond) {
  const auto user = require_auth(req, respond);
  if (!user) return;
  const auto form = req.form();
  const auto new_mp = need_field(form, "new_master_password", respond);
  if (!new_mp) return;
  // The change only applies after the phone proves possession of Pid.
  pending_mp_changes_[*user] =
      PendingMpChange{mp_hasher_.hash(to_bytes(*new_mp), rng_),
                      sim_.now() + kCaptchaTtlUs};
  respond(Response::ok_text("awaiting phone verification"));
}

void AmnesiaServer::handle_recover_mp_confirm(const Request& req,
                                              const Responder& respond) {
  const auto form = req.form();
  const auto user = need_field(form, "user", respond);
  if (!user) return;
  const auto pid_hex = need_field(form, "pid", respond);
  if (!pid_hex) return;

  const auto it = pending_mp_changes_.find(*user);
  if (it == pending_mp_changes_.end() || it->second.expires_at < sim_.now()) {
    respond(Response::error(404, "no pending master-password change"));
    return;
  }
  const auto user_record = db_.get_user(*user);
  if (!user_record || !user_record->pid_record) {
    respond(Response::error(409, "no phone paired"));
    return;
  }
  core::PhoneId pid = [&]() -> core::PhoneId {
    try {
      return core::PhoneId::from_hex(*pid_hex);
    } catch (const Error&) {
      throw ProtocolError("bad pid encoding");
    }
  }();
  if (!crypto::PasswordHasher::verify(pid.bytes(), *user_record->pid_record)) {
    respond(Response::error(403, "phone verification failed"));
    return;
  }
  db_.set_master_password(*user, it->second.new_record);
  pending_mp_changes_.erase(it);
  // Invalidate every live session — including the attacker's, if the old
  // master password had been compromised.
  sessions_.revoke_all(*user);
  if (config_.replicated_state && db_.raw().has_table("cluster_sessions")) {
    for (const auto& row : db_.raw().table("cluster_sessions").select(
             [&](const storage::Row& r) { return r[1].as_text() == *user; })) {
      db_.raw().remove("cluster_sessions", row[0]);
    }
  }
  ++plain_.mp_changes;
  AMNESIA_INFO("server") << "master password changed for " << *user;
  respond(Response::ok_text("master password changed"));
}

// --- Section VIII extension: the chosen-password vault. Websites that
// --- hand out fixed passwords (or pre-existing credentials the user
// --- cannot change) are stored sealed under a token-derived key, so the
// --- bilateral property covers them too.

void AmnesiaServer::handle_vault_store(const Request& req,
                                       const Responder& respond) {
  const auto user = require_auth(req, respond);
  if (!user) return;
  const auto form = req.form();
  const auto username = need_identifier(form, "username", respond);
  if (!username) return;
  const auto domain = need_identifier(form, "domain", respond);
  if (!domain) return;
  const auto chosen = need_field(form, "chosen_password", respond);
  if (!chosen) return;

  const auto user_record = db_.get_user(*user);
  if (!user_record || !user_record->registration_id) {
    respond(Response::error(409, "no phone paired"));
    return;
  }
  const core::AccountId id{*username, *domain};
  auto record = db_.vault_get(*user, id);
  if (!record) {
    // Fresh sigma_v per vault entry; overwrites re-use it so the record
    // key (and R) stay stable.
    db_.vault_add(server::DbHandler::VaultRecord{
        *user, id, core::Seed::generate(rng_), std::nullopt, std::nullopt});
    record = db_.vault_get(*user, id);
  }
  begin_phone_round_trip(record->seed, *user_record->registration_id,
                         req.header("X-Origin-IP").value_or("unknown"),
                         {.user = *user,
                          .account = id,
                          .respond = respond,
                          .purpose = TokenPurpose::kVaultStore,
                          .chosen_password = *chosen,
                          .session_token = req.cookie("session").value_or("")});
}

void AmnesiaServer::handle_vault_retrieve(const Request& req,
                                          const Responder& respond) {
  const auto user = require_auth(req, respond);
  if (!user) return;
  const auto form = req.form();
  const auto username = need_field(form, "username", respond);
  if (!username) return;
  const auto domain = need_field(form, "domain", respond);
  if (!domain) return;

  const core::AccountId id{*username, *domain};
  const auto record = db_.vault_get(*user, id);
  if (!record || !record->ciphertext) {
    respond(Response::error(404, "nothing stored for this account"));
    return;
  }
  const auto user_record = db_.get_user(*user);
  if (!user_record || !user_record->registration_id) {
    respond(Response::error(409, "no phone paired"));
    return;
  }
  begin_phone_round_trip(record->seed, *user_record->registration_id,
                         req.header("X-Origin-IP").value_or("unknown"),
                         {.user = *user,
                          .account = id,
                          .respond = respond,
                          .purpose = TokenPurpose::kVaultRetrieve,
                          .session_token = req.cookie("session").value_or("")});
}

void AmnesiaServer::handle_vault_list(const Request& req,
                                      const Responder& respond) {
  const auto user = require_auth(req, respond);
  if (!user) return;
  std::ostringstream body;
  for (const auto& record : db_.vault_list(*user)) {
    body << record.id.username << '\t' << record.id.domain << '\t'
         << (record.ciphertext ? "stored" : "empty") << '\n';
  }
  respond(Response::ok_text(body.str()));
}

// --- Cluster mode: replicated protocol state + failover recovery.
// --- The tables mirror exactly the process-resident maps a crash would
// --- otherwise erase; every write rides the storage journal, so the
// --- cluster layer ships them to followers for free (docs/CLUSTER.md).

void AmnesiaServer::ensure_cluster_tables() {
  storage::Database& db = db_.raw();
  if (db.has_table("cluster_sessions")) return;
  using storage::ValueType;
  // Created lazily by the *primary* only: the creates are journaled, so
  // followers receive them through the shipping stream — creating the
  // tables on both sides would make the replicated create a duplicate.
  db.create_table("cluster_sessions",
                  storage::Schema{{{"token", ValueType::kText},
                                   {"principal", ValueType::kText},
                                   {"created_at", ValueType::kInt}},
                                  0});
  db.create_table("cluster_rounds",
                  storage::Schema{{{"id", ValueType::kInt},
                                   {"user", ValueType::kText},
                                   {"username", ValueType::kText},
                                   {"domain", ValueType::kText},
                                   {"tstart_us", ValueType::kInt},
                                   {"purpose", ValueType::kInt},
                                   {"chosen", ValueType::kText},
                                   {"session_token", ValueType::kText},
                                   {"round_trace", ValueType::kText},
                                   {"wait_trace", ValueType::kText}},
                                  0});
  db.create_table("cluster_polls",
                  storage::Schema{{{"seq", ValueType::kInt},
                                   {"reg_id", ValueType::kText},
                                   {"payload", ValueType::kBlob},
                                   {"expires_at", ValueType::kInt}},
                                  0});
  // Single-row watermarks (keyed by name). "request_id_hwm" records the
  // highest request id this primary ever minted: resolved rounds delete
  // their cluster_rounds row, so without it a promoted follower would
  // re-mint ids the dead primary already used and the phone's duplicate
  // detector would silently swallow the first post-failover pushes.
  db.create_table("cluster_meta", storage::Schema{{{"key", ValueType::kText},
                                                   {"val", ValueType::kInt}},
                                                  0});
}

void AmnesiaServer::persist_round(std::uint64_t request_id,
                                  const PendingPassword& p) {
  ensure_cluster_tables();
  db_.raw().upsert(
      "cluster_rounds",
      {static_cast<std::int64_t>(request_id), p.user, p.account.username,
       p.account.domain, static_cast<std::int64_t>(p.tstart_us),
       static_cast<std::int64_t>(p.purpose), p.chosen_password,
       p.session_token, obs::format_trace_header(p.round_span),
       obs::format_trace_header(p.wait_span)});
  // Ids are minted monotonically, so the latest write is the high-water
  // mark; it rides the same journal batch as the round row.
  db_.raw().upsert("cluster_meta", {std::string("request_id_hwm"),
                                    static_cast<std::int64_t>(request_id)});
}

void AmnesiaServer::remove_round_row(std::uint64_t request_id) {
  if (!config_.replicated_state) return;
  if (!db_.raw().has_table("cluster_rounds")) return;
  db_.raw().remove("cluster_rounds", static_cast<std::int64_t>(request_id));
}

void AmnesiaServer::drop_poll_row(std::uint64_t seq) {
  if (seq == 0 || !config_.replicated_state) return;
  if (!db_.raw().has_table("cluster_polls")) return;
  db_.raw().remove("cluster_polls", static_cast<std::int64_t>(seq));
}

std::string AmnesiaServer::await_key(const std::string& user,
                                     const core::AccountId& id) {
  return user + "\x1f" + id.domain + "\x1f" + id.username;
}

void AmnesiaServer::deliver_await(const std::string& key,
                                  const Response& resp,
                                  bool store_if_unclaimed) {
  const auto it = await_waiters_.find(key);
  if (it != await_waiters_.end()) {
    const Responder waiter = it->second;
    await_waiters_.erase(it);
    waiter(resp);
    return;
  }
  if (store_if_unclaimed) await_results_[key] = resp;
}

void AmnesiaServer::arm_round_timeout(std::uint64_t request_id) {
  sim_.schedule_after(config_.phone_wait_timeout_us, [this, request_id] {
    const auto it = pending_passwords_.find(request_id);
    if (it == pending_passwords_.end()) return;
    requests_timed_out_.inc(&metrics_);
    finish_round_spans(it->second);
    maybe_record_slow(it->second, "timeout", sim_.now());
    const Response result = Response::error(504, "phone did not respond");
    it->second.respond(result);
    deliver_await(await_key(it->second.user, it->second.account), result,
                  /*store_if_unclaimed=*/false);
    pending_passwords_.erase(it);
    remove_round_row(request_id);
  });
}

void AmnesiaServer::handle_password_await(const Request& req,
                                          const Responder& respond) {
  const auto user = require_auth(req, respond);
  if (!user) return;
  const auto form = req.form();
  const auto username = need_field(form, "username", respond);
  if (!username) return;
  const auto domain = need_field(form, "domain", respond);
  if (!domain) return;
  const std::string key = await_key(*user, {*username, *domain});

  // The round already finished (a recovered round resolved before the
  // browser re-attached): hand the stored outcome over, once.
  if (const auto done = await_results_.find(key);
      done != await_results_.end()) {
    const Response result = done->second;
    await_results_.erase(done);
    respond(result);
    return;
  }
  // Round still in flight: park this responder; whichever completion
  // path fires (token, decline, timeout) answers it.
  const bool in_flight = std::any_of(
      pending_passwords_.begin(), pending_passwords_.end(),
      [&](const auto& entry) {
        return entry.second.user == *user &&
               entry.second.account.username == *username &&
               entry.second.account.domain == *domain;
      });
  if (!in_flight) {
    respond(Response::error(404, "no round in flight for this account"));
    return;
  }
  awaits_parked_.inc(&metrics_);
  if (const auto prev = await_waiters_.find(key);
      prev != await_waiters_.end()) {
    prev->second(Response::error(409, "superseded by a newer await"));
  }
  await_waiters_[key] = respond;
  // Backstop mirroring the round's own 504 so a parked responder can
  // never outlive every completion path.
  sim_.schedule_after(config_.phone_wait_timeout_us, [this, key] {
    const auto it = await_waiters_.find(key);
    if (it == await_waiters_.end()) return;
    const Responder waiter = it->second;
    await_waiters_.erase(it);
    waiter(Response::error(504, "phone did not respond"));
  });
}

void AmnesiaServer::crash() {
  if (crashed_) return;
  crashed_ = true;
  metrics_.events().emit(obs::EventLevel::kError, "server",
                         "injected crash: server going down hard");
  if (crash_handler_) {
    crash_handler_();
    return;
  }
  throw resilience::CrashInjected("server.crash");
}

void AmnesiaServer::promote_to_primary() {
  if (!config_.replicated_state) return;
  ensure_cluster_tables();
  const Micros now = sim_.now();
  storage::Database& db = db_.raw();

  // Web sessions: last_seen restarts at the failover instant, so the
  // idle-timeout clock does not log every browser out mid-recovery.
  std::size_t sessions_restored = 0;
  for (const storage::Row& row : db.table("cluster_sessions").all()) {
    sessions_.restore(websvc::Session{row[0].as_text(), row[1].as_text(),
                                      row[2].as_int(), now});
    ++sessions_restored;
  }
  sessions_restored_.inc(&metrics_, sessions_restored);

  // Parked poll payloads: rows are seq-ordered (the insertion order), so
  // each queue rebuilds in expiry order.
  std::size_t polls_restored = 0;
  for (const storage::Row& row : db.table("cluster_polls").all()) {
    const auto seq = static_cast<std::uint64_t>(row[0].as_int());
    poll_seq_ = std::max(poll_seq_, seq);
    const Micros expires_at = row[3].as_int();
    if (expires_at <= now) continue;
    poll_queues_[row[1].as_text()].push_back(
        PollEntry{row[2].as_blob(), expires_at, seq});
    ++polls_restored;
  }
  polls_restored_.inc(&metrics_, polls_restored);

  // In-flight rounds: adopt them with a fresh 504 backstop. The trace
  // contexts are the primary's — ending them here is a no-op (their
  // spans live in the shipped stubs), but server.generate still parents
  // under the original protocol.round, keeping the tree connected.
  for (const storage::Row& row : db.table("cluster_rounds").all()) {
    const auto id = static_cast<std::uint64_t>(row[0].as_int());
    PendingPassword pending;
    pending.user = row[1].as_text();
    pending.account = core::AccountId{row[2].as_text(), row[3].as_text()};
    pending.tstart_us = row[4].as_int();
    pending.purpose = static_cast<TokenPurpose>(row[5].as_int());
    pending.chosen_password = row[6].as_text();
    pending.session_token = row[7].as_text();
    pending.round_span = obs::parse_trace_header(row[8].as_text())
                             .value_or(obs::TraceContext{});
    pending.wait_span = obs::parse_trace_header(row[9].as_text())
                            .value_or(obs::TraceContext{});
    pending.recovered = true;
    const std::string key = await_key(pending.user, pending.account);
    pending.respond = [this, key](Response resp) {
      deliver_await(key, std::move(resp), /*store_if_unclaimed=*/true);
    };
    pending_passwords_.emplace(id, std::move(pending));
    // Skip past every recovered id, preserving this replica's stride
    // residue so post-failover rounds never collide with adopted ones.
    while (next_request_id_ <= id) {
      next_request_id_ += config_.request_id_stride;
    }
    arm_round_timeout(id);
    rounds_recovered_.inc(&metrics_);
  }

  // Resolved rounds left no row behind, so also clear the replicated
  // high-water mark: minting an id the dead primary already used would
  // trip the phone's duplicate-push detector and strand the round.
  if (db.has_table("cluster_meta")) {
    for (const storage::Row& row : db.table("cluster_meta").all()) {
      if (row[0].as_text() != "request_id_hwm") continue;
      const auto hwm = static_cast<std::uint64_t>(row[1].as_int());
      while (next_request_id_ <= hwm) {
        next_request_id_ += config_.request_id_stride;
      }
    }
  }
  metrics_.events().emit(
      obs::EventLevel::kInfo, "cluster",
      "promoted to primary: " + std::to_string(sessions_restored) +
          " sessions, " + std::to_string(rounds_recovered_.value()) +
          " in-flight rounds, " + std::to_string(polls_restored) +
          " parked polls recovered");
}

void AmnesiaServer::handle_vault_remove(const Request& req,
                                        const Responder& respond) {
  const auto user = require_auth(req, respond);
  if (!user) return;
  const auto form = req.form();
  const auto username = need_field(form, "username", respond);
  if (!username) return;
  const auto domain = need_field(form, "domain", respond);
  if (!domain) return;
  if (!db_.vault_remove(*user, {*username, *domain})) {
    respond(Response::error(404, "no such vault entry"));
    return;
  }
  respond(Response::ok_text("removed"));
}

}  // namespace amnesia::server
