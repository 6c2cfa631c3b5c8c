// Cookie-session manager.
//
// After master-password authentication the Amnesia server issues a random
// session token carried in a cookie (the CherryPy session equivalent).
// Sessions expire after a configurable idle time and can be revoked —
// revocation is what the recovery protocols use to invalidate an
// attacker's session after a master-password change.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"

namespace amnesia::websvc {

struct Session {
  std::string token;
  std::string principal;  // user name the session authenticates
  Micros created_at;
  Micros last_seen;
};

class SessionManager {
 public:
  SessionManager(const Clock& clock, RandomSource& rng,
                 Micros idle_timeout_us = 30ll * 60 * 1'000'000)
      : clock_(clock), rng_(rng), idle_timeout_us_(idle_timeout_us) {}

  /// Creates a session for `principal` and returns its token.
  std::string create(const std::string& principal);

  /// Prepends `prefix` to every token create() issues from now on. The
  /// sharded server tags each shard's tokens ("s2." etc.) so a cookie
  /// names its owning shard without any shared lookup table; the default
  /// empty prefix keeps single-shard tokens byte-identical to before.
  void set_token_prefix(std::string prefix) {
    token_prefix_ = std::move(prefix);
  }

  /// Returns the live session for `token`, refreshing last_seen; expired
  /// sessions are reaped and reported as absent.
  std::optional<Session> authenticate(const std::string& token);

  /// Revokes one session. Returns true if it existed.
  bool revoke(const std::string& token);

  /// Revokes every session of `principal` (master-password change).
  std::size_t revoke_all(const std::string& principal);

  /// All live sessions (replication snapshot; no last_seen refresh).
  std::vector<Session> snapshot() const;

  /// Installs a session verbatim (token, principal, timestamps) — a
  /// promoted cluster follower restores the primary's sessions so a
  /// browser's cookie survives failover.
  void restore(Session session);

 private:
  const Clock& clock_;
  RandomSource& rng_;
  Micros idle_timeout_us_;
  std::string token_prefix_;
  std::map<std::string, Session> sessions_;
};

}  // namespace amnesia::websvc
