// Cross-shard routing torture: a seeded randomized schedule drives
// password rounds for users spread over four shards while the rendezvous
// push leg is down (poll fallback active) and the shard mailbox itself
// drops and errors messages via FaultInjector. The invariant under all of
// it: every round eventually completes with the exact password a
// fault-free run produces (at-least-once delivery over the parked poll
// queues), and the phone's request-id dedupe absorbs the re-deliveries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "eval/deployment.h"
#include "eval/testbed.h"
#include "obs/metrics.h"
#include "resilience/fault.h"
#include "server/shard.h"

namespace amnesia {
namespace {

using eval::Deployment;
using eval::DeploymentConfig;
using resilience::FaultInjector;
using resilience::FaultKind;
using resilience::FaultRule;
using resilience::ScopedFaultInjector;

const std::vector<std::string> kUsers = {"alice", "bob", "carol", "dave"};
constexpr const char* kMp = "one master password";

/// SplitMix64 — the test's own schedule stream, independent of the sim.
std::uint64_t mix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

DeploymentConfig torture_config(std::uint64_t seed) {
  DeploymentConfig config;
  config.shards = 4;
  config.base.seed = seed;
  // Fast degraded-mode cadence: polls every 400 ms of virtual time, and a
  // browser that gives up (and retries) after 6 s instead of 30. The push
  // RPC must give up well before the round does, or the failed push never
  // parks a poll entry inside the round's own lifetime.
  config.base.phone.poll_interval_us = 400'000;
  config.base.server.phone_wait_timeout_us = 6'000'000;
  config.base.server.push_rpc_timeout_us = 1'000'000;
  return config;
}

TEST(ShardTorture, MailboxFaultsNeverCorruptOrDuplicate) {
  const std::uint64_t seed = 0x5eedc0ffee;  // printed on failure below
  SCOPED_TRACE("torture seed " + std::to_string(seed));

  Deployment st(torture_config(seed));
  st.start();
  eval::Testbed& bed = st.world();

  // Fault-free phase: provision everyone and capture the ground-truth
  // password each user's account must regenerate forever after.
  std::vector<std::string> expected;
  for (const std::string& user : kUsers) {
    ASSERT_TRUE(bed.provision(user, kMp).ok()) << user;
    ASSERT_TRUE(bed.add_account("acct", user + ".example.com").ok());
    const auto p = bed.get_password("acct", user + ".example.com");
    ASSERT_TRUE(p.ok()) << user;
    expected.push_back(p.value());
  }

  // Break the push leg: every round from here on is parked in a poll
  // queue on the owning shard and recovered by the phone's poll — which
  // enters through whatever shard accepts it and scatters cross-shard.
  bed.net().set_online("gcm", false);

  FaultInjector injector(seed);
  injector.add_rule(FaultRule{.point = "shard.mailbox.forward",
                              .probability = 0.15,
                              .kind = FaultKind::kDrop});
  injector.add_rule(FaultRule{.point = "shard.mailbox.forward",
                              .probability = 0.10,
                              .kind = FaultKind::kError});
  injector.add_rule(FaultRule{.point = "shard.mailbox.reply",
                              .probability = 0.15,
                              .kind = FaultKind::kDrop});
  ScopedFaultInjector scoped(injector);

  // Randomized schedule: 12 rounds against random users. A round retries
  // its login and its password request until they stick — kDrop shows up
  // as a timeout, kError as a 503, and both must be survivable.
  std::uint64_t schedule = seed;
  std::size_t completed = 0;
  for (int round = 0; round < 12; ++round) {
    const std::string& user = kUsers[mix(schedule) % kUsers.size()];

    bool logged_in = false;
    for (int attempt = 0; attempt < 12 && !logged_in; ++attempt) {
      logged_in = bed.login(user, kMp).ok();
    }
    ASSERT_TRUE(logged_in) << "login never survived the mailbox faults";

    bool delivered = false;
    for (int attempt = 0; attempt < 12 && !delivered; ++attempt) {
      const auto p = bed.get_password("acct", user + ".example.com");
      if (!p.ok()) continue;
      delivered = true;
      // At-least-once must never become at-most-correct: a re-delivered
      // or half-lost round still yields the exact ground-truth password.
      const std::size_t idx =
          std::find(kUsers.begin(), kUsers.end(), user) - kUsers.begin();
      EXPECT_EQ(p.value(), expected[idx]) << user;
    }
    ASSERT_TRUE(delivered) << "round " << round << " for " << user
                           << " never completed";
    ++completed;
  }
  EXPECT_EQ(completed, 12u);

  // Let the parked entries be re-polled a few more times before auditing.
  bed.sim().run_until(bed.sim().now() + 3'000'000);

  // The schedule must actually have exercised the fault plan...
  EXPECT_GT(injector.fire_count(), 0u) << "no mailbox fault ever fired";
  std::uint64_t dropped = 0;
  std::uint64_t forwarded = 0;
  for (std::size_t k = 0; k < st.servers(); ++k) {
    auto snap = st.server(k).metrics().snapshot();
    dropped += snap.counters["shard.mailbox_dropped"];
    forwarded += snap.counters["shard.forwarded_in"];
  }
  EXPECT_GT(dropped, 0u) << "faults fired but none hit the mailbox";
  EXPECT_GT(forwarded, 0u) << "schedule never crossed a shard boundary";

  // ...and the recovery math must close: everything the phone answered
  // arrived via the poll fallback, re-deliveries were absorbed by the
  // request-id dedupe, and no shard generated a password twice for one
  // request (generated <= tokens accepted, delivered >= rounds).
  const auto& phone = bed.phone().stats();
  EXPECT_GE(phone.polled_pushes, completed)
      << "degraded rounds must arrive through /push/poll";
  EXPECT_GT(phone.duplicate_pushes, 0u)
      << "parked entries are re-delivered until TTL; dedupe must see them";
  std::uint64_t generated = 0;
  std::uint64_t tokens_accepted = 0;
  for (std::size_t k = 0; k < st.servers(); ++k) {
    generated += st.server(k).stats().passwords_generated;
    tokens_accepted += st.server(k).stats().tokens_accepted;
  }
  EXPECT_GE(generated, completed + kUsers.size());
  // Compared against tokens the servers *accepted*, not the phone's acked
  // sends: a mailbox-reply drop can eat the 200 after the server has
  // already generated, so the phone-side count undercounts by schedule.
  EXPECT_LE(generated, tokens_accepted)
      << "a password without a phone token would break the bilateral rule";
}

TEST(ShardTorture, ErrorFaultsSurfaceAsRetryableServerErrors) {
  // With kError pinned at probability 1 on the forward leg, a cross-shard
  // login must fail fast with the mailbox 503 — not hang, not succeed.
  Deployment st(torture_config(7));
  st.start();
  eval::Testbed& bed = st.world();
  // alice hashes to shard 3: her login always crosses from shard 0.
  ASSERT_NE(st.owner_of("alice"), 0u);
  ASSERT_TRUE(bed.provision("alice", kMp).ok());

  FaultInjector injector(7);
  injector.add_rule(FaultRule{.point = "shard.mailbox.forward",
                              .probability = 1.0,
                              .kind = FaultKind::kError});
  {
    ScopedFaultInjector scoped(injector);
    const Status s = bed.login("alice", kMp);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.failure().code, Err::kUnavailable) << "503 maps to retryable";
  }
  // Faults lifted: the very next attempt goes through unchanged.
  EXPECT_TRUE(bed.login("alice", kMp).ok());
}

}  // namespace
}  // namespace amnesia
