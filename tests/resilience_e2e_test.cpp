// End-to-end degraded-mode runs: the full bilateral login must complete
// with 10% injected packet loss on every simulated link AND the
// rendezvous service entirely offline. The server's breaker opens, push
// payloads are parked in the poll queue, and the phone's polling
// fallback picks them up — no component may hang or hand out a wrong
// password. A saturated server sheds load with an early 503.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "crypto/drbg.h"
#include "eval/testbed.h"
#include "resilience/fault.h"
#include "resilience/policy.h"
#include "testutil.h"

namespace amnesia::eval {
namespace {

using resilience::FaultInjector;
using resilience::FaultKind;
using resilience::FaultRule;
using resilience::ScopedFaultInjector;

TEST(ResilienceE2E, LoginSurvivesLinkLossWithRendezvousDown) {
  TestbedConfig config;
  config.seed = 91;
  // Fail the push RPC quickly so the poll fallback kicks in well inside
  // the browser's 30s phone-wait window.
  config.server.push_rpc_timeout_us = ms_to_us(2000);
  config.phone.poll_interval_us = ms_to_us(500);
  Testbed bed(config);
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());
  const auto clean = bed.get_password("Alice", "mail.google.com");
  ASSERT_TRUE(clean.ok());

  // Rendezvous fully down + 10% loss on every directed link, injected
  // (seeded, replayable) rather than via the profiles' own loss knobs.
  bed.net().set_online("gcm", false);
  FaultInjector injector(/*seed=*/91);
  injector.add_rule(FaultRule{.point = "simnet.link.*",
                              .probability = 0.10,
                              .kind = FaultKind::kDrop});
  ScopedFaultInjector scoped(injector);

  // Loss can still cost a browser attempt a clean kUnavailable timeout;
  // a bounded retry loop must land the identical password.
  bool succeeded = false;
  for (int attempt = 0; attempt < 8 && !succeeded; ++attempt) {
    const auto result = bed.get_password("Alice", "mail.google.com");
    if (result.ok()) {
      EXPECT_EQ(result.value(), clean.value());
      succeeded = true;
    } else {
      EXPECT_EQ(result.code(), Err::kUnavailable) << result.message();
    }
  }
  EXPECT_TRUE(succeeded);

  // The request reached the phone through the poll path, not push.
  EXPECT_GE(bed.server().stats().push_failures, 1u);
  EXPECT_GE(bed.server().stats().poll_enqueued, 1u);
  EXPECT_GE(bed.server().stats().poll_delivered, 1u);
  EXPECT_GE(bed.phone().stats().polled_pushes, 1u);
  EXPECT_GE(bed.phone().stats().polls_sent, 1u);
}

TEST(ResilienceE2E, BreakerOpensUnderSustainedOutageThenRecovers) {
  TestbedConfig config;
  config.seed = 92;
  config.server.push_rpc_timeout_us = ms_to_us(1000);
  config.server.rendezvous_breaker.failure_threshold = 3;
  config.server.rendezvous_breaker.open_cooldown_us = ms_to_us(4000);
  config.phone.poll_interval_us = ms_to_us(400);
  Testbed bed(config);
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());
  const auto clean = bed.get_password("Alice", "mail.google.com");
  ASSERT_TRUE(clean.ok());

  bed.net().set_online("gcm", false);
  // Enough logins to trip the threshold-3 breaker; each still completes
  // through the poll fallback.
  for (int i = 0; i < 5; ++i) {
    const auto r = bed.get_password("Alice", "mail.google.com");
    ASSERT_TRUE(r.ok()) << r.message();
    EXPECT_EQ(r.value(), clean.value());
  }
  auto& m = bed.server().metrics();
  EXPECT_GE(m.counter("resilience.breaker.rendezvous.opened").value(), 1u);
  // Once open, requests skip the doomed push RPC entirely: fewer push
  // failures than logins attempted during the outage.
  EXPECT_LT(bed.server().stats().push_failures, 5u);
  EXPECT_GE(bed.server().stats().poll_enqueued, 5u);

  // Service restored: after the cooldown a half-open probe closes the
  // breaker and the push path comes back.
  bed.net().set_online("gcm", true);
  bool push_again = false;
  for (int i = 0; i < 8 && !push_again; ++i) {
    const auto r = bed.get_password("Alice", "mail.google.com");
    ASSERT_TRUE(r.ok()) << r.message();
    EXPECT_EQ(r.value(), clean.value());
    push_again = m.counter("resilience.breaker.rendezvous.closed").value() > 0;
  }
  EXPECT_TRUE(push_again);
  EXPECT_GE(m.counter("resilience.breaker.rendezvous.half_opened").value(),
            1u);
  // Duplicate deliveries (push + poll racing) must have been absorbed by
  // the phone, not double-answered: one accepted token per password.
  // (Drain the in-flight ack of the final /token POST first — the
  // browser's callback fires a hop before the phone's.)
  bed.sim().run_until(bed.sim().now() + ms_to_us(2000));
  EXPECT_EQ(bed.phone().stats().tokens_sent,
            bed.server().stats().passwords_generated);
}

TEST(ResilienceE2E, BreakerOpenWithPushOnlyPhoneStillTimesOutCleanly) {
  // A push-only phone (poll_interval_us = 0, the default) never drains
  // the poll queue. With the rendezvous breaker open the request is
  // parked there anyway — the browser must still get its phone-wait 504
  // instead of hanging forever on a payload nobody will ever fetch.
  TestbedConfig config;
  config.seed = 93;
  config.server.push_rpc_timeout_us = ms_to_us(500);
  config.server.phone_wait_timeout_us = ms_to_us(3000);
  config.server.rendezvous_breaker.failure_threshold = 2;
  config.server.rendezvous_breaker.open_cooldown_us = ms_to_us(60'000);
  Testbed bed(config);
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());
  ASSERT_TRUE(bed.get_password("Alice", "mail.google.com").ok());

  bed.net().set_online("gcm", false);
  // Two failed push legs trip the threshold-2 breaker; each round ends
  // in a clean phone-wait timeout.
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(bed.get_password("Alice", "mail.google.com").ok());
  }
  auto& m = bed.server().metrics();
  ASSERT_GE(m.counter("resilience.breaker.rendezvous.opened").value(), 1u);

  // Breaker open: the push RPC is skipped entirely and the payload only
  // parked. The round must still resolve via the 504 backstop.
  const auto before = bed.server().stats().requests_timed_out;
  const auto r = bed.get_password("Alice", "mail.google.com");
  EXPECT_FALSE(r.ok());
  EXPECT_GT(bed.server().stats().requests_timed_out, before);
  EXPECT_GE(bed.server().stats().poll_enqueued, 1u);
}

TEST(ResilienceE2E, PollEntriesRedeliverUntilTtlExpiry) {
  // A poll response can be lost on the same flaky network the fallback
  // exists for, so parked payloads survive their first delivery and are
  // re-offered every poll until TTL — the phone dedups by request id.
  TestbedConfig config;
  config.seed = 94;
  config.server.push_rpc_timeout_us = ms_to_us(500);
  config.server.poll_entry_ttl_us = ms_to_us(5000);
  config.phone.poll_interval_us = ms_to_us(400);
  Testbed bed(config);
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());

  bed.net().set_online("gcm", false);
  const auto r = bed.get_password("Alice", "mail.google.com");
  ASSERT_TRUE(r.ok()) << r.message();

  // Drain the in-flight ack of the /token POST (the phone's 200-response
  // callback lags the browser's by a few hops), then let several more
  // poll cycles run: the answered round's entry is still parked, so each
  // poll re-delivers it and the phone absorbs the duplicates without
  // re-answering.
  bed.sim().run_until(bed.sim().now() + ms_to_us(2000));
  EXPECT_EQ(bed.phone().stats().tokens_sent, 1u);
  EXPECT_GE(bed.server().stats().poll_delivered, 2u);
  EXPECT_GE(bed.phone().stats().duplicate_pushes, 1u);

  // Past TTL the entry ages out and polls go quiet again.
  bed.sim().run_until(bed.sim().now() + ms_to_us(5000));
  const auto delivered = bed.server().stats().poll_delivered;
  bed.sim().run_until(bed.sim().now() + ms_to_us(2000));
  EXPECT_EQ(bed.server().stats().poll_delivered, delivered);
  EXPECT_EQ(bed.phone().stats().tokens_sent, 1u);
}

TEST(ResilienceE2E, SaturatedServerShedsPastShedMaxQueue) {
  // One worker, a second of modelled CPU per request and a queue bound of
  // one: of three requests sent at once, one runs, one queues behind it
  // and one is shed.
  TestbedConfig config;
  config.seed = 95;
  config.server.workers = 1;
  config.server.light_compute_ms = 1000.0;
  config.server.shed_max_queue = 1;
  Testbed bed(config);
  crypto::ChaChaDrbg rng(95);
  testutil::OpsClient ops(bed, rng);

  std::vector<int> statuses;
  std::string retry_after;
  for (int i = 0; i < 3; ++i) {
    ops.http.get("/accounts", [&](Result<websvc::Response> r) {
      EXPECT_TRUE(r.ok()) << r.message();
      if (!r.ok()) return;
      statuses.push_back(r.value().status);
      if (r.value().status == 503) {
        retry_after = r.value().header("Retry-After").value_or("");
      }
    });
  }
  bed.sim().run_until(bed.sim().now() + ms_to_us(10'000));

  // The two that got a worker fail authentication, as unauthenticated
  // requests do; the shed one never reached a handler.
  std::sort(statuses.begin(), statuses.end());
  EXPECT_EQ(statuses, (std::vector<int>{401, 401, 503}));
  EXPECT_EQ(retry_after, "1");
  EXPECT_EQ(bed.server().http().stats().requests_shed, 1u);
  EXPECT_EQ(
      bed.server().metrics().counter("resilience.requests_shed").value(), 1u);
}

}  // namespace
}  // namespace amnesia::eval
