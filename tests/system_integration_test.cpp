// End-to-end integration of the full Amnesia system over the simulated
// network: the six-step flow of Fig. 1, pairing, policies, multi-computer
// access, and failure modes.
#include <gtest/gtest.h>

#include "core/generate.h"
#include "eval/testbed.h"
#include "eval/trace.h"
#include "obs/metrics.h"
#include "websvc/http.h"

namespace amnesia::eval {
namespace {

TEST(SystemIntegration, SignupLoginPairGenerate) {
  Testbed bed;
  ASSERT_TRUE(bed.signup("alice", "correct horse").ok());
  ASSERT_TRUE(bed.login("alice", "correct horse").ok());
  ASSERT_TRUE(bed.pair_phone("alice").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());

  const auto password = bed.get_password("Alice", "mail.google.com");
  ASSERT_TRUE(password.ok()) << password.message();
  EXPECT_EQ(password.value().size(), 32u);
  EXPECT_EQ(bed.server().stats().passwords_generated, 1u);
  bed.sim().run();  // drain the phone's token-accepted acknowledgement
  EXPECT_EQ(bed.phone().stats().tokens_sent, 1u);
}

TEST(SystemIntegration, PasswordIsDeterministicAcrossRequests) {
  Testbed bed;
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());
  const auto p1 = bed.get_password("Alice", "mail.google.com");
  const auto p2 = bed.get_password("Alice", "mail.google.com");
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p1.value(), p2.value());
}

TEST(SystemIntegration, GeneratedPasswordMatchesOfflineComputation) {
  // The distributed flow must produce exactly what the core pipeline
  // computes from (K_s, K_p) directly.
  Testbed bed;
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());
  const auto password = bed.get_password("Alice", "mail.google.com");
  ASSERT_TRUE(password.ok());

  const auto ks = bed.server().db().server_secrets("alice");
  ASSERT_TRUE(ks.has_value());
  const auto* account = ks->find({"Alice", "mail.google.com"});
  ASSERT_NE(account, nullptr);
  const std::string offline = core::end_to_end_password(
      account->id, account->seed, ks->oid, bed.phone().secrets().entry_table,
      account->policy);
  EXPECT_EQ(password.value(), offline);
}

TEST(SystemIntegration, DistinctAccountsGetDistinctPasswords) {
  Testbed bed;
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());
  ASSERT_TRUE(bed.add_account("Alice2", "www.facebook.com").ok());
  ASSERT_TRUE(bed.add_account("Bob", "www.yahoo.com").ok());
  const auto p1 = bed.get_password("Alice", "mail.google.com");
  const auto p2 = bed.get_password("Alice2", "www.facebook.com");
  const auto p3 = bed.get_password("Bob", "www.yahoo.com");
  ASSERT_TRUE(p1.ok() && p2.ok() && p3.ok());
  EXPECT_NE(p1.value(), p2.value());
  EXPECT_NE(p1.value(), p3.value());
  EXPECT_NE(p2.value(), p3.value());
}

TEST(SystemIntegration, SeedRotationChangesPassword) {
  Testbed bed;
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());
  const auto before = bed.get_password("Alice", "mail.google.com");
  ASSERT_TRUE(before.ok());

  bool rotated = false;
  bed.browser().rotate_seed("Alice", "mail.google.com",
                            [&](Status s) { rotated = s.ok(); });
  bed.sim().run();
  ASSERT_TRUE(rotated);

  const auto after = bed.get_password("Alice", "mail.google.com");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(before.value(), after.value());
}

TEST(SystemIntegration, PolicyConstrainedPassword) {
  Testbed bed;
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  const core::PasswordPolicy policy{
      core::CharacterTable::from_categories(true, true, true, false), 12};
  ASSERT_TRUE(bed.add_account("Alice", "legacybank.example", policy).ok());
  const auto password = bed.get_password("Alice", "legacybank.example");
  ASSERT_TRUE(password.ok());
  EXPECT_EQ(password.value().size(), 12u);
  for (const char c : password.value()) {
    EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c))) << c;
  }
}

TEST(SystemIntegration, WrongMasterPasswordRejectedAndThrottled) {
  Testbed bed;
  ASSERT_TRUE(bed.signup("alice", "right").ok());
  for (int i = 0; i < 5; ++i) {
    const Status s = bed.login("alice", "wrong");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), Err::kAuthFailed);
  }
  // Sixth attempt hits the lockout — even with the right password.
  const Status locked = bed.login("alice", "right");
  EXPECT_FALSE(locked.ok());
  EXPECT_EQ(locked.code(), Err::kThrottled);
  EXPECT_GE(bed.server().stats().logins_throttled, 1u);
}

TEST(SystemIntegration, UnauthenticatedRequestsRejected) {
  Testbed bed;
  ASSERT_TRUE(bed.signup("alice", "mp").ok());
  // No login: every authenticated route must 401.
  const Status add = bed.add_account("Alice", "mail.google.com");
  EXPECT_FALSE(add.ok());
  EXPECT_EQ(add.code(), Err::kAuthFailed);
  const auto password = bed.get_password("Alice", "mail.google.com");
  EXPECT_FALSE(password.ok());
  EXPECT_EQ(password.code(), Err::kAuthFailed);
}

TEST(SystemIntegration, WrongCaptchaFailsPairing) {
  Testbed bed;
  ASSERT_TRUE(bed.signup("alice", "mp").ok());
  ASSERT_TRUE(bed.login("alice", "mp").ok());
  bed.phone().install();
  Status reg_status(Err::kInternal, "pending");
  bed.phone().register_with_rendezvous([&](Status s) { reg_status = s; });
  bed.sim().run();
  ASSERT_TRUE(reg_status.ok());

  std::string captcha;
  bed.browser().start_pairing([&](Result<std::string> r) {
    captcha = r.value();
  });
  bed.sim().run();
  ASSERT_FALSE(captcha.empty());

  // Phone submits a wrong code.
  Status pair_status = ok_status();
  bed.phone().pair("alice", "000000" == captcha ? "111111" : "000000",
                   [&](Status s) { pair_status = s; });
  bed.sim().run();
  EXPECT_FALSE(pair_status.ok());
  EXPECT_EQ(pair_status.code(), Err::kVerificationFailed);
  EXPECT_EQ(bed.server().stats().pairings_rejected, 1u);
}

TEST(SystemIntegration, RequestWithoutPairedPhoneFails) {
  Testbed bed;
  ASSERT_TRUE(bed.signup("alice", "mp").ok());
  ASSERT_TRUE(bed.login("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());
  const auto password = bed.get_password("Alice", "mail.google.com");
  EXPECT_FALSE(password.ok());
  EXPECT_EQ(password.code(), Err::kAlreadyExists);  // 409: no phone paired
}

TEST(SystemIntegration, UnknownAccountFails) {
  Testbed bed;
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  const auto password = bed.get_password("Nobody", "nowhere.example");
  EXPECT_FALSE(password.ok());
  EXPECT_EQ(password.code(), Err::kNotFound);
}

TEST(SystemIntegration, DeclinedOnPhonePropagatesToBrowser) {
  Testbed bed;
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());
  bed.phone().set_confirmation_policy(
      [](const core::PasswordRequestPush&) { return false; });
  const auto password = bed.get_password("Alice", "mail.google.com");
  EXPECT_FALSE(password.ok());
  EXPECT_EQ(password.code(), Err::kDeclined);
  EXPECT_EQ(bed.server().stats().requests_declined, 1u);
  EXPECT_EQ(bed.phone().stats().requests_declined, 1u);
}

TEST(SystemIntegration, OfflinePhoneTimesOut) {
  TestbedConfig config;
  config.server.phone_wait_timeout_us = ms_to_us(5000);
  Testbed bed(config);
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());

  bed.net().set_online("phone", false);
  const auto password = bed.get_password("Alice", "mail.google.com");
  EXPECT_FALSE(password.ok());
  EXPECT_EQ(password.code(), Err::kUnavailable);
  EXPECT_EQ(bed.server().stats().requests_timed_out, 1u);

  // Phone returns; queued push is stale but new requests work.
  bed.net().set_online("phone", true);
  Status reconnect(Err::kInternal, "pending");
  bed.phone().reconnect([&](Status s) { reconnect = s; });
  bed.sim().run();
  ASSERT_TRUE(reconnect.ok());
  const auto retry = bed.get_password("Alice", "mail.google.com");
  EXPECT_TRUE(retry.ok()) << retry.message();
}

TEST(SystemIntegration, SecondComputerNeedsOnlyLogin) {
  // Deployability claim: access from multiple computers with no client
  // software — just the master password.
  Testbed bed;
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());
  const auto from_first = bed.get_password("Alice", "mail.google.com");
  ASSERT_TRUE(from_first.ok());

  auto second = bed.make_browser("office-pc");
  ASSERT_TRUE(bed.login_from(*second, "alice", "mp").ok());
  const auto from_second =
      bed.get_password_from(*second, "Alice", "mail.google.com");
  ASSERT_TRUE(from_second.ok());
  EXPECT_EQ(from_first.value(), from_second.value());
}

TEST(SystemIntegration, TracedFlowMatchesFig1Sequence) {
  // The six-step message sequence of Fig. 1, observed on the wire.
  Testbed bed;
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());

  TraceCollector trace(bed.net());
  ASSERT_TRUE(bed.get_password("Alice", "mail.google.com").ok());
  bed.sim().run();

  // Extract the ordered hop list and assert the architecture's sequence:
  // browser -> server (1/2), server -> gcm (3), gcm -> phone (push),
  // phone -> server (4: token), server -> browser (5/6: password).
  auto index_of = [&](const std::string& from, const std::string& to,
                      std::size_t start) -> std::size_t {
    const auto& events = trace.events();
    for (std::size_t i = start; i < events.size(); ++i) {
      if (events[i].from == from && events[i].to == to) return i;
    }
    return SIZE_MAX;
  };
  const std::size_t browser_to_server = index_of("browser", "amnesia-server", 0);
  ASSERT_NE(browser_to_server, SIZE_MAX);
  const std::size_t server_to_gcm =
      index_of("amnesia-server", "gcm", browser_to_server);
  ASSERT_NE(server_to_gcm, SIZE_MAX);
  const std::size_t gcm_to_phone = index_of("gcm", "phone", server_to_gcm);
  ASSERT_NE(gcm_to_phone, SIZE_MAX);
  EXPECT_EQ(trace.events()[gcm_to_phone].annotation,
            "GCM push (request R, origin ip, tstart)");
  const std::size_t phone_to_server =
      index_of("phone", "amnesia-server", gcm_to_phone);
  ASSERT_NE(phone_to_server, SIZE_MAX);
  const std::size_t server_to_browser =
      index_of("amnesia-server", "browser", phone_to_server);
  ASSERT_NE(server_to_browser, SIZE_MAX);

  // Rendering is well-formed and mentions the push hop.
  const std::string chart = trace.render();
  EXPECT_NE(chart.find("GCM push"), std::string::npos);
  EXPECT_NE(chart.find("browser"), std::string::npos);
}

TEST(SystemIntegration, FullTestbedIsDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    TestbedConfig config;
    config.seed = seed;
    Testbed bed(config);
    EXPECT_TRUE(bed.provision("alice", "mp").ok());
    EXPECT_TRUE(bed.add_account("Alice", "mail.google.com").ok());
    const auto pw = bed.get_password("Alice", "mail.google.com");
    EXPECT_TRUE(pw.ok());
    return pw.ok() ? pw.value() : std::string{};
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));
}

TEST(SystemIntegration, MobileBrowserFlow) {
  // Section III: "The process is the same for a user using a mobile
  // browser. In this case, the phone would also take on the role of the
  // PC." The browser runs on the handset, so its server leg rides the
  // same radio link as the token submission.
  Testbed bed;
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());
  const auto from_pc = bed.get_password("Alice", "mail.google.com");
  ASSERT_TRUE(from_pc.ok());

  auto mobile = bed.make_browser("phone-web");
  const auto& p = simnet::profiles();
  bed.net().set_link("phone-web", "amnesia-server", p.wifi_uplink);
  bed.net().set_link("amnesia-server", "phone-web", p.wifi_downlink);

  ASSERT_TRUE(bed.login_from(*mobile, "alice", "mp").ok());
  const auto from_mobile =
      bed.get_password_from(*mobile, "Alice", "mail.google.com");
  ASSERT_TRUE(from_mobile.ok()) << from_mobile.message();
  EXPECT_EQ(from_mobile.value(), from_pc.value());
}

TEST(SystemIntegration, AccountListAndRemove) {
  Testbed bed;
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());
  ASSERT_TRUE(bed.add_account("Bob", "www.yahoo.com").ok());

  std::vector<std::string> listing;
  bed.browser().list_accounts([&](Result<std::vector<std::string>> r) {
    listing = r.value();
  });
  bed.sim().run();
  EXPECT_EQ(listing.size(), 2u);

  bool removed = false;
  bed.browser().remove_account("Bob", "www.yahoo.com",
                               [&](Status s) { removed = s.ok(); });
  bed.sim().run();
  EXPECT_TRUE(removed);

  bed.browser().list_accounts([&](Result<std::vector<std::string>> r) {
    listing = r.value();
  });
  bed.sim().run();
  EXPECT_EQ(listing.size(), 1u);
}

TEST(SystemIntegration, DuplicateAccountRejected) {
  Testbed bed;
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());
  const Status dup = bed.add_account("Alice", "mail.google.com");
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), Err::kAlreadyExists);
}

TEST(SystemIntegration, AutofillHookReceivesPassword) {
  Testbed bed;
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());
  std::string filled_domain, filled_password;
  bed.browser().set_autofill_hook(
      [&](const std::string& domain, const std::string&,
          const std::string& password) {
        filled_domain = domain;
        filled_password = password;
      });
  const auto password = bed.get_password("Alice", "mail.google.com");
  ASSERT_TRUE(password.ok());
  EXPECT_EQ(filled_domain, "mail.google.com");
  EXPECT_EQ(filled_password, password.value());
}

TEST(SystemIntegration, LogoutInvalidatesSession) {
  Testbed bed;
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());
  bool out = false;
  bed.browser().logout([&](Status s) { out = s.ok(); });
  bed.sim().run();
  ASSERT_TRUE(out);
  const Status s = bed.add_account("Bob", "www.yahoo.com");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Err::kAuthFailed);
}

TEST(SystemIntegration, RoundSpanTreeCoversProtocolPhases) {
  // One password round produces exactly one protocol.round trace whose
  // finished children decompose the bilateral flow: the rendezvous push
  // leg, the wait for the phone's token, and the password computation.
  Testbed bed;
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());
  bed.server().metrics().tracer().clear();

  ASSERT_TRUE(bed.get_password("Alice", "mail.google.com").ok());
  bed.sim().run();

  const auto spans = bed.server().metrics().tracer().snapshot();
  std::vector<obs::TraceSpan> roots;
  for (const auto& s : spans) {
    if (s.name == "protocol.round") roots.push_back(s);
  }
  ASSERT_EQ(roots.size(), 1u);
  // No longer a detached root: the round joins the browser's distributed
  // trace, parented under the http.server span of POST /password/request.
  ASSERT_NE(roots[0].parent, 0u);
  bool parent_is_http_server = false;
  for (const auto& s : spans) {
    if (s.name == "http.server" && s.id == roots[0].parent) {
      parent_is_http_server = true;
    }
  }
  EXPECT_TRUE(parent_is_http_server);
  ASSERT_TRUE(roots[0].finished);
  EXPECT_GT(roots[0].end, roots[0].start);

  std::vector<obs::TraceSpan> children;  // finished, in start order
  for (const auto& s : spans) {
    if (s.parent == roots[0].id && s.finished) children.push_back(s);
  }
  ASSERT_EQ(children.size(), 3u);
  EXPECT_EQ(children[0].name, "rendezvous.push");
  EXPECT_EQ(children[1].name, "phone.wait");
  EXPECT_EQ(children[2].name, "server.generate");
  for (const auto& child : children) {
    EXPECT_GE(child.start, roots[0].start) << child.name;
    EXPECT_LE(child.end, roots[0].end) << child.name;
  }
  // The phases are where the time goes: waiting on the phone dominates.
  const auto span_us = [](const obs::TraceSpan& s) { return s.end - s.start; };
  EXPECT_GT(span_us(children[1]), span_us(children[2]));
}

TEST(SystemIntegration, MetricsEndpointMatchesInProcessSnapshot) {
  // GET /metrics, served through the real router, must export exactly the
  // registry's in-process state: the route is metrics-exempt, so serving
  // the snapshot does not perturb what it reports.
  Testbed bed;
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());
  ASSERT_TRUE(bed.get_password("Alice", "mail.google.com").ok());
  bed.sim().run();

  websvc::Request req;
  req.method = websvc::Method::kGet;
  req.path = "/metrics";
  std::string body;
  bed.server().http().handle_bytes(
      websvc::serialize(req), [&](Bytes wire) {
        const auto resp = websvc::parse_response(wire);
        ASSERT_EQ(resp.status, 200);
        body = resp.body;
      });
  ASSERT_FALSE(body.empty());

  const obs::Snapshot served = obs::parse_text(body);
  const obs::Snapshot in_process = bed.server().metrics().snapshot();
  EXPECT_EQ(served, in_process);

  // The endpoint covers every instrumented subsystem of the tentpole:
  // worker pool, per-route HTTP, secure channel, and storage.
  const auto& counters = served.counters;
  EXPECT_GT(counters.at("threadpool.jobs_completed"), 0u);
  EXPECT_GT(counters.at("http.requests"), 0u);
  EXPECT_GT(counters.at("securechan.handshakes"), 0u);
  EXPECT_GT(counters.at("securechan.records_opened"), 0u);
  EXPECT_GT(counters.at("storage.queries"), 0u);
  EXPECT_GT(counters.at("server.passwords_generated"), 0u);
  bool has_route_metric = false;
  for (const auto& [name, value] : counters) {
    if (name.rfind("http.route.", 0) == 0 && value > 0) {
      has_route_metric = true;
    }
  }
  EXPECT_TRUE(has_route_metric);
  const auto& hist =
      served.histograms.at("protocol.round_latency_us");
  EXPECT_EQ(hist.count, 1u);

  // Serving /metrics is invisible to the metrics themselves: a second
  // request exports a byte-identical document.
  std::string again;
  bed.server().http().handle_bytes(
      websvc::serialize(req), [&](Bytes wire) {
        again = websvc::parse_response(wire).body;
      });
  EXPECT_EQ(again, body);
}

TEST(SystemIntegration, LatencyIsRecordedPerGeneration) {
  Testbed bed;
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(bed.get_password("Alice", "mail.google.com").ok());
  }
  const auto& latencies = bed.server().password_latencies();
  ASSERT_EQ(latencies.size(), 3u);
  for (const Micros us : latencies) {
    // The WiFi pipeline is calibrated around ~785 ms; any sane sample is
    // comfortably inside [200 ms, 2 s].
    EXPECT_GT(us, ms_to_us(200));
    EXPECT_LT(us, ms_to_us(2000));
  }
}

TEST(SystemIntegration, MetricsEndpointExportsResilienceCounters) {
  // Trip the rendezvous breaker (outage + low threshold), then confirm
  // the resilience.* series ride the same GET /metrics document as the
  // rest of the observability layer.
  TestbedConfig config;
  config.seed = 95;
  config.server.push_rpc_timeout_us = ms_to_us(1000);
  config.server.rendezvous_breaker.failure_threshold = 2;
  config.phone.poll_interval_us = ms_to_us(400);
  Testbed bed(config);
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("Alice", "mail.google.com").ok());

  bed.net().set_online("gcm", false);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(bed.get_password("Alice", "mail.google.com").ok());
  }

  websvc::Request req;
  req.method = websvc::Method::kGet;
  req.path = "/metrics";
  std::string body;
  bed.server().http().handle_bytes(
      websvc::serialize(req), [&](Bytes wire) {
        const auto resp = websvc::parse_response(wire);
        ASSERT_EQ(resp.status, 200);
        body = resp.body;
      });
  ASSERT_FALSE(body.empty());

  const obs::Snapshot served = obs::parse_text(body);
  EXPECT_GE(served.counters.at("resilience.breaker.rendezvous.opened"), 1u);
  EXPECT_GE(served.counters.at("server.push_failures"), 1u);
  EXPECT_GE(served.counters.at("server.poll_enqueued"), 3u);
  EXPECT_GE(served.counters.at("server.poll_delivered"), 3u);
  ASSERT_TRUE(served.gauges.contains("resilience.breaker.rendezvous.state"));
}

}  // namespace
}  // namespace amnesia::eval
