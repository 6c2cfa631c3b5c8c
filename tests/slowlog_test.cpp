// Slow-request flight recorder and the filtered observability endpoints:
// SlowLog ring semantics, a deliberately slowed login (injected link
// jitter) surfacing in GET /slowlog with per-hop blame naming the
// phone wait, the sharded aggregate /slowlog, the hardened
// GET /events?level=&since= filters, and the exemplar -> GET /trace/<id>
// resolution path over the merged shard snapshot.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/drbg.h"
#include "eval/deployment.h"
#include "eval/testbed.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "obs/trace.h"
#include "simnet/link.h"
#include "testutil.h"
#include "websvc/http.h"

namespace amnesia {
namespace {

using eval::Deployment;
using eval::DeploymentConfig;
using eval::Testbed;
using eval::TestbedConfig;
using obs::SlowLog;
using obs::SlowLogEntry;
using testutil::OpsClient;

constexpr const char* kMp = "one master password";

// ------------------------------------------------------ ring semantics

SlowLogEntry entry_at(Micros at, const std::string& name) {
  SlowLogEntry e;
  e.at = at;
  e.name = name;
  e.outcome = "ok";
  e.duration_us = 100;
  return e;
}

TEST(SlowLogRing, ThresholdGatesRecording) {
  SlowLog log;
  EXPECT_EQ(log.threshold(), 0);
  EXPECT_FALSE(log.should_record(1'000'000'000))
      << "threshold 0 disables the recorder";
  log.set_threshold(5'000);
  EXPECT_FALSE(log.should_record(5'000)) << "strictly above, not at";
  EXPECT_TRUE(log.should_record(5'001));
  log.set_threshold(-3);
  EXPECT_FALSE(log.should_record(1)) << "negative clamps to disabled";
}

TEST(SlowLogRing, DropsOldestPastCapacity) {
  SlowLog log(3);
  for (int i = 0; i < 5; ++i) {
    log.record(entry_at(i + 1, "e" + std::to_string(i)));
  }
  const auto entries = log.snapshot();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries.front().name, "e2") << "oldest two dropped";
  EXPECT_EQ(entries.back().name, "e4");
  EXPECT_EQ(log.dropped(), 2u);
  log.clear();
  EXPECT_TRUE(log.snapshot().empty());
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(SlowLogRing, BlameTrimmedToCap) {
  SlowLog log;
  SlowLogEntry e = entry_at(1, "fat");
  for (std::size_t i = 0; i < SlowLog::kMaxBlame + 4; ++i) {
    e.blame.push_back(obs::CriticalPathEntry{"hop" + std::to_string(i),
                                             "server", 1, 10, 10});
  }
  log.record(std::move(e));
  ASSERT_EQ(log.snapshot().size(), 1u);
  EXPECT_EQ(log.snapshot()[0].blame.size(), SlowLog::kMaxBlame);
}

TEST(SlowLogRing, JsonLinesAndSinceFilter) {
  SlowLog log;
  log.record(entry_at(100, "first"));
  log.record(entry_at(200, "second"));
  const std::string all = log.to_json_lines();
  EXPECT_NE(all.find("\"name\": \"first\""), std::string::npos);
  EXPECT_NE(all.find("\"name\": \"second\""), std::string::npos);
  const std::string delta = log.to_json_lines(100);
  EXPECT_EQ(delta.find("\"name\": \"first\""), std::string::npos)
      << "since is exclusive: at <= since is skipped";
  EXPECT_NE(delta.find("\"name\": \"second\""), std::string::npos);
  EXPECT_TRUE(log.to_json_lines(200).empty());
}

// ------------------------------------- slowed login hits the recorder

TEST(SlowLogE2e, JitteredLinkPutsLoginInSlowlogWithPhoneWaitBlame) {
  TestbedConfig config;
  config.seed = 91;
  config.server.slow_request_slo_us = 300'000;  // 300 ms SLO
  Testbed bed(config);
  // Deliberately degrade the push leg: heavy base latency + jitter on
  // GCM -> phone, the slow last mile of the bilateral round trip.
  simnet::LinkProfile slow = simnet::profiles().wifi_downlink;
  slow.name = "jittered-downlink";
  slow.base_latency_ms = 1200.0;
  slow.jitter_ms = 400.0;
  bed.net().set_link("gcm", "phone", slow);
  bed.net().set_link("amnesia-server", "phone", slow);

  ASSERT_TRUE(bed.provision("alice", kMp).ok());
  ASSERT_TRUE(bed.add_account("acct", "alice.example.com").ok());
  ASSERT_TRUE(bed.get_password("acct", "alice.example.com").ok());

  const auto entries = bed.server().slowlog().snapshot();
  ASSERT_FALSE(entries.empty()) << "slowed round must be recorded";
  const SlowLogEntry& e = entries.back();
  EXPECT_EQ(e.name, "login");
  EXPECT_EQ(e.outcome, "ok");
  EXPECT_GT(e.duration_us, e.threshold_us);
  EXPECT_EQ(e.threshold_us, 300'000);
  EXPECT_TRUE(e.trace_id.valid()) << "entry must link to the round's trace";
  ASSERT_FALSE(e.blame.empty());
  bool blames_phone_wait = false;
  for (const auto& hop : e.blame) {
    if (hop.name == "phone.wait") blames_phone_wait = true;
  }
  EXPECT_TRUE(blames_phone_wait)
      << "critical-path blame must name the slow hop";
  // The jittered downlink dominates the round: phone.wait is the top
  // self-time hop, not an also-ran.
  EXPECT_EQ(e.blame.front().name, "phone.wait");

  // The operator view: GET /slowlog serves the same story as JSON lines.
  crypto::ChaChaDrbg rng(17);
  OpsClient ops(bed, rng);
  const auto resp = ops.get(bed.sim(), "/slowlog");
  ASSERT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"name\": \"login\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"name\": \"phone.wait\""), std::string::npos);
  EXPECT_NE(resp.body.find(obs::trace_id_hex(e.trace_id)),
            std::string::npos);

  // ?since= of the newest entry returns the empty delta; hostile values
  // are rejected, not coerced.
  EXPECT_TRUE(
      ops.get(bed.sim(), "/slowlog?since=" + std::to_string(e.at)).body
          .empty());
  EXPECT_EQ(ops.get(bed.sim(), "/slowlog?since=12x4").status, 400);
  EXPECT_EQ(
      ops.get(bed.sim(), "/slowlog?since=99999999999999999999999").status,
      400);
}

TEST(SlowLogE2e, FastRoundsStayOutOfTheRecorder) {
  TestbedConfig config;
  config.seed = 92;
  config.server.slow_request_slo_us = 30'000'000;  // absurdly generous SLO
  Testbed bed(config);
  ASSERT_TRUE(bed.provision("alice", kMp).ok());
  ASSERT_TRUE(bed.add_account("acct", "alice.example.com").ok());
  ASSERT_TRUE(bed.get_password("acct", "alice.example.com").ok());
  EXPECT_TRUE(bed.server().slowlog().snapshot().empty());
}

// --------------------------------------------- sharded aggregate view

TEST(SlowLogSharded, AggregateSlowlogConcatenatesEveryShard) {
  DeploymentConfig config{.shards = 2};
  config.base.seed = 93;
  // A 1 ms SLO makes every real round slow: both shards record entries
  // without needing per-shard link surgery.
  config.base.server.slow_request_slo_us = 1'000;
  Deployment st(config);
  st.start();
  ASSERT_NE(st.owner_of("alice"), st.owner_of("bob"));
  for (const std::string user : {"alice", "bob"}) {
    ASSERT_TRUE(st.world().provision(user, kMp).ok()) << user;
    ASSERT_TRUE(st.world().add_account("A", "site.example.com").ok());
    ASSERT_TRUE(st.world().get_password("A", "site.example.com").ok());
  }
  for (std::size_t k = 0; k < st.servers(); ++k) {
    EXPECT_FALSE(st.server(k).slowlog().snapshot().empty())
        << "shard " << k << " served a round and must have recorded it";
  }

  crypto::ChaChaDrbg rng(19);
  OpsClient ops(st.world(), rng);
  const auto resp = ops.get(st.world().sim(), "/slowlog");
  ASSERT_EQ(resp.status, 200);
  // Every shard's entries ride in one response: each shard recorded a
  // login whose trace id must appear in the aggregate body.
  for (std::size_t k = 0; k < st.servers(); ++k) {
    for (const auto& e : st.server(k).slowlog().snapshot()) {
      EXPECT_NE(resp.body.find(obs::trace_id_hex(e.trace_id)),
                std::string::npos)
          << "shard " << k << " entry missing from aggregate /slowlog";
    }
  }
  // Malformed queries are vetoed by the legs and propagate as one 400.
  EXPECT_EQ(ops.get(st.world().sim(), "/slowlog?since=banana").status, 400);
}

// ------------------------------------------------ /events filters

TEST(EventsFilters, LevelAndSinceAreStrictAndBounded) {
  DeploymentConfig config{.shards = 2};
  config.base.seed = 94;
  Deployment st(config);
  st.start();
  ASSERT_TRUE(st.world().provision("alice", kMp).ok());

  // Seed both shards' logs with known records at known severities.
  st.server(0).metrics().events().emit(obs::EventLevel::kInfo, "test",
                                      "info-on-shard-0");
  st.server(0).metrics().events().emit(obs::EventLevel::kError, "test",
                                      "error-on-shard-0");
  st.server(1).metrics().events().emit(obs::EventLevel::kWarn, "test",
                                      "warn-on-shard-1");

  crypto::ChaChaDrbg rng(23);
  OpsClient ops(st.world(), rng);

  const auto all = ops.get(st.world().sim(), "/events");
  ASSERT_EQ(all.status, 200);
  EXPECT_NE(all.body.find("info-on-shard-0"), std::string::npos);
  EXPECT_NE(all.body.find("error-on-shard-0"), std::string::npos);
  EXPECT_NE(all.body.find("warn-on-shard-1"), std::string::npos);

  const auto warns = ops.get(st.world().sim(), "/events?level=warn");
  ASSERT_EQ(warns.status, 200);
  EXPECT_EQ(warns.body.find("info-on-shard-0"), std::string::npos)
      << "level filter must drop records below the floor";
  EXPECT_NE(warns.body.find("error-on-shard-0"), std::string::npos);
  EXPECT_NE(warns.body.find("warn-on-shard-1"), std::string::npos);

  // since far in the virtual future: nothing qualifies, on any shard.
  const auto none =
      ops.get(st.world().sim(), "/events?since=999999999999");
  ASSERT_EQ(none.status, 200);
  EXPECT_EQ(none.body.find("-on-shard-"), std::string::npos);

  // Hostile query values are rejected with 400, exactly like the trace
  // codec rejects malformed ids: no guessing, no coercion.
  EXPECT_EQ(ops.get(st.world().sim(), "/events?level=WARN").status, 400)
      << "level names are exact, not case-folded";
  EXPECT_EQ(ops.get(st.world().sim(), "/events?level=warn%3Bdrop").status,
            400);
  EXPECT_EQ(ops.get(st.world().sim(), "/events?since=-5").status, 400);
  EXPECT_EQ(
      ops.get(st.world().sim(), "/events?since=11111111111111111111111111")
          .status,
      400);
}

// ------------------------------------- exemplar -> /trace resolution

TEST(ExemplarResolution, MergedMetricsExemplarResolvesToConnectedTrace) {
  DeploymentConfig config{.shards = 2};
  config.base.seed = 95;
  Deployment st(config);
  st.start();
  for (const std::string user : {"alice", "bob"}) {
    ASSERT_TRUE(st.world().provision(user, kMp).ok()) << user;
    ASSERT_TRUE(st.world().add_account("A", "site.example.com").ok());
    ASSERT_TRUE(st.world().get_password("A", "site.example.com").ok());
  }

  crypto::ChaChaDrbg rng(29);
  OpsClient ops(st.world(), rng);
  const auto metrics = ops.get(st.world().sim(), "/metrics");
  ASSERT_EQ(metrics.status, 200);
  const obs::Snapshot merged = obs::parse_text(metrics.body);
  const auto it = merged.histograms.find("protocol.round_latency_us");
  ASSERT_NE(it, merged.histograms.end());
  ASSERT_FALSE(it->second.exemplars.empty())
      << "round latency must carry bucket exemplars through the "
       "shard merge";

  for (const obs::Exemplar& ex : it->second.exemplars) {
    ASSERT_TRUE(ex.trace_id.valid());
    EXPECT_EQ(ex.attr, "protocol.round");
    // The operator's jump: the exemplar's id fetches a real tree.
    const auto trace = ops.get(
        st.world().sim(), "/trace/" + obs::trace_id_hex(ex.trace_id));
    ASSERT_EQ(trace.status, 200)
        << "exemplar trace must resolve via GET /trace/<id>";
    EXPECT_NE(trace.body.find("protocol.round"), std::string::npos);
    // And the tree is connected, merged across both shard tracers.
    std::vector<obs::TraceSpan> spans;
    for (std::size_t k = 0; k < st.servers(); ++k) {
      const auto part = st.server(k).metrics().tracer().trace(ex.trace_id);
      spans.insert(spans.end(), part.begin(), part.end());
    }
    ASSERT_FALSE(spans.empty());
    EXPECT_TRUE(testutil::ConnectedSingleRoot(spans));
  }
}

}  // namespace
}  // namespace amnesia
