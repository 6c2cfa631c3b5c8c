// Cluster replication mechanics (docs/CLUSTER.md): the wire codec and
// its behaviour under hostile bytes, record shipping between live
// replicas, snapshot catch-up for a follower that fell off the bounded
// log, and epoch fencing of a stale primary.
//
// Everything here runs on the deterministic simulated transport; the
// mid-protocol failover drill runs on both transports in
// deployment_matrix_test.cpp, its seeded replays in
// cluster_failover_test.cpp.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "cluster/replication.h"
#include "common/error.h"
#include "eval/deployment.h"
#include "testutil.h"

namespace amnesia {
namespace {

using cluster::ClusterNode;
using cluster::LogRecord;
using cluster::RecordKind;
using cluster::ReplMessage;
using cluster::ReplOp;
using cluster::ReplReply;
using cluster::ReplStatus;
using eval::Deployment;
using eval::DeploymentConfig;

obs::TraceSpan sample_span() {
  obs::TraceSpan span;
  span.trace_id = {0x1122334455667788ull, 0x99aabbccddeeff00ull};
  span.id = 42;
  span.parent = 7;
  span.name = "protocol.round";
  span.component = "server";
  span.start = 1'000;
  span.end = 2'500;
  span.finished = true;
  span.attributes = {{"user", "Alice"}, {"domain", "example.com"}};
  span.events = {{1'200, "push sent"}, {2'400, "token verified"}};
  return span;
}

std::vector<LogRecord> sample_records() {
  return {
      {RecordKind::kStorage, to_bytes("journal-bytes-1")},
      {RecordKind::kSpanStart, cluster::encode_span(sample_span())},
      {RecordKind::kSpanEnd, cluster::encode_span(sample_span())},
  };
}

TEST(ReplicationCodec, SpanRoundTrip) {
  const obs::TraceSpan span = sample_span();
  const obs::TraceSpan back = cluster::decode_span(cluster::encode_span(span));
  EXPECT_EQ(back.trace_id, span.trace_id);
  EXPECT_EQ(back.id, span.id);
  EXPECT_EQ(back.parent, span.parent);
  EXPECT_EQ(back.name, span.name);
  EXPECT_EQ(back.component, span.component);
  EXPECT_EQ(back.start, span.start);
  EXPECT_EQ(back.end, span.end);
  EXPECT_EQ(back.finished, span.finished);
  ASSERT_EQ(back.attributes.size(), 2u);
  EXPECT_EQ(back.attributes[1].key, "domain");
  EXPECT_EQ(back.attributes[1].value, "example.com");
  ASSERT_EQ(back.events.size(), 2u);
  EXPECT_EQ(back.events[0].at, 1'200);
  EXPECT_EQ(back.events[1].message, "token verified");
}

TEST(ReplicationCodec, AppendRoundTrip) {
  const auto records = sample_records();
  const ReplMessage msg =
      cluster::decode_message(cluster::encode_append(7, 41, records));
  EXPECT_EQ(msg.op, ReplOp::kAppend);
  EXPECT_EQ(msg.epoch, 7u);
  EXPECT_EQ(msg.base_seq, 41u);
  ASSERT_EQ(msg.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(msg.records[i].kind, records[i].kind);
    EXPECT_EQ(msg.records[i].payload, records[i].payload);
  }
}

TEST(ReplicationCodec, HeartbeatSnapshotReplyRoundTrip) {
  const ReplMessage hb =
      cluster::decode_message(cluster::encode_heartbeat(3, 99));
  EXPECT_EQ(hb.op, ReplOp::kHeartbeat);
  EXPECT_EQ(hb.epoch, 3u);
  EXPECT_EQ(hb.seq, 99u);

  const Bytes state = to_bytes("pretend-amdb-state");
  const ReplMessage snap =
      cluster::decode_message(cluster::encode_snapshot(4, 123, 77, state));
  EXPECT_EQ(snap.op, ReplOp::kSnapshot);
  EXPECT_EQ(snap.epoch, 4u);
  EXPECT_EQ(snap.seq, 123u);
  EXPECT_EQ(snap.db_offset, 77u);
  EXPECT_EQ(snap.state, state);

  const ReplReply reply =
      cluster::decode_reply(cluster::encode_reply(ReplStatus::kGap, 55));
  EXPECT_EQ(reply.status, ReplStatus::kGap);
  EXPECT_EQ(reply.seq, 55u);
}

// Every strict prefix of a valid message must throw FormatError — never
// crash, never decode to a half-read message — and so must one byte of
// garbage appended past a valid end.
TEST(ReplicationCodec, EveryTruncationThrows) {
  const std::vector<Bytes> wires = {
      cluster::encode_append(7, 41, sample_records()),
      cluster::encode_heartbeat(3, 99),
      cluster::encode_snapshot(4, 123, 77, to_bytes("state-bytes")),
  };
  for (const Bytes& wire : wires) {
    for (std::size_t len = 0; len < wire.size(); ++len) {
      const Bytes prefix(wire.begin(), wire.begin() + len);
      EXPECT_THROW(cluster::decode_message(prefix), FormatError)
          << "prefix of length " << len << " of a " << wire.size()
          << "-byte message decoded";
    }
    Bytes trailing = wire;
    trailing.push_back(0xee);
    EXPECT_THROW(cluster::decode_message(trailing), FormatError);
  }

  const Bytes reply = cluster::encode_reply(ReplStatus::kOk, 1);
  for (std::size_t len = 0; len < reply.size(); ++len) {
    const Bytes prefix(reply.begin(), reply.begin() + len);
    EXPECT_THROW(cluster::decode_reply(prefix), FormatError);
  }
}

// Single-bit corruption anywhere in the message either still decodes (a
// flipped payload byte is indistinguishable from different payload
// bytes) or throws FormatError; it must never crash or over-read.
TEST(ReplicationCodec, BitFlipFuzzNeverCrashes) {
  const Bytes wire = cluster::encode_append(7, 41, sample_records());
  std::size_t rejected = 0;
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = wire;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      try {
        const ReplMessage msg = cluster::decode_message(flipped);
        (void)msg;
      } catch (const FormatError&) {
        ++rejected;
      }
    }
  }
  // The framing fields (op, counts, lengths) dominate the small header,
  // so a healthy decoder rejects a fair share of the flips.
  EXPECT_GT(rejected, 0u);
}

// ---------------------------------------------------------------------
// Live shipping between replicas over the simulated transport.

TEST(ClusterShipping, RecordsReachFollowerAndStatesConverge) {
  Deployment bed({.replicas = 2});
  bed.start();
  eval::Testbed& world = bed.world();
  world.browser().set_tracer(&bed.server(0).metrics().tracer());

  ASSERT_TRUE(world.provision("Alice", "correct horse").ok());
  ASSERT_TRUE(world.add_account("Alice", "example.com").ok());
  const auto pw = world.get_password("Alice", "example.com");
  ASSERT_TRUE(pw.ok());

  ASSERT_TRUE(bed.run_until([&] { return bed.node(0).replication_lag() == 0; },
                            10'000'000));
  EXPECT_GT(bed.node(0).stats().records_shipped, 0u);
  EXPECT_GT(bed.node(1).stats().records_applied, 0u);
  EXPECT_EQ(bed.node(1).log_seq(), bed.node(0).log_seq());

  // The follower's database is byte-identical to the primary's: same
  // tables, same rows, same commit offset.
  EXPECT_EQ(bed.server(1).db().raw().encode_state(),
            bed.server(0).db().raw().encode_state());
  EXPECT_EQ(bed.server(1).db().raw().commit_offset(),
            bed.server(0).db().raw().commit_offset());

  // The login's trace tree shipped too: the follower can serve the
  // whole tree (span ends are imported; phone.confirm reported straight
  // into its registry by the testbed wiring).
  const auto spans =
      bed.server(1).metrics().tracer().trace(world.browser().last_trace_id());
  EXPECT_FALSE(spans.empty());
  bool saw_generate = false;
  for (const auto& s : spans) saw_generate |= s.name == "server.generate";
  EXPECT_TRUE(saw_generate);

  // Role surface for /healthz.
  EXPECT_EQ(bed.node(0).status().role, "primary");
  EXPECT_EQ(bed.node(1).status().role, "follower");
  EXPECT_EQ(bed.node(0).status().followers, 1u);
}

TEST(ClusterShipping, FollowerPastLogHorizonCatchesUpViaSnapshot) {
  DeploymentConfig config{.replicas = 2};
  config.cluster.log_cap = 8;  // force the horizon within one provision
  Deployment bed(config);
  bed.start();
  eval::Testbed& world = bed.world();

  // Partition the follower's replication endpoint, then generate far
  // more than log_cap records: the bounded log must trim past the
  // follower's position.
  world.net().set_online("amnesia-server-f1.repl", false);
  ASSERT_TRUE(world.provision("Alice", "correct horse").ok());
  ASSERT_TRUE(world.add_account("Alice", "example.com").ok());
  ASSERT_TRUE(world.add_account("Alice", "bank.example").ok());
  ASSERT_GT(bed.node(0).log_seq(), 8u);

  world.net().set_online("amnesia-server-f1.repl", true);
  ASSERT_TRUE(bed.run_until([&] { return bed.node(0).replication_lag() == 0; },
                            60'000'000));
  EXPECT_GE(bed.node(0).stats().snapshots_sent, 1u);
  EXPECT_GE(bed.node(1).stats().snapshots_installed, 1u);
  EXPECT_EQ(bed.node(1).log_seq(), bed.node(0).log_seq());
  EXPECT_EQ(bed.server(1).db().raw().encode_state(),
            bed.server(0).db().raw().encode_state());

  // And shipping keeps working incrementally after the snapshot.
  ASSERT_TRUE(world.add_account("Alice", "late.example").ok());
  ASSERT_TRUE(bed.run_until([&] { return bed.node(0).replication_lag() == 0; },
                            10'000'000));
  EXPECT_EQ(bed.server(1).db().raw().encode_state(),
            bed.server(0).db().raw().encode_state());
}

// ---------------------------------------------------------------------
// Hostile inbound replication traffic.

TEST(ClusterHostile, GarbageReplTrafficGetsGapNotCrash) {
  Deployment bed({.replicas = 2});
  bed.start();
  ASSERT_TRUE(bed.run_until([&] { return bed.node(0).replication_lag() == 0; },
                            5'000'000));
  const std::uint64_t applied = bed.node(1).log_seq();

  const Bytes heartbeat = cluster::encode_heartbeat(1, 5);
  const std::vector<Bytes> hostile = {
      {},                                                // empty
      to_bytes("not a message"),                         // junk
      {0x09, 0x00, 0x00},                                // unknown op
      Bytes(heartbeat.begin(), heartbeat.begin() + 3),   // truncated
  };
  for (const Bytes& body : hostile) {
    std::optional<ReplReply> reply;
    bed.node(1).handle_repl(
        body, [&](Bytes b) { reply = cluster::decode_reply(b); });
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->status, ReplStatus::kGap);
    EXPECT_EQ(reply->seq, applied);
  }
  // The follower is unharmed and still replicating.
  EXPECT_FALSE(bed.node(1).dead());
  EXPECT_EQ(bed.node(1).status().role, "follower");
}

TEST(ClusterHostile, AppendFromMismatchedBaseGetsGap) {
  Deployment bed({.replicas = 2});
  bed.start();
  ASSERT_TRUE(bed.run_until([&] { return bed.node(0).replication_lag() == 0; },
                            5'000'000));
  const std::uint64_t applied = bed.node(1).log_seq();

  // An append claiming to follow a position far past the follower's.
  std::optional<ReplReply> reply;
  bed.node(1).handle_repl(
      cluster::encode_append(bed.node(1).epoch(), applied + 100,
                             {{RecordKind::kStorage, to_bytes("x")}}),
      [&](Bytes b) { reply = cluster::decode_reply(b); });
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, ReplStatus::kGap);
  EXPECT_EQ(reply->seq, applied);
}

TEST(ClusterHostile, PartialBatchCountsTheRecordsItApplied) {
  // A batch stops at its first record that fails validation. The records
  // before it are applied, and both counts move by exactly those.
  Deployment bed({.replicas = 2});
  bed.start();
  ASSERT_TRUE(bed.run_until([&] { return bed.node(0).replication_lag() == 0; },
                            5'000'000));
  ClusterNode& follower = bed.node(1);
  const obs::Counter& counter =
      follower.server().metrics().counter("cluster.records_applied");
  const std::uint64_t applied = follower.log_seq();
  const std::uint64_t stats_before = follower.stats().records_applied;
  const std::uint64_t counter_before = counter.value();

  obs::TraceSpan open_span = sample_span();
  open_span.finished = false;
  std::optional<ReplReply> reply;
  follower.handle_repl(
      cluster::encode_append(
          follower.epoch(), applied,
          {{RecordKind::kSpanStart, cluster::encode_span(open_span)},
           {RecordKind::kStorage, to_bytes("not a journal record")}}),
      [&](Bytes b) { reply = cluster::decode_reply(b); });
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, ReplStatus::kGap);
  EXPECT_EQ(reply->seq, applied + 1);
  EXPECT_EQ(follower.stats().records_applied - stats_before, 1u);
  EXPECT_EQ(counter.value() - counter_before, 1u);
}

TEST(ClusterHostile, DeadNodeNeverResponds) {
  Deployment bed({.replicas = 2});
  bed.start();
  bed.node(1).crash();
  bool responded = false;
  bed.node(1).handle_repl(cluster::encode_heartbeat(1, 0),
                          [&](Bytes) { responded = true; });
  EXPECT_FALSE(responded);
  EXPECT_TRUE(bed.node(1).dead());
}

// ---------------------------------------------------------------------
// Epoch fencing: a primary that learns of a higher epoch steps down.

TEST(ClusterFencing, StalePrimaryStepsDownOnHigherEpochReply) {
  Deployment bed({.replicas = 2});
  bed.start();
  ASSERT_TRUE(bed.run_until([&] { return bed.node(0).replication_lag() == 0; },
                            5'000'000));
  ASSERT_EQ(bed.node(0).role(), ClusterNode::Role::kPrimary);

  // The follower hears from a (pretend) epoch-99 primary; the real
  // primary's next heartbeat then earns a kStaleEpoch reply and it must
  // fence itself rather than keep shipping.
  bed.node(1).handle_repl(cluster::encode_heartbeat(99, bed.node(1).log_seq()),
                          [](Bytes) {});
  EXPECT_EQ(bed.node(1).epoch(), 99u);

  ASSERT_TRUE(bed.run_until(
      [&] { return bed.node(0).role() == ClusterNode::Role::kFollower; },
      5'000'000));
  EXPECT_FALSE(bed.node(0).dead());
  EXPECT_GE(
      bed.server(0).metrics().counter("cluster.fenced").value(), 1u);
}

}  // namespace
}  // namespace amnesia
