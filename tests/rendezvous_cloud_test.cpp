// Rendezvous push service (GCM substitute) and cloud blob store
// (Drive/Dropbox substitute).
#include <gtest/gtest.h>

#include "cloud/blob_store.h"
#include "crypto/drbg.h"
#include "obs/metrics.h"
#include "rendezvous/push_service.h"
#include "simnet/network.h"
#include "simnet/node.h"
#include "simnet/sim.h"

namespace amnesia {
namespace {

using rendezvous::PushClient;
using rendezvous::PushService;

struct PushWorld {
  simnet::Simulation sim{123};
  simnet::Network net{sim};
  crypto::ChaChaDrbg rng{55};
  obs::MetricsRegistry metrics;  // PushService::stats() reads it
  PushService service{net, "gcm", rng};
  simnet::Node server_node{net, "amnesia-server"};
  simnet::Node phone_node{net, "phone"};
  PushClient server_client{server_node, "gcm"};
  PushClient phone_client{phone_node, "gcm"};
  std::vector<std::string> phone_inbox;

  PushWorld() {
    service.set_metrics(&metrics);
    phone_node.set_oneway_handler(
        [this](const simnet::NodeId&, const Bytes& body) {
          phone_inbox.push_back(to_string(body));
        });
  }

  std::string register_phone() {
    std::string reg_id;
    phone_client.register_device([&](Result<std::string> r) {
      ASSERT_TRUE(r.ok());
      reg_id = r.value();
    });
    sim.run();
    return reg_id;
  }
};

TEST(PushServiceTest, RegisterAndPushDelivers) {
  PushWorld w;
  const std::string reg_id = w.register_phone();
  EXPECT_TRUE(reg_id.starts_with("gcm-"));

  bool pushed = false;
  w.server_client.push(reg_id, to_bytes("request-R"), ms_to_us(60000),
                       [&](Status s) {
                         EXPECT_TRUE(s.ok());
                         pushed = true;
                       });
  w.sim.run();
  EXPECT_TRUE(pushed);
  ASSERT_EQ(w.phone_inbox.size(), 1u);
  EXPECT_EQ(w.phone_inbox[0], "request-R");
  EXPECT_EQ(w.service.stats().pushes_delivered, 1u);
}

TEST(PushServiceTest, RegistrationIdsAreUnique) {
  PushWorld w;
  const std::string a = w.register_phone();
  const std::string b = w.register_phone();
  EXPECT_NE(a, b);
}

TEST(PushServiceTest, PushToUnknownIdFails) {
  PushWorld w;
  bool failed = false;
  w.server_client.push("gcm-bogus", to_bytes("x"), ms_to_us(1000),
                       [&](Status s) {
                         failed = !s.ok() && s.code() == Err::kNotFound;
                       });
  w.sim.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(w.service.stats().unknown_registration, 1u);
}

TEST(PushServiceTest, OfflineDeviceQueuesUntilConnect) {
  PushWorld w;
  const std::string reg_id = w.register_phone();
  w.net.set_online("phone", false);

  w.server_client.push(reg_id, to_bytes("queued-R"), ms_to_us(60000),
                       [](Status s) { EXPECT_TRUE(s.ok()); });
  w.sim.run();
  EXPECT_TRUE(w.phone_inbox.empty());
  EXPECT_EQ(w.service.stats().pushes_queued, 1u);

  w.net.set_online("phone", true);
  w.phone_client.connect(reg_id, [](Status s) { EXPECT_TRUE(s.ok()); });
  w.sim.run();
  ASSERT_EQ(w.phone_inbox.size(), 1u);
  EXPECT_EQ(w.phone_inbox[0], "queued-R");
}

TEST(PushServiceTest, QueuedPushExpiresAfterTtl) {
  PushWorld w;
  const std::string reg_id = w.register_phone();
  w.net.set_online("phone", false);
  w.server_client.push(reg_id, to_bytes("stale"), ms_to_us(100),
                       [](Status) {});
  w.sim.run();

  // Let virtual time pass beyond the TTL, then reconnect.
  w.sim.schedule_after(ms_to_us(500), [] {});
  w.sim.run();
  w.net.set_online("phone", true);
  w.phone_client.connect(reg_id, [](Status) {});
  w.sim.run();
  EXPECT_TRUE(w.phone_inbox.empty());
  EXPECT_EQ(w.service.stats().pushes_expired, 1u);
}

TEST(PushServiceTest, UnregisterStopsDelivery) {
  PushWorld w;
  const std::string reg_id = w.register_phone();
  w.phone_client.unregister(reg_id, [](Status s) { EXPECT_TRUE(s.ok()); });
  w.sim.run();
  bool failed = false;
  w.server_client.push(reg_id, to_bytes("x"), ms_to_us(1000), [&](Status s) {
    failed = !s.ok();
  });
  w.sim.run();
  EXPECT_TRUE(failed);
}

TEST(PushServiceTest, ConnectFollowsDeviceToNewNode) {
  // Reinstall scenario: the same registration record is reclaimed from a
  // different node after connect() (the paper re-registers instead, but
  // GCM's behaviour of following the connecting device is reproduced).
  PushWorld w;
  const std::string reg_id = w.register_phone();
  simnet::Node new_phone(w.net, "phone-2");
  std::vector<std::string> new_inbox;
  new_phone.set_oneway_handler([&](const simnet::NodeId&, const Bytes& body) {
    new_inbox.push_back(to_string(body));
  });
  PushClient new_client(new_phone, "gcm");
  new_client.connect(reg_id, [](Status s) { EXPECT_TRUE(s.ok()); });
  w.sim.run();
  w.server_client.push(reg_id, to_bytes("to-new"), ms_to_us(1000),
                       [](Status) {});
  w.sim.run();
  EXPECT_TRUE(w.phone_inbox.empty());
  ASSERT_EQ(new_inbox.size(), 1u);
  EXPECT_EQ(new_inbox[0], "to-new");
}

/// Zero-delay, zero-loss profile: every message is delivered at the
/// sending timestamp, which lets tests place a request at an exact
/// virtual time (e.g. precisely the TTL expiry instant).
simnet::LinkProfile instant_link() {
  simnet::LinkProfile p;
  p.name = "instant";
  p.base_latency_ms = 0.0;
  p.jitter_ms = 0.0;
  p.min_latency_ms = 0.0;
  p.bandwidth_mbps = 1e9;
  return p;
}

struct InstantPushWorld : PushWorld {
  InstantPushWorld() {
    net.set_duplex_link("amnesia-server", "gcm", instant_link(),
                        instant_link());
    net.set_duplex_link("phone", "gcm", instant_link(), instant_link());
    net.set_link("gcm", "phone", instant_link());
  }
};

TEST(PushServiceTest, ReconnectExactlyAtTtlBoundaryFindsNothing) {
  // Queue-entry expiry is expires_at <= now: an entry queued at t with
  // TTL d is already gone for a connect processed at exactly t + d.
  // run_until (not run) keeps virtual time pinned — plain run() would
  // drain the RPCs' 10s no-op timeout events and overshoot the boundary.
  InstantPushWorld w;
  const std::string reg_id = w.register_phone();
  w.net.set_online("phone", false);
  const Micros t_push = w.sim.now();
  w.server_client.push(reg_id, to_bytes("boundary"), ms_to_us(100),
                       [](Status s) { EXPECT_TRUE(s.ok()); });
  w.sim.run_until(t_push + 1);  // instant links: queued_at == t_push

  const Micros boundary = t_push + ms_to_us(100);
  w.sim.schedule_after(boundary - w.sim.now(), [&] {
    w.net.set_online("phone", true);
    w.phone_client.connect(reg_id, [](Status s) { EXPECT_TRUE(s.ok()); });
  });
  w.sim.run_until(boundary + 1);
  EXPECT_TRUE(w.phone_inbox.empty());
  EXPECT_EQ(w.service.stats().pushes_expired, 1u);
}

TEST(PushServiceTest, ReconnectJustInsideTtlDelivers) {
  InstantPushWorld w;
  const std::string reg_id = w.register_phone();
  w.net.set_online("phone", false);
  const Micros t_push = w.sim.now();
  w.server_client.push(reg_id, to_bytes("fresh"), ms_to_us(100),
                       [](Status s) { EXPECT_TRUE(s.ok()); });
  w.sim.run_until(t_push + 1);

  // One microsecond before expires_at: still deliverable.
  const Micros just_inside = t_push + ms_to_us(100) - 1;
  w.sim.schedule_after(just_inside - w.sim.now(), [&] {
    w.net.set_online("phone", true);
    w.phone_client.connect(reg_id, [](Status s) { EXPECT_TRUE(s.ok()); });
  });
  w.sim.run_until(just_inside + 1);
  ASSERT_EQ(w.phone_inbox.size(), 1u);
  EXPECT_EQ(w.phone_inbox[0], "fresh");
  EXPECT_EQ(w.service.stats().pushes_expired, 0u);
}

TEST(PushServiceTest, QueuedPushesFlushInFifoOrderOnConnect) {
  InstantPushWorld w;
  const std::string reg_id = w.register_phone();
  w.net.set_online("phone", false);
  for (const char* p : {"first", "second", "third"}) {
    w.server_client.push(reg_id, to_bytes(p), ms_to_us(60000),
                         [](Status s) { EXPECT_TRUE(s.ok()); });
    w.sim.run();
  }
  EXPECT_EQ(w.service.stats().pushes_queued, 3u);

  w.net.set_online("phone", true);
  w.phone_client.connect(reg_id, [](Status s) { EXPECT_TRUE(s.ok()); });
  w.sim.run();
  ASSERT_EQ(w.phone_inbox.size(), 3u);
  EXPECT_EQ(w.phone_inbox[0], "first");
  EXPECT_EQ(w.phone_inbox[1], "second");
  EXPECT_EQ(w.phone_inbox[2], "third");
}

TEST(PushServiceTest, MixedTtlsExpireIndividuallyAndFlushInOrder) {
  // Entries with different TTLs: the middle one expires while queued;
  // the survivors still flush in their original order.
  InstantPushWorld w;
  const std::string reg_id = w.register_phone();
  w.net.set_online("phone", false);
  const Micros t_push = w.sim.now();
  w.server_client.push(reg_id, to_bytes("keep-a"), ms_to_us(500),
                       [](Status) {});
  w.server_client.push(reg_id, to_bytes("drop"), ms_to_us(50), [](Status) {});
  w.server_client.push(reg_id, to_bytes("keep-b"), ms_to_us(500),
                       [](Status) {});
  w.sim.run_until(t_push + 1);

  const Micros reconnect_at = t_push + ms_to_us(100);
  w.sim.schedule_after(reconnect_at - w.sim.now(), [&] {
    w.net.set_online("phone", true);
    w.phone_client.connect(reg_id, [](Status s) { EXPECT_TRUE(s.ok()); });
  });
  w.sim.run_until(reconnect_at + 1);
  ASSERT_EQ(w.phone_inbox.size(), 2u);
  EXPECT_EQ(w.phone_inbox[0], "keep-a");
  EXPECT_EQ(w.phone_inbox[1], "keep-b");
  EXPECT_EQ(w.service.stats().pushes_expired, 1u);
}

TEST(PushServiceTest, OverflowingQueueDropsOldestFirst) {
  InstantPushWorld w;
  w.service.set_max_queue_per_device(2);
  const std::string reg_id = w.register_phone();
  w.net.set_online("phone", false);
  for (const char* p : {"oldest", "middle", "newest"}) {
    w.server_client.push(reg_id, to_bytes(p), ms_to_us(60000),
                         [](Status s) { EXPECT_TRUE(s.ok()); });
    w.sim.run();
  }
  EXPECT_EQ(w.service.stats().pushes_dropped_overflow, 1u);

  w.net.set_online("phone", true);
  w.phone_client.connect(reg_id, [](Status s) { EXPECT_TRUE(s.ok()); });
  w.sim.run();
  ASSERT_EQ(w.phone_inbox.size(), 2u);
  EXPECT_EQ(w.phone_inbox[0], "middle");
  EXPECT_EQ(w.phone_inbox[1], "newest");
}

TEST(PushServiceTest, EavesdropperSeesPushPayload) {
  // Paper section IV-B: the rendezvous path is observable; R's sigma
  // component is what makes that acceptable. Here we only assert the
  // observability that the attack model depends on.
  PushWorld w;
  const std::string reg_id = w.register_phone();
  std::vector<Bytes> observed;
  w.net.add_tap("gcm", "phone", [&](Micros, simnet::Message& msg) {
    observed.push_back(msg.payload);
    return simnet::TapAction::kPass;
  });
  w.server_client.push(reg_id, to_bytes("R-value"), ms_to_us(1000),
                       [](Status) {});
  w.sim.run();
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_NE(to_string(observed[0]).find("R-value"), std::string::npos);
}

struct CloudWorld {
  simnet::Simulation sim{321};
  simnet::Network net{sim};
  cloud::BlobStoreService service{net, "cloud"};
  simnet::Node phone_node{net, "phone"};
};

TEST(BlobStoreTest, SignupPutGetRoundTrip) {
  CloudWorld w;
  cloud::BlobClient client(w.phone_node, "cloud", "alice@example.com",
                           "cloud-secret");
  client.signup([](Status s) { EXPECT_TRUE(s.ok()); });
  client.put("kp-backup", Bytes{1, 2, 3}, [](Status s) {
    EXPECT_TRUE(s.ok());
  });
  Bytes got;
  client.get("kp-backup", [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok());
    got = r.value();
  });
  w.sim.run();
  EXPECT_EQ(got, (Bytes{1, 2, 3}));
  EXPECT_EQ(w.service.stats().puts, 1u);
  EXPECT_EQ(w.service.stats().gets, 1u);
}

TEST(BlobStoreTest, DuplicateSignupRejected) {
  CloudWorld w;
  cloud::BlobClient client(w.phone_node, "cloud", "alice", "s1");
  client.signup([](Status s) { EXPECT_TRUE(s.ok()); });
  w.sim.run();
  cloud::BlobClient again(w.phone_node, "cloud", "alice", "s2");
  bool rejected = false;
  again.signup([&](Status s) {
    rejected = !s.ok() && s.code() == Err::kAlreadyExists;
  });
  w.sim.run();
  EXPECT_TRUE(rejected);
}

TEST(BlobStoreTest, WrongCredentialRejected) {
  CloudWorld w;
  w.service.create_account("alice", "right");
  cloud::BlobClient wrong(w.phone_node, "cloud", "alice", "wrong");
  bool auth_failed = false;
  wrong.put("x", Bytes{1}, [&](Status s) {
    auth_failed = !s.ok() && s.code() == Err::kAuthFailed;
  });
  w.sim.run();
  EXPECT_TRUE(auth_failed);
  EXPECT_EQ(w.service.stats().auth_failures, 1u);
}

TEST(BlobStoreTest, MissingBlobReported) {
  CloudWorld w;
  w.service.create_account("alice", "s");
  cloud::BlobClient client(w.phone_node, "cloud", "alice", "s");
  bool missing = false;
  client.get("nothing", [&](Result<Bytes> r) {
    missing = !r.ok() && r.code() == Err::kNotFound;
  });
  w.sim.run();
  EXPECT_TRUE(missing);
}

TEST(BlobStoreTest, PutOverwritesAndDeleteRemoves) {
  CloudWorld w;
  w.service.create_account("alice", "s");
  cloud::BlobClient client(w.phone_node, "cloud", "alice", "s");
  client.put("b", Bytes{1}, [](Status) {});
  client.put("b", Bytes{2}, [](Status) {});
  Bytes got;
  client.get("b", [&](Result<Bytes> r) { got = r.value(); });
  w.sim.run();
  EXPECT_EQ(got, Bytes{2});

  client.remove("b", [](Status s) { EXPECT_TRUE(s.ok()); });
  w.sim.run();
  bool missing = false;
  client.get("b", [&](Result<Bytes> r) { missing = !r.ok(); });
  w.sim.run();
  EXPECT_TRUE(missing);
}

}  // namespace
}  // namespace amnesia
