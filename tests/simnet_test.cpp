// Discrete-event core, link sampling, network delivery/taps, and the Node
// RPC layer.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.h"
#include "simnet/link.h"
#include "simnet/network.h"
#include "simnet/node.h"
#include "simnet/sim.h"
#include "testutil.h"

namespace amnesia::simnet {
namespace {

// The capped driver from the shared harness; the Simulation unit tests
// above the network section keep calling run() directly because run()'s
// own semantics are what they test.
using testutil::RunSim;
using Recorder = testutil::RecordingEndpoint;

TEST(Simulation, EventsFireInTimeOrder) {
  Simulation sim(1);
  std::vector<int> order;
  sim.schedule_at(300, [&] { order.push_back(3); });
  sim.schedule_at(100, [&] { order.push_back(1); });
  sim.schedule_at(200, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(Simulation, EqualTimesFireInSchedulingOrder) {
  Simulation sim(1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, HandlersMayScheduleMoreEvents) {
  Simulation sim(1);
  int fired = 0;
  sim.schedule_at(10, [&] {
    ++fired;
    sim.schedule_after(5, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 15);
}

TEST(Simulation, PastTimesClampToNow) {
  Simulation sim(1);
  sim.schedule_at(100, [] {});
  sim.run();
  bool fired = false;
  sim.schedule_at(50, [&] { fired = true; });  // in the past
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim(1);
  std::vector<int> order;
  sim.schedule_at(100, [&] { order.push_back(1); });
  sim.schedule_at(200, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run_until(150), 1u);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), 150);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulation, RunCappedThrowsOnRunaway) {
  Simulation sim(1);
  std::function<void()> loop = [&] { sim.schedule_after(1, loop); };
  sim.schedule_after(1, loop);
  EXPECT_THROW(sim.run_capped(100), Error);
}

TEST(Simulation, ClockViewTracksVirtualTime) {
  Simulation sim(1);
  const Clock& clock = sim.clock();
  EXPECT_EQ(clock.now_us(), 0);
  sim.schedule_at(12345, [] {});
  sim.run();
  EXPECT_EQ(clock.now_us(), 12345);
}

TEST(Simulation, HeadHookFiresOnlyForANewEarliestEvent) {
  Simulation sim(1);
  std::vector<Micros> heads;
  sim.set_head_hook([&](Micros t) { heads.push_back(t); });
  sim.schedule_at(100, [] {});  // empty queue: the new head
  sim.schedule_at(200, [] {});  // behind the head
  sim.schedule_at(100, [] {});  // ties the head, fires after it
  EXPECT_EQ(heads, (std::vector<Micros>{100}));
  sim.schedule_at(50, [] {});  // the new head
  EXPECT_EQ(heads, (std::vector<Micros>{100, 50}));
  ASSERT_TRUE(sim.step());  // runs 50; 100 is the head again
  sim.schedule_at(150, [] {});
  EXPECT_EQ(heads, (std::vector<Micros>{100, 50}));
  sim.run();
  sim.schedule_after(10, [] {});  // drained queue: the new head
  EXPECT_EQ(heads, (std::vector<Micros>{100, 50, 210}));
}

TEST(Simulation, OneHeadHookAtATime) {
  Simulation sim(1);
  sim.set_head_hook([](Micros) {});
  EXPECT_THROW(sim.set_head_hook([](Micros) {}), Error);
  sim.set_head_hook(nullptr);
  EXPECT_NO_THROW(sim.set_head_hook([](Micros) {}));
}

TEST(Simulation, EventsAreMovedNotCopiedOutOfTheQueue) {
  // Counts copies of a captured payload: running an event must move it
  // out of the queue, captures and all.
  struct Payload {
    int* copies;
    explicit Payload(int* c) : copies(c) {}
    Payload(const Payload& other) : copies(other.copies) { ++*copies; }
    Payload(Payload&&) noexcept = default;
  };
  Simulation sim(1);
  int copies = 0;
  int ran = 0;
  for (int i = 0; i < 8; ++i) {
    sim.schedule_at(100 - i, [p = Payload(&copies), &ran] { ++ran; });
  }
  const int scheduled = copies;
  sim.run();
  EXPECT_EQ(ran, 8);
  EXPECT_EQ(copies, scheduled);
}

TEST(Simulation, DeterministicAcrossRunsWithSameSeed) {
  auto sample = [](std::uint64_t seed) {
    Simulation sim(seed);
    std::vector<std::uint64_t> vals;
    for (int i = 0; i < 10; ++i) vals.push_back(sim.rng().next_u64());
    return vals;
  };
  EXPECT_EQ(sample(42), sample(42));
  EXPECT_NE(sample(42), sample(43));
}

TEST(LinkProfile, DelayRespectsFloorAndBandwidth) {
  Simulation sim(2);
  LinkProfile link{.name = "t",
                   .base_latency_ms = 5.0,
                   .jitter_ms = 0.0,
                   .min_latency_ms = 1.0,
                   .bandwidth_mbps = 8.0};  // 1 ms per 1000 bytes
  const Micros d0 = link.sample_delay(sim.rng(), 0);
  const Micros d1000 = link.sample_delay(sim.rng(), 1000);
  EXPECT_EQ(d0, ms_to_us(5.0));
  EXPECT_EQ(d1000, ms_to_us(6.0));
}

TEST(LinkProfile, GaussianDelayStatistics) {
  Simulation sim(3);
  LinkProfile link{.name = "t",
                   .base_latency_ms = 100.0,
                   .jitter_ms = 10.0,
                   .min_latency_ms = 0.0,
                   .bandwidth_mbps = 0.0};
  const int n = 5000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    const double ms = us_to_ms(link.sample_delay(sim.rng(), 0));
    sum += ms;
    sum_sq += ms * ms;
  }
  const double mean = sum / n;
  const double stddev = std::sqrt(sum_sq / n - mean * mean);
  EXPECT_NEAR(mean, 100.0, 1.0);
  EXPECT_NEAR(stddev, 10.0, 0.5);
}

TEST(LinkProfile, LossProbabilityRoughlyHolds) {
  Simulation sim(4);
  LinkProfile link = profiles().lossy_wan;
  int lost = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) lost += link.sample_loss(sim.rng()) ? 1 : 0;
  EXPECT_NEAR(lost, n * link.loss_probability, 150);
}

TEST(NetworkTest, DeliversToAttachedEndpoint) {
  Simulation sim(5);
  Network net(sim);
  Recorder a, b;
  net.attach("a", &a);
  net.attach("b", &b);
  net.send("a", "b", to_bytes("hello"));
  RunSim(sim);
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].from, "a");
  EXPECT_EQ(to_string(b.received[0].payload), "hello");
  EXPECT_EQ(net.stats().delivered, 1u);
}

TEST(NetworkTest, DuplicateAttachThrows) {
  Simulation sim(5);
  Network net(sim);
  Recorder a;
  net.attach("a", &a);
  EXPECT_THROW(net.attach("a", &a), NetError);
}

TEST(NetworkTest, SendFromUnattachedThrows) {
  Simulation sim(5);
  Network net(sim);
  EXPECT_THROW(net.send("ghost", "b", {}), NetError);
}

TEST(NetworkTest, UnknownDestinationCountsAsDrop) {
  Simulation sim(5);
  Network net(sim);
  Recorder a;
  net.attach("a", &a);
  net.send("a", "nobody", to_bytes("x"));
  RunSim(sim);
  EXPECT_EQ(net.stats().dropped_no_destination, 1u);
}

TEST(NetworkTest, OfflineNodeDropsButStaysAttached) {
  Simulation sim(5);
  Network net(sim);
  Recorder a, b;
  net.attach("a", &a);
  net.attach("b", &b);
  net.set_online("b", false);
  net.send("a", "b", to_bytes("x"));
  RunSim(sim);
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.stats().dropped_offline, 1u);

  net.set_online("b", true);
  net.send("a", "b", to_bytes("y"));
  RunSim(sim);
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(NetworkTest, PerPathLinkControlsDelay) {
  Simulation sim(6);
  Network net(sim);
  Recorder a, b;
  net.attach("a", &a);
  net.attach("b", &b);
  net.set_link("a", "b",
               LinkProfile{.name = "slow",
                           .base_latency_ms = 500.0,
                           .jitter_ms = 0.0,
                           .min_latency_ms = 0.0,
                           .bandwidth_mbps = 0.0});
  Micros delivered_at = -1;
  net.send("a", "b", to_bytes("x"));
  RunSim(sim);
  delivered_at = sim.now();
  EXPECT_EQ(delivered_at, ms_to_us(500.0));
}

TEST(NetworkTest, TapObservesAndCanDrop) {
  Simulation sim(7);
  Network net(sim);
  Recorder a, b;
  net.attach("a", &a);
  net.attach("b", &b);
  std::vector<Bytes> observed;
  net.add_tap("a", "b", [&](Micros, Message& msg) {
    observed.push_back(msg.payload);
    return TapAction::kPass;
  });
  const std::size_t dropper = net.add_tap("", "", [&](Micros, Message& msg) {
    return to_string(msg.payload) == "drop-me" ? TapAction::kDrop
                                               : TapAction::kPass;
  });

  net.send("a", "b", to_bytes("keep"));
  net.send("a", "b", to_bytes("drop-me"));
  RunSim(sim);
  EXPECT_EQ(observed.size(), 2u);
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(net.stats().dropped_by_tap, 1u);

  net.remove_tap(dropper);
  net.send("a", "b", to_bytes("drop-me"));
  RunSim(sim);
  EXPECT_EQ(b.received.size(), 2u);
}

TEST(NetworkTest, TapCanMutatePayload) {
  Simulation sim(8);
  Network net(sim);
  Recorder a, b;
  net.attach("a", &a);
  net.attach("b", &b);
  net.add_tap("a", "b", [&](Micros, Message& msg) {
    msg.payload[0] ^= 0xff;  // active man-in-the-middle corruption
    return TapAction::kPass;
  });
  net.send("a", "b", Bytes{0x00, 0x11});
  RunSim(sim);
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].payload, (Bytes{0xff, 0x11}));
}

TEST(NodeTest, RpcRoundTrip) {
  Simulation sim(9);
  Network net(sim);
  Node client(net, "client");
  Node server(net, "server");
  server.set_rpc_handler([](const NodeId& from, const Bytes& body,
                            std::function<void(Bytes)> respond) {
    EXPECT_EQ(from, "client");
    Bytes reply = to_bytes("echo:");
    append(reply, body);
    respond(std::move(reply));
  });

  std::string got;
  client.request("server", to_bytes("ping"), [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok());
    got = to_string(r.value());
  });
  RunSim(sim);
  EXPECT_EQ(got, "echo:ping");
}

TEST(NodeTest, AsynchronousResponse) {
  Simulation sim(10);
  Network net(sim);
  Node client(net, "client");
  Node server(net, "server");
  // The server defers its answer by 100 ms of virtual time — the same
  // shape as Amnesia waiting for the phone's token before responding.
  server.set_rpc_handler([&](const NodeId&, const Bytes&,
                             std::function<void(Bytes)> respond) {
    sim.schedule_after(ms_to_us(100), [respond = std::move(respond)] {
      respond(to_bytes("late"));
    });
  });

  bool answered = false;
  client.request("server", to_bytes("q"), [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(to_string(r.value()), "late");
    answered = true;
  });
  RunSim(sim);
  EXPECT_TRUE(answered);
  EXPECT_GE(sim.now(), ms_to_us(100));
}

TEST(NodeTest, TimeoutWhenServerSilent) {
  Simulation sim(11);
  Network net(sim);
  Node client(net, "client");
  Node server(net, "server");  // no handler set -> never responds

  bool failed = false;
  client.request(
      "server", to_bytes("q"),
      [&](Result<Bytes> r) {
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.code(), Err::kUnavailable);
        failed = true;
      },
      ms_to_us(1000));
  RunSim(sim);
  EXPECT_TRUE(failed);
}

TEST(NodeTest, TimeoutWhenDestinationMissing) {
  Simulation sim(12);
  Network net(sim);
  Node client(net, "client");
  bool failed = false;
  client.request(
      "ghost", to_bytes("q"),
      [&](Result<Bytes> r) { failed = !r.ok(); }, ms_to_us(500));
  RunSim(sim);
  EXPECT_TRUE(failed);
}

TEST(NodeTest, LateResponseAfterTimeoutIsIgnored) {
  Simulation sim(13);
  Network net(sim);
  Node client(net, "client");
  Node server(net, "server");
  server.set_rpc_handler([&](const NodeId&, const Bytes&,
                             std::function<void(Bytes)> respond) {
    sim.schedule_after(ms_to_us(2000), [respond = std::move(respond)] {
      respond(to_bytes("too late"));
    });
  });
  int callbacks = 0;
  client.request(
      "server", to_bytes("q"),
      [&](Result<Bytes> r) {
        ++callbacks;
        EXPECT_FALSE(r.ok());
      },
      ms_to_us(100));
  RunSim(sim);
  EXPECT_EQ(callbacks, 1);
}

TEST(NodeTest, OnewayDelivery) {
  Simulation sim(14);
  Network net(sim);
  Node sender(net, "gcm");
  Node phone(net, "phone");
  std::string got;
  phone.set_oneway_handler([&](const NodeId& from, const Bytes& body) {
    EXPECT_EQ(from, "gcm");
    got = to_string(body);
  });
  sender.send_oneway("phone", to_bytes("push!"));
  RunSim(sim);
  EXPECT_EQ(got, "push!");
}

TEST(NodeTest, ConcurrentRequestsCorrelateCorrectly) {
  Simulation sim(15);
  Network net(sim);
  Node client(net, "client");
  Node server(net, "server");
  server.set_rpc_handler([&](const NodeId&, const Bytes& body,
                             std::function<void(Bytes)> respond) {
    // Reverse-order completion: later requests answer first.
    const Micros delay = body[0] == 'a' ? ms_to_us(300) : ms_to_us(50);
    Bytes reply = body;
    sim.schedule_after(delay,
                       [respond = std::move(respond), reply]() mutable {
                         respond(std::move(reply));
                       });
  });
  std::string got_a, got_b;
  client.request("server", to_bytes("a"), [&](Result<Bytes> r) {
    got_a = to_string(r.value());
  });
  client.request("server", to_bytes("b"), [&](Result<Bytes> r) {
    got_b = to_string(r.value());
  });
  RunSim(sim);
  EXPECT_EQ(got_a, "a");
  EXPECT_EQ(got_b, "b");
}

TEST(NodeTest, DetachOnDestruction) {
  Simulation sim(16);
  Network net(sim);
  {
    Node temp(net, "temp");
    EXPECT_TRUE(net.attached("temp"));
  }
  EXPECT_FALSE(net.attached("temp"));
}

}  // namespace
}  // namespace amnesia::simnet
