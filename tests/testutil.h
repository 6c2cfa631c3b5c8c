// Shared test harness for the gtest suites.
//
// Collects the helpers that used to be copy-pasted across test files:
// hex/bytes conversions, a capped "run the simulation to quiescence"
// driver, a virtual-time latency range matcher, the recording network
// endpoint from the simnet tests, the operator's HTTP client, and the
// trace-tree checks.
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "eval/testbed.h"
#include "obs/trace.h"
#include "securechan/channel.h"
#include "simnet/network.h"
#include "simnet/node.h"
#include "simnet/sim.h"
#include "websvc/client.h"
#include "websvc/http.h"

namespace amnesia::testutil {

inline std::string hex(ByteView data) { return hex_encode(data); }
inline Bytes bytes(std::string_view hex_str) { return hex_decode(hex_str); }

/// Drives `sim` to quiescence. The cap turns an accidental event loop
/// (e.g. a callback that reschedules itself forever) into a thrown Error
/// instead of a hung test binary.
inline std::size_t RunSim(simnet::Simulation& sim,
                          std::size_t max_events = 10'000'000) {
  return sim.run_capped(max_events);
}

/// Asserts that a virtual-time duration lies in [lo, hi] (microseconds).
inline ::testing::AssertionResult LatencyBetween(Micros observed_us,
                                                 Micros lo_us, Micros hi_us) {
  if (observed_us >= lo_us && observed_us <= hi_us) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "latency " << observed_us << " us outside [" << lo_us << ", "
         << hi_us << "] us";
}

/// Millisecond overload for samples already converted with us_to_ms.
inline ::testing::AssertionResult LatencyBetweenMs(double observed_ms,
                                                   double lo_ms,
                                                   double hi_ms) {
  if (observed_ms >= lo_ms && observed_ms <= hi_ms) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "latency " << observed_ms << " ms outside [" << lo_ms << ", "
         << hi_ms << "] ms";
}

/// Endpoint that records every delivered message, in arrival order.
class RecordingEndpoint : public simnet::Endpoint {
 public:
  void on_message(const simnet::Message& msg) override {
    received.push_back(msg);
  }
  std::vector<simnet::Message> received;
};

/// A raw secure-channel HTTP client on its own simnet node, dialing one
/// server node: operator tooling's view of a simulated deployment.
struct OpsClient {
  simnet::Node node;
  securechan::SecureClient chan;
  websvc::HttpClient http;

  OpsClient(eval::Testbed& bed, RandomSource& rng,
            const std::string& name = "ops-client",
            const std::string& target = "amnesia-server")
      : node(bed.net(), name),
        chan(node, target, bed.server().public_key(), rng),
        http([this](Bytes wire, std::function<void(Result<Bytes>)> cb) {
          chan.request(std::move(wire), std::move(cb));
        }) {}

  /// One request; the response, or status 0 (and a test failure) when
  /// the round fails.
  websvc::Response send(simnet::Simulation& sim, websvc::Method method,
                        const std::string& path) {
    websvc::Request req;
    req.method = method;
    req.path = path;
    eval::Waiter<Result<websvc::Response>> waiter(sim);
    http.send(std::move(req), waiter.capture());
    const auto r = waiter.wait();
    EXPECT_TRUE(r.ok()) << path;
    return r.ok() ? r.value() : websvc::Response{0, {}, {}};
  }
  websvc::Response get(simnet::Simulation& sim, const std::string& path) {
    return send(sim, websvc::Method::kGet, path);
  }
};

/// One root (named `root_name`, when given), and every other span's
/// parent present in the same set. Unfinished spans count: after a
/// failover the root can be an imported stub whose end died with the
/// primary.
inline ::testing::AssertionResult ConnectedSingleRoot(
    const std::vector<obs::TraceSpan>& spans,
    const std::string& root_name = "") {
  if (spans.empty()) return ::testing::AssertionFailure() << "no spans";
  std::map<obs::SpanId, const obs::TraceSpan*> ids;
  for (const auto& s : spans) ids.emplace(s.id, &s);
  std::size_t roots = 0;
  for (const auto& s : spans) {
    if (s.parent == 0) {
      ++roots;
      if (!root_name.empty() && s.name != root_name) {
        return ::testing::AssertionFailure()
               << "root is " << s.name << ", expected " << root_name;
      }
    } else if (!ids.contains(s.parent)) {
      return ::testing::AssertionFailure()
             << s.name << " (" << s.component << ") has parent " << s.parent
             << " outside the trace";
    }
  }
  if (roots != 1) {
    return ::testing::AssertionFailure() << roots << " roots, expected 1";
  }
  return ::testing::AssertionSuccess();
}

inline const obs::TraceSpan* FindSpan(const std::vector<obs::TraceSpan>& spans,
                                      const std::string& name) {
  for (const auto& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace amnesia::testutil
