// ReplicatedTcpTestbed: a façade over eval::Deployment
// (eval/deployment.h) for a primary/follower cluster on real TCP. It
// holds no wiring of its own and forwards exactly what
// perfbench/cpp/deployment.cpp calls. A benchmark change moves perfbench
// onto Deployment (ROADMAP item 4(ii)) and item 4(iii) deletes this
// header; new code uses Deployment directly.
#pragma once

#include <cstdint>

#include "eval/deployment.h"

namespace amnesia::eval {

struct ReplicatedTcpConfig {
  std::size_t replicas = 2;
  struct {
    TestbedConfig base{};
  } sim;
};

class ReplicatedTcpTestbed {
 public:
  explicit ReplicatedTcpTestbed(const ReplicatedTcpConfig& config)
      : d_({.replicas = config.replicas,
            .transport = Transport::kTcp,
            .base = config.sim.base}) {}

  /// perfbench reaches the replicas through world().replica(k).
  ReplicatedTcpTestbed& world() { return *this; }
  std::size_t replicas() const { return d_.replicas(); }
  server::AmnesiaServer& replica(std::size_t k) { return d_.server(k); }
  Testbed& bed() { return d_.world(); }
  cluster::ClusterNode& node(std::size_t k) { return d_.node(k); }
  void start() { d_.start(); }
  void stop() { d_.stop(); }
  std::uint16_t port(std::size_t k) const { return d_.port(k); }
  const crypto::X25519Key& public_key() const { return d_.public_key(); }
  net::EventLoop& loop() { return d_.pool().loop(0); }

 private:
  Deployment d_;
};

}  // namespace amnesia::eval
