// ShardedTcpTestbed: a façade over eval::Deployment (eval/deployment.h)
// for a sharded deployment on real TCP. It holds no wiring of its own and
// forwards exactly what perfbench/cpp/deployment.cpp calls. A benchmark
// change moves perfbench onto Deployment (ROADMAP item 4(ii)) and item
// 4(iii) deletes this header; new code uses Deployment directly.
#pragma once

#include <cstdint>
#include <string>

#include "eval/deployment.h"

namespace amnesia::eval {

struct ShardedTcpConfig {
  std::size_t shards = 1;
  std::uint64_t seed = 1;  // becomes the deployment's base.seed
  TestbedConfig base{};
};

class ShardedTcpTestbed {
 public:
  explicit ShardedTcpTestbed(const ShardedTcpConfig& config)
      : d_(deployment_config(config)) {}

  std::size_t shards() const { return d_.shards(); }
  Testbed& bed(std::size_t k) { return d_.world(k); }
  std::size_t owner_of(const std::string& user) const {
    return d_.owner_of(user);
  }
  void start() { d_.start(); }
  void stop() { d_.stop(); }
  std::uint16_t port() const { return d_.port(); }
  const crypto::X25519Key& public_key() const { return d_.public_key(); }
  net::ReactorPool& pool() { return d_.pool(); }

 private:
  static DeploymentConfig deployment_config(const ShardedTcpConfig& c) {
    DeploymentConfig d{.shards = c.shards,
                       .transport = Transport::kTcp,
                       .base = c.base};
    d.base.seed = c.seed;
    return d;
  }

  Deployment d_;
};

}  // namespace amnesia::eval
