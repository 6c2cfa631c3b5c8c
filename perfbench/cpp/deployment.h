// The system under test: one of the repo's real-socket testbeds, built,
// provisioned and started through public APIs only.
//
// Construction provisions every user on its owner server before any
// reactor runs (signup, login, phone pairing, one account per site) and
// runs every (user, site) password through that bed's simulated browser.
// Those passwords are the ground-truth oracle each measured round is
// checked against.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/keys.h"
#include "core/notation.h"
#include "crypto/password_hash.h"
#include "crypto/x25519.h"
#include "eval/replicated_testbed.h"
#include "eval/sharded_testbed.h"
#include "obs/metrics.h"
#include "server/db.h"
#include "storage/table.h"

namespace perfbench {

namespace core = amnesia::core;
namespace crypto = amnesia::crypto;
namespace eval = amnesia::eval;
namespace net = amnesia::net;
namespace obs = amnesia::obs;
namespace server = amnesia::server;
namespace storage = amnesia::storage;

enum class Topology { kSharded, kReplicated };

struct DeploymentSpec {
  Topology topology = Topology::kSharded;
  std::size_t servers = 2;  // shards, or replicas (one primary)
  std::size_t users = 64;
  std::size_t sites = 16;
  /// Adds one extra account per user that writes may rotate; rounds never
  /// ask for it, so rotation cannot invalidate the oracle.
  bool rotating_account = false;
  std::uint64_t seed = 1;
};

inline constexpr const char* kMasterPassword = "perfbench master password";
inline constexpr const char* kRotatingDomain = "rotating.example";
std::string user_name(std::size_t i);
std::string site_domain(std::size_t j);

/// Inputs captured from the provisioned deployment so each layer replay
/// costs the workload's real sizes and records.
struct ReplayInputs {
  crypto::PasswordRecord mp_record{};
  std::optional<server::AccountRecord> account;
  std::optional<core::OnlineId> oid;
  std::optional<core::PhoneSecrets> phone;
  storage::Schema account_schema;
  storage::Row account_row;
};

/// Replication-barrier waits, measured by wrapping the primary's
/// AmnesiaServer::set_replication_barrier around ClusterNode::barrier.
/// Written on the reactor thread, read by the generator.
class BarrierProbe {
 public:
  void record(double wait_us, std::uint64_t lag);
  /// Returns the waits since the last take() and the highest sampled lag.
  std::vector<double> take(std::uint64_t* lag_max);

 private:
  std::mutex mu_;
  std::vector<double> waits_us_;
  std::uint64_t lag_max_ = 0;
};

class Deployment {
 public:
  explicit Deployment(const DeploymentSpec& spec);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Binds the listeners and launches the reactors with tracing off and
  /// the profiler stopped.
  void start();
  /// For a cluster, waits until the followers hold everything journaled
  /// so far (call once client traffic has started the reactor's clock).
  void await_followers();
  void stop();

  const DeploymentSpec& spec() const { return spec_; }
  /// The port every client dials (the shared port, or the primary's).
  std::uint16_t port() const;
  const crypto::X25519Key& public_key() const;

  /// The oracle: the password the simulated browser got before start().
  const std::string& expected(std::size_t user, std::size_t site) const {
    return expected_[user * spec_.sites + site];
  }
  /// Self-test hook: replaces one oracle entry so a correct round fails.
  void corrupt_expected(std::size_t user, std::size_t site);

  /// Every server registry (one per shard or replica).
  std::vector<obs::MetricsRegistry*> registries();
  /// The bench-owned registry crypto::set_crypto_metrics reports into.
  obs::MetricsRegistry& crypto_registry() { return crypto_registry_; }
  /// Open client connections per shard (per replica for a cluster).
  std::vector<std::int64_t> open_connections();
  /// Profiler thread names of the server's reactors.
  std::vector<std::string> reactor_threads() const;
  /// CLOCK_THREAD_CPUTIME_ID of each reactor, read inside a task posted
  /// to that reactor.
  std::vector<double> reactor_cpu_us();
  /// Head-based trace sampling on every server registry: 1 or 0.
  void set_tracing(bool on);

  BarrierProbe& barrier_probe() { return barrier_; }
  const ReplayInputs& replay_inputs() const { return replay_; }

 private:
  void provision_bed(eval::Testbed& bed, const std::vector<std::size_t>& users);
  void capture_replay_inputs(eval::Testbed& bed, std::size_t user);
  std::vector<net::EventLoop*> reactor_loops();

  DeploymentSpec spec_;
  obs::MetricsRegistry crypto_registry_;
  std::unique_ptr<eval::ShardedTcpTestbed> sharded_;
  std::unique_ptr<eval::ReplicatedTcpTestbed> replicated_;
  std::vector<std::string> expected_;
  ReplayInputs replay_;
  BarrierProbe barrier_;
};

}  // namespace perfbench
