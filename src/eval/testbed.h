// Full-system testbed: every component of Fig. 1 wired over the simulated
// network with calibrated link profiles.
//
// Topology (node names in quotes):
//   "browser"  --wan-->  "amnesia-server"  --dc_lan-->  "gcm"
//   "gcm"      --wifi/lte downlink-->  "phone"
//   "phone"    --wifi/lte uplink  -->  "amnesia-server" / "gcm" / "cloud"
//   "cloud"    --downlink-->  "phone"
//
// The synchronous helpers run the event loop until the pending callback
// fires, which keeps integration tests, examples, and benchmark harnesses
// readable; everything underneath is the real asynchronous protocol code.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "client/browser.h"
#include "cloud/blob_store.h"
#include "common/error.h"
#include "crypto/drbg.h"
#include "phone/app.h"
#include "rendezvous/push_service.h"
#include "server/server_app.h"
#include "simnet/link.h"
#include "simnet/network.h"
#include "simnet/sim.h"

namespace amnesia::eval {

enum class PhoneLink { kWifi, kLte };

struct TestbedConfig {
  std::uint64_t seed = 1;
  PhoneLink phone_link = PhoneLink::kWifi;
  server::AmnesiaServerConfig server{};
  phone::PhoneAppConfig phone{};  // node ids/keys are filled in by Testbed
  bool auto_provision_cloud_account = true;
};

/// Steps `sim` until the callback from capture() has fired; guards
/// against a lost callback with an event cap. Pending unrelated timers
/// (e.g. the 30 s phone-wait guard of an already-answered request) stay
/// queued and fire later as no-ops, as they would in a live system.
template <typename T>
class Waiter {
 public:
  explicit Waiter(simnet::Simulation& sim) : sim_(sim) {}

  std::function<void(T)> capture() {
    return [this](T value) {
      result_ = std::make_unique<T>(std::move(value));
    };
  }

  T wait() {
    std::size_t steps = 0;
    while (!result_ && sim_.step()) {
      if (++steps > 10'000'000) {
        throw ProtocolError("Testbed: event budget exceeded");
      }
    }
    if (!result_) {
      throw ProtocolError("Testbed: operation never completed");
    }
    return std::move(*result_);
  }

 private:
  simnet::Simulation& sim_;
  std::unique_ptr<T> result_;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config = {});

  simnet::Simulation& sim() { return *sim_; }
  simnet::Network& net() { return *net_; }
  server::AmnesiaServer& server() { return *server_; }
  phone::PhoneApp& phone() { return *phone_; }
  client::Browser& browser() { return *browser_; }
  rendezvous::PushService& gcm() { return *gcm_; }
  cloud::BlobStoreService& cloud() { return *cloud_; }
  crypto::ChaChaDrbg& rng() { return *aux_rng_; }

  /// Creates a second browser on its own node (the "any computer without
  /// installing software" scenario). Caller owns the result.
  std::unique_ptr<client::Browser> make_browser(const std::string& node_id);

  // ---- synchronous convenience wrappers (each runs the event loop) ----
  Status signup(const std::string& user, const std::string& mp);
  Status login(const std::string& user, const std::string& mp);
  Status login_from(client::Browser& browser, const std::string& user,
                    const std::string& mp);
  /// install + GCM registration + CAPTCHA pairing, end to end.
  Status pair_phone(const std::string& user);
  Status add_account(const std::string& username, const std::string& domain);
  Status add_account(const std::string& username, const std::string& domain,
                     const core::PasswordPolicy& policy);
  Result<std::string> get_password(const std::string& username,
                                   const std::string& domain);
  Result<std::string> get_password_from(client::Browser& browser,
                                        const std::string& username,
                                        const std::string& domain);
  Status backup_phone();

  /// Full provisioning: signup, login, pair, backup, in one call.
  Status provision(const std::string& user, const std::string& mp);

 private:
  void wire_links();

  TestbedConfig config_;
  std::unique_ptr<simnet::Simulation> sim_;
  std::unique_ptr<simnet::Network> net_;
  std::unique_ptr<crypto::ChaChaDrbg> server_rng_;
  std::unique_ptr<crypto::ChaChaDrbg> phone_rng_;
  std::unique_ptr<crypto::ChaChaDrbg> client_rng_;
  std::unique_ptr<crypto::ChaChaDrbg> infra_rng_;
  std::unique_ptr<crypto::ChaChaDrbg> aux_rng_;
  std::unique_ptr<rendezvous::PushService> gcm_;
  std::unique_ptr<cloud::BlobStoreService> cloud_;
  std::unique_ptr<server::AmnesiaServer> server_;
  std::unique_ptr<phone::PhoneApp> phone_;
  std::unique_ptr<client::Browser> browser_;
};

}  // namespace amnesia::eval
