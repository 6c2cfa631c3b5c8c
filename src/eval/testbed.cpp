#include "eval/testbed.h"

#include "common/error.h"

namespace amnesia::eval {

Testbed::Testbed(TestbedConfig config) : config_(std::move(config)) {
  sim_ = std::make_unique<simnet::Simulation>(config_.seed);
  net_ = std::make_unique<simnet::Network>(*sim_);
  // Independent deterministic streams per principal so adding calls on one
  // component does not perturb another's randomness.
  server_rng_ = std::make_unique<crypto::ChaChaDrbg>(config_.seed * 4 + 0);
  phone_rng_ = std::make_unique<crypto::ChaChaDrbg>(config_.seed * 4 + 1);
  client_rng_ = std::make_unique<crypto::ChaChaDrbg>(config_.seed * 4 + 2);
  infra_rng_ = std::make_unique<crypto::ChaChaDrbg>(config_.seed * 4 + 3);
  aux_rng_ = std::make_unique<crypto::ChaChaDrbg>(config_.seed * 4 + 99);

  gcm_ = std::make_unique<rendezvous::PushService>(*net_, "gcm", *infra_rng_);
  cloud_ = std::make_unique<cloud::BlobStoreService>(*net_, "cloud");

  config_.server.node_id = "amnesia-server";
  config_.server.rendezvous_node = "gcm";
  server_ = std::make_unique<server::AmnesiaServer>(*sim_, *net_, *server_rng_,
                                                    config_.server);
  // One registry for the whole testbed: the rendezvous service and the
  // client-side channel legs report into the server's registry, so a
  // single /metrics snapshot covers the full bilateral round.
  gcm_->set_metrics(&server_->metrics());

  config_.phone.node_id = "phone";
  config_.phone.rendezvous_node = "gcm";
  config_.phone.server_node = "amnesia-server";
  config_.phone.server_public_key = server_->public_key();
  config_.phone.cloud_node = "cloud";
  if (config_.phone.cloud_user.empty()) {
    config_.phone.cloud_user = "user@cloud.example";
    config_.phone.cloud_secret = "cloud-credential";
  }
  if (config_.auto_provision_cloud_account) {
    cloud_->create_account(config_.phone.cloud_user,
                           config_.phone.cloud_secret);
  }
  phone_ = std::make_unique<phone::PhoneApp>(*sim_, *net_, *phone_rng_,
                                             config_.phone);
  phone_->set_metrics(&server_->metrics());

  browser_ = std::make_unique<client::Browser>(
      *net_, "browser", "amnesia-server", server_->public_key(),
      *client_rng_);
  browser_->channel().set_metrics(&server_->metrics(), &sim_->clock());
  browser_->set_tracer(&server_->metrics().tracer());

  wire_links();
}

void Testbed::wire_links() {
  const auto& p = simnet::profiles();
  const bool wifi = config_.phone_link == PhoneLink::kWifi;
  const simnet::LinkProfile down = wifi ? p.wifi_downlink : p.lte_downlink;
  const simnet::LinkProfile up = wifi ? p.wifi_uplink : p.lte_uplink;

  net_->set_default_link(p.wan);
  net_->set_duplex_link("browser", "amnesia-server", p.wan, p.wan);
  net_->set_duplex_link("amnesia-server", "gcm", p.dc_lan, p.dc_lan);
  net_->set_link("gcm", "phone", down);
  net_->set_link("phone", "gcm", up);
  net_->set_link("phone", "amnesia-server", up);
  net_->set_link("amnesia-server", "phone", down);
  net_->set_link("phone", "cloud", up);
  net_->set_link("cloud", "phone", down);
}

std::unique_ptr<client::Browser> Testbed::make_browser(
    const std::string& node_id) {
  auto browser = std::make_unique<client::Browser>(
      *net_, node_id, "amnesia-server", server_->public_key(), *client_rng_);
  browser->channel().set_metrics(&server_->metrics(), &sim_->clock());
  browser->set_tracer(&server_->metrics().tracer());
  net_->set_duplex_link(node_id, "amnesia-server", simnet::profiles().wan,
                        simnet::profiles().wan);
  return browser;
}

Status Testbed::signup(const std::string& user, const std::string& mp) {
  Waiter<Status> waiter(*sim_);
  browser_->signup(user, mp, waiter.capture());
  return waiter.wait();
}

Status Testbed::login(const std::string& user, const std::string& mp) {
  return login_from(*browser_, user, mp);
}

Status Testbed::login_from(client::Browser& browser, const std::string& user,
                           const std::string& mp) {
  Waiter<Status> waiter(*sim_);
  browser.login(user, mp, waiter.capture());
  return waiter.wait();
}

Status Testbed::pair_phone(const std::string& user) {
  if (!phone_->installed()) phone_->install();
  {
    Waiter<Status> waiter(*sim_);
    phone_->register_with_rendezvous(waiter.capture());
    const Status s = waiter.wait();
    if (!s.ok()) return s;
  }
  Waiter<Result<std::string>> captcha_waiter(*sim_);
  browser_->start_pairing(captcha_waiter.capture());
  const Result<std::string> captcha = captcha_waiter.wait();
  if (!captcha.ok()) return Status(captcha.failure());

  Waiter<Status> pair_waiter(*sim_);
  phone_->pair(user, captcha.value(), pair_waiter.capture());
  return pair_waiter.wait();
}

Status Testbed::add_account(const std::string& username,
                            const std::string& domain) {
  Waiter<Status> waiter(*sim_);
  browser_->add_account(username, domain, waiter.capture());
  return waiter.wait();
}

Status Testbed::add_account(const std::string& username,
                            const std::string& domain,
                            const core::PasswordPolicy& policy) {
  Waiter<Status> waiter(*sim_);
  browser_->add_account(username, domain, policy, waiter.capture());
  return waiter.wait();
}

Result<std::string> Testbed::get_password(const std::string& username,
                                          const std::string& domain) {
  return get_password_from(*browser_, username, domain);
}

Result<std::string> Testbed::get_password_from(client::Browser& browser,
                                               const std::string& username,
                                               const std::string& domain) {
  Waiter<Result<std::string>> waiter(*sim_);
  browser.request_password(username, domain, waiter.capture());
  return waiter.wait();
}

Status Testbed::backup_phone() {
  Waiter<Status> waiter(*sim_);
  phone_->backup_to_cloud(waiter.capture());
  return waiter.wait();
}

Status Testbed::provision(const std::string& user, const std::string& mp) {
  if (Status s = signup(user, mp); !s.ok()) return s;
  if (Status s = login(user, mp); !s.ok()) return s;
  if (Status s = pair_phone(user); !s.ok()) return s;
  return backup_phone();
}

}  // namespace amnesia::eval
