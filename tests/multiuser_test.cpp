// Multi-user deployment: one Amnesia server serving several users, each
// with their own phone — isolation of accounts, sessions, pushes, and
// recovery state across tenants.
#include <gtest/gtest.h>

#include <filesystem>

#include "eval/testbed.h"
#include "websvc/http.h"

namespace amnesia::eval {
namespace {

/// Extends the single-user Testbed with a second user ("bob") owning a
/// second phone on its own node.
struct TwoUserWorld {
  Testbed bed;
  std::unique_ptr<crypto::ChaChaDrbg> bob_rng;
  std::unique_ptr<phone::PhoneApp> bob_phone;
  std::unique_ptr<client::Browser> bob_browser;

  TwoUserWorld() {
    // Alice via the standard testbed path.
    EXPECT_TRUE(bed.provision("alice", "alice-mp").ok());
    EXPECT_TRUE(bed.add_account("Alice", "mail.google.com").ok());

    // Bob: own browser node, own phone node, same server/GCM/cloud.
    bob_rng = std::make_unique<crypto::ChaChaDrbg>(777);
    bed.cloud().create_account("bob@cloud.example", "bob-secret");

    phone::PhoneAppConfig phone_config;
    phone_config.node_id = "bob-phone";
    phone_config.rendezvous_node = "gcm";
    phone_config.server_node = "amnesia-server";
    phone_config.server_public_key = bed.server().public_key();
    phone_config.cloud_node = "cloud";
    phone_config.cloud_user = "bob@cloud.example";
    phone_config.cloud_secret = "bob-secret";
    bob_phone = std::make_unique<phone::PhoneApp>(bed.sim(), bed.net(),
                                                  *bob_rng, phone_config);
    const auto& p = simnet::profiles();
    bed.net().set_link("gcm", "bob-phone", p.wifi_downlink);
    bed.net().set_link("bob-phone", "gcm", p.wifi_uplink);
    bed.net().set_link("bob-phone", "amnesia-server", p.wifi_uplink);
    bed.net().set_link("amnesia-server", "bob-phone", p.wifi_downlink);

    bob_browser = bed.make_browser("bob-pc");
  }

  Status provision_bob() {
    Status status(Err::kInternal, "pending");
    bob_browser->signup("bob", "bob-mp", [&](Status s) { status = s; });
    bed.sim().run();
    if (!status.ok()) return status;
    bob_browser->login("bob", "bob-mp", [&](Status s) { status = s; });
    bed.sim().run();
    if (!status.ok()) return status;

    bob_phone->install();
    bob_phone->register_with_rendezvous([&](Status s) { status = s; });
    bed.sim().run();
    if (!status.ok()) return status;

    Result<std::string> captcha(Err::kInternal, "pending");
    bob_browser->start_pairing([&](Result<std::string> r) { captcha = r; });
    bed.sim().run();
    if (!captcha.ok()) return Status(captcha.failure());

    bob_phone->pair("bob", captcha.value(), [&](Status s) { status = s; });
    bed.sim().run();
    return status;
  }
};

TEST(MultiUser, IndependentUsersGenerateIndependently) {
  TwoUserWorld world;
  ASSERT_TRUE(world.provision_bob().ok());

  Status added(Err::kInternal, "pending");
  world.bob_browser->add_account("Bob", "www.yahoo.com",
                                 [&](Status s) { added = s; });
  world.bed.sim().run();
  ASSERT_TRUE(added.ok());

  const auto alice_pw =
      world.bed.get_password("Alice", "mail.google.com");
  ASSERT_TRUE(alice_pw.ok());
  const auto bob_pw = world.bed.get_password_from(*world.bob_browser, "Bob",
                                                  "www.yahoo.com");
  ASSERT_TRUE(bob_pw.ok()) << bob_pw.message();
  EXPECT_NE(alice_pw.value(), bob_pw.value());

  // Each phone only ever saw its own user's requests.
  world.bed.sim().run();
  EXPECT_EQ(world.bed.phone().stats().pushes_received, 1u);
  EXPECT_EQ(world.bob_phone->stats().pushes_received, 1u);
}

TEST(MultiUser, AccountsAreInvisibleAcrossUsers) {
  TwoUserWorld world;
  ASSERT_TRUE(world.provision_bob().ok());

  // Bob's listing must not contain Alice's account.
  std::vector<std::string> listing;
  world.bob_browser->list_accounts([&](Result<std::vector<std::string>> r) {
    listing = r.value();
  });
  world.bed.sim().run();
  EXPECT_TRUE(listing.empty());

  // Bob cannot request Alice's password even knowing (u, d).
  const auto stolen = world.bed.get_password_from(
      *world.bob_browser, "Alice", "mail.google.com");
  EXPECT_FALSE(stolen.ok());
  EXPECT_EQ(stolen.code(), Err::kNotFound);
}

TEST(MultiUser, SameAccountNameDifferentUsersDifferentPasswords) {
  TwoUserWorld world;
  ASSERT_TRUE(world.provision_bob().ok());
  Status added(Err::kInternal, "pending");
  // Bob registers the *same* (username, domain) pair Alice has.
  world.bob_browser->add_account("Alice", "mail.google.com",
                                 [&](Status s) { added = s; });
  world.bed.sim().run();
  ASSERT_TRUE(added.ok());

  const auto alice_pw = world.bed.get_password("Alice", "mail.google.com");
  const auto bob_pw = world.bed.get_password_from(
      *world.bob_browser, "Alice", "mail.google.com");
  ASSERT_TRUE(alice_pw.ok());
  ASSERT_TRUE(bob_pw.ok());
  // Different Oid, sigma, and entry tables: no cross-user collision.
  EXPECT_NE(alice_pw.value(), bob_pw.value());
}

TEST(MultiUser, RecoveryOfOneUserDoesNotDisturbAnother) {
  TwoUserWorld world;
  ASSERT_TRUE(world.provision_bob().ok());
  Status added(Err::kInternal, "pending");
  world.bob_browser->add_account("Bob", "www.yahoo.com",
                                 [&](Status s) { added = s; });
  world.bed.sim().run();
  ASSERT_TRUE(added.ok());
  const auto bob_before = world.bed.get_password_from(
      *world.bob_browser, "Bob", "www.yahoo.com");
  ASSERT_TRUE(bob_before.ok());

  // Alice loses her phone and recovers (purging *her* binding only).
  Bytes backup;
  {
    simnet::Node pc(world.bed.net(), "alice-recovery-pc");
    cloud::BlobClient cloud_client(pc, "cloud", "user@cloud.example",
                                   "cloud-credential");
    cloud_client.get("amnesia-kp-backup", [&](Result<Bytes> r) {
      if (r.ok()) backup = r.value();
    });
    world.bed.sim().run();
  }
  bool recovered = false;
  world.bed.browser().recover_phone(backup,
                                    [&](auto r) { recovered = r.ok(); });
  world.bed.sim().run();
  ASSERT_TRUE(recovered);

  // Alice is phone-less; Bob is untouched.
  EXPECT_FALSE(world.bed.get_password("Alice", "mail.google.com").ok());
  const auto bob_after = world.bed.get_password_from(
      *world.bob_browser, "Bob", "www.yahoo.com");
  ASSERT_TRUE(bob_after.ok());
  EXPECT_EQ(bob_after.value(), bob_before.value());
}

TEST(MultiUser, ThrottlingIsPerUser) {
  TwoUserWorld world;
  ASSERT_TRUE(world.provision_bob().ok());
  // Attacker hammers alice's login until lockout.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(world.bed.login("alice", "wrong").ok());
  }
  EXPECT_EQ(world.bed.login("alice", "alice-mp").code(), Err::kThrottled);
  // Bob logs in fine.
  Status bob_login(Err::kInternal, "pending");
  world.bob_browser->login("bob", "bob-mp",
                           [&](Status s) { bob_login = s; });
  world.bed.sim().run();
  EXPECT_TRUE(bob_login.ok());
}

/// One request straight into the server's HTTP layer under `user`'s
/// session.
websvc::Response SendAs(Testbed& bed, const std::string& user,
                        websvc::Method method, const std::string& path) {
  websvc::Request req;
  req.method = method;
  req.path = path;
  req.headers["Cookie"] =
      "session=" + bed.server().sessions().create(user);
  Bytes reply;
  bed.server().http().handle_bytes(websvc::serialize(req),
                                   [&](Bytes b) { reply = std::move(b); });
  bed.sim().run();
  return websvc::parse_response(reply);
}

/// GET /accounts as the full scan of the accounts table would render it.
std::string ScannedListing(const server::DbHandler& db,
                           const std::string& user) {
  std::string body;
  for (const auto& row : db.raw().table("accounts").select(
           [&](const storage::Row& r) { return r[1].as_text() == user; })) {
    body += row[2].as_text() + '\t' + row[3].as_text() + '\n';
  }
  return body;
}

TEST(MultiUser, AccountListingBodyMatchesFullScan) {
  // Users whose names share a prefix sit next to each other in key
  // order; "pb-user-1\x1fx" (stored directly, the server refuses the
  // name) even sits inside pb-user-1's key range.
  const std::vector<std::string> users = {"pb-user-1", "pb-user-10",
                                          "pb-user-1x", "pb-user-1\x1fx"};
  const std::vector<core::AccountId> ids = {
      {"x", "a.example"}, {"u", "x"}, {"pb-user-10", "b.example"},
      {"z", "pb-user-1x"}};
  const std::string db_path = ::testing::TempDir() + "multiuser_listing.db";
  std::filesystem::remove(db_path + ".snapshot");
  std::filesystem::remove(db_path + ".journal");
  TestbedConfig config;
  config.server.db_path = db_path;
  auto expect_listings_match = [&](Testbed& bed, const std::string& stage) {
    for (const auto& user : users) {
      const auto resp = SendAs(bed, user, websvc::Method::kGet, "/accounts");
      EXPECT_EQ(resp.status, 200) << stage << " / " << user;
      EXPECT_EQ(resp.body, ScannedListing(bed.server().db(), user))
          << stage << " / " << user;
    }
  };
  {
    Testbed bed(config);
    crypto::ChaChaDrbg rng(31);
    auto& db = bed.server().db();
    for (const auto& user : users) {
      for (const auto& id : ids) {
        ASSERT_TRUE(db.add_account(
            {user, id, core::Seed::generate(rng), core::PasswordPolicy{}}));
      }
    }
    expect_listings_match(bed, "inserted");
    ASSERT_TRUE(db.remove_account("pb-user-1", {"u", "x"}));
    ASSERT_TRUE(db.remove_account("pb-user-1\x1fx", {"x", "a.example"}));
    expect_listings_match(bed, "removed");
    ASSERT_TRUE(
        db.set_seed("pb-user-10", {"u", "x"}, core::Seed::generate(rng)));
    expect_listings_match(bed, "reseeded");
  }
  Testbed reopened(config);
  EXPECT_EQ(reopened.server().db().list_accounts("pb-user-1").size(), 3u);
  expect_listings_match(reopened, "reopened");
  std::filesystem::remove(db_path + ".snapshot");
  std::filesystem::remove(db_path + ".journal");
}

TEST(MultiUser, ControlBytesCannotAliasAnotherUsersAccountKey) {
  // Storage keys join user, domain and username with \x1f, so without
  // the identifier rule user "alice\x1fbank" adding (Y, X) lands on the
  // key of alice's (Y, bank\x1fX): alice\x1fbank\x1fX\x1fY.
  TwoUserWorld world;
  Testbed& bed = world.bed;
  const core::AccountId alices{"Y", "bank\x1fX"};
  crypto::ChaChaDrbg rng(41);
  const core::Seed alice_seed = core::Seed::generate(rng);
  ASSERT_TRUE(bed.server().db().add_account(
      {"alice", alices, alice_seed, core::PasswordPolicy{}}));

  auto wait = [&](auto start) {
    Waiter<Status> waiter(bed.sim());
    start(waiter.capture());
    return waiter.wait();
  };
  client::Browser& mallory = *world.bob_browser;
  const std::string name = "alice\x1f" "bank";
  auto refused = [](const Status& s) {
    return !s.ok() && s.message().starts_with("control byte in field");
  };
  EXPECT_TRUE(refused(
      wait([&](auto cb) { mallory.signup(name, "mallory-mp", cb); })));
  EXPECT_FALSE(bed.server().db().user_exists(name));

  // The rest of the attack, which needs the account above.
  wait([&](auto cb) { mallory.login(name, "mallory-mp", cb); });
  const Status add = wait([&](auto cb) { mallory.add_account("Y", "X", cb); });
  EXPECT_FALSE(!add.ok() && add.code() == Err::kAlreadyExists)
      << "(Y, X) collided with alice's account";
  wait([&](auto cb) { mallory.rotate_seed("Y", "X", cb); });
  wait([&](auto cb) { mallory.remove_account("Y", "X", cb); });
  const auto row = bed.server().db().get_account("alice", alices);
  ASSERT_TRUE(row.has_value()) << "alice's account was removed";
  EXPECT_EQ(row->seed, alice_seed) << "alice's seed was rotated";

  // Every byte below 0x20 in a username or domain is refused before
  // storage, on both tables.
  for (const auto& [username, domain] :
       std::vector<std::pair<std::string, std::string>>{
           {"Y", "bank\x1fX"}, {"a\tb", "site"}, {"a", "si\nte"},
           {std::string("a\0b", 3), "site"}, {"a", "\x01"}}) {
    EXPECT_TRUE(refused(wait([&](auto cb) {
      bed.browser().add_account(username, domain, cb);
    }))) << username << " / " << domain;
    EXPECT_TRUE(refused(wait([&](auto cb) {
      bed.browser().vault_store(username, domain, "chosen", cb);
    }))) << username << " / " << domain;
  }
  EXPECT_EQ(bed.server().db().list_accounts("alice").size(), 2u);
  EXPECT_TRUE(bed.server().db().vault_list("alice").empty());
  // Bytes from 0x20 up stay allowed.
  EXPECT_TRUE(bed.add_account("a b~\x7f\xc3\xa9", "site").ok());
}

}  // namespace
}  // namespace amnesia::eval
