// Unit tests for the Amnesia server's internal components: the database
// handler (including the vault schema) and the authentication throttle.
#include <gtest/gtest.h>

#include <filesystem>

#include "crypto/drbg.h"
#include "server/auth.h"
#include "server/db.h"

namespace amnesia::server {
namespace {

crypto::PasswordRecord record_for(const std::string& secret,
                                  crypto::ChaChaDrbg& rng) {
  crypto::PasswordHasher hasher({.iterations = 2});
  return hasher.hash(to_bytes(secret), rng);
}

UserRecord make_user(const std::string& name, crypto::ChaChaDrbg& rng) {
  return UserRecord{name, core::OnlineId::generate(rng),
                    record_for("mp-" + name, rng), std::nullopt,
                    std::nullopt};
}

TEST(DbHandlerTest, UserLifecycle) {
  crypto::ChaChaDrbg rng(1);
  DbHandler db;
  EXPECT_FALSE(db.user_exists("alice"));
  db.create_user(make_user("alice", rng));
  EXPECT_TRUE(db.user_exists("alice"));

  const auto loaded = db.get_user("alice");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->user, "alice");
  EXPECT_FALSE(loaded->registration_id.has_value());
  EXPECT_FALSE(loaded->pid_record.has_value());
  EXPECT_TRUE(crypto::PasswordHasher::verify(to_bytes("mp-alice"),
                                             loaded->mp_record));
}

TEST(DbHandlerTest, PhoneBindingSetAndClear) {
  crypto::ChaChaDrbg rng(2);
  DbHandler db;
  db.create_user(make_user("alice", rng));
  db.set_phone_binding("alice", "gcm-reg-1", record_for("pid-bytes", rng));

  auto loaded = db.get_user("alice");
  ASSERT_TRUE(loaded->registration_id.has_value());
  EXPECT_EQ(*loaded->registration_id, "gcm-reg-1");
  ASSERT_TRUE(loaded->pid_record.has_value());

  db.clear_phone_binding("alice");
  loaded = db.get_user("alice");
  EXPECT_FALSE(loaded->registration_id.has_value());
  EXPECT_FALSE(loaded->pid_record.has_value());
}

TEST(DbHandlerTest, PhoneBindingOnUnknownUserThrows) {
  crypto::ChaChaDrbg rng(3);
  DbHandler db;
  EXPECT_THROW(db.set_phone_binding("ghost", "r", record_for("x", rng)),
               StorageError);
  EXPECT_THROW(db.clear_phone_binding("ghost"), StorageError);
  EXPECT_THROW(db.set_master_password("ghost", record_for("x", rng)),
               StorageError);
}

TEST(DbHandlerTest, AccountCrudAndPerUserIsolation) {
  crypto::ChaChaDrbg rng(4);
  DbHandler db;
  db.create_user(make_user("alice", rng));
  db.create_user(make_user("bob", rng));

  const core::AccountId gmail{"Alice", "mail.google.com"};
  EXPECT_TRUE(db.add_account(
      {"alice", gmail, core::Seed::generate(rng), core::PasswordPolicy{}}));
  EXPECT_FALSE(db.add_account(
      {"alice", gmail, core::Seed::generate(rng), core::PasswordPolicy{}}));
  // Same (u, d) under a different user is a distinct row.
  EXPECT_TRUE(db.add_account(
      {"bob", gmail, core::Seed::generate(rng), core::PasswordPolicy{}}));

  EXPECT_EQ(db.list_accounts("alice").size(), 1u);
  EXPECT_EQ(db.list_accounts("bob").size(), 1u);
  EXPECT_TRUE(db.remove_account("alice", gmail));
  EXPECT_FALSE(db.remove_account("alice", gmail));
  EXPECT_EQ(db.list_accounts("bob").size(), 1u);
}

TEST(DbHandlerTest, SeedRotationPersistsNewSeed) {
  crypto::ChaChaDrbg rng(5);
  DbHandler db;
  db.create_user(make_user("alice", rng));
  const core::AccountId id{"u", "d.example"};
  const auto original_seed = core::Seed::generate(rng);
  ASSERT_TRUE(
      db.add_account({"alice", id, original_seed, core::PasswordPolicy{}}));

  const auto next_seed = core::Seed::generate(rng);
  EXPECT_TRUE(db.set_seed("alice", id, next_seed));
  EXPECT_EQ(db.get_account("alice", id)->seed, next_seed);
  EXPECT_FALSE(db.set_seed("alice", {"no", "such.example"}, next_seed));
}

TEST(DbHandlerTest, ServerSecretsViewMatchesRows) {
  crypto::ChaChaDrbg rng(6);
  DbHandler db;
  db.create_user(make_user("alice", rng));
  db.add_account({"alice", {"A", "a.example"}, core::Seed::generate(rng),
                  core::PasswordPolicy{}});
  db.add_account({"alice", {"B", "b.example"}, core::Seed::generate(rng),
                  core::PasswordPolicy{}});

  const auto ks = db.server_secrets("alice");
  ASSERT_TRUE(ks.has_value());
  EXPECT_EQ(ks->accounts.size(), 2u);
  EXPECT_NE(ks->find({"A", "a.example"}), nullptr);
  EXPECT_EQ(ks->find({"A", "b.example"}), nullptr);
  EXPECT_FALSE(db.server_secrets("ghost").has_value());
}

TEST(DbHandlerTest, VaultLifecycle) {
  crypto::ChaChaDrbg rng(7);
  DbHandler db;
  const core::AccountId id{"A", "bank.example"};
  EXPECT_FALSE(db.vault_get("alice", id).has_value());

  ASSERT_TRUE(db.vault_add({"alice", id, core::Seed::generate(rng),
                            std::nullopt, std::nullopt}));
  EXPECT_FALSE(db.vault_add({"alice", id, core::Seed::generate(rng),
                             std::nullopt, std::nullopt}));

  auto record = db.vault_get("alice", id);
  ASSERT_TRUE(record.has_value());
  EXPECT_FALSE(record->ciphertext.has_value());

  ASSERT_TRUE(db.vault_set_ciphertext("alice", id, Bytes{1, 2}, Bytes{3, 4}));
  record = db.vault_get("alice", id);
  EXPECT_EQ(record->nonce, (Bytes{1, 2}));
  EXPECT_EQ(record->ciphertext, (Bytes{3, 4}));

  EXPECT_EQ(db.vault_list("alice").size(), 1u);
  EXPECT_TRUE(db.vault_remove("alice", id));
  EXPECT_FALSE(db.vault_remove("alice", id));
  EXPECT_FALSE(
      db.vault_set_ciphertext("alice", id, Bytes{1}, Bytes{2}));
}

// --- Per-user listings against a full scan of the table. The listings
// --- visit one user's key range; the reference is the whole-table
// --- select on the user column, which they must equal in content and
// --- order.

/// One row rendered with every column after the key.
std::string Render(const storage::Row& row) {
  std::string out;
  for (std::size_t i = 1; i < row.size(); ++i) {
    out += row[i].to_display_string();
    if (row[i].type() == storage::ValueType::kBlob) {
      out += hex_encode(row[i].as_blob());
    }
    out += '|';
  }
  return out;
}

std::vector<std::string> ScanReference(const DbHandler& db,
                                       const std::string& table,
                                       const std::string& user) {
  std::vector<std::string> rows;
  for (const auto& row : db.raw().table(table).select(
           [&](const storage::Row& r) { return r[1].as_text() == user; })) {
    rows.push_back(Render(row));
  }
  return rows;
}

std::vector<std::string> ListedAccounts(const DbHandler& db,
                                        const std::string& user) {
  std::vector<std::string> rows;
  for (const auto& a : db.list_accounts(user)) {
    rows.push_back(Render({"", a.user, a.id.username, a.id.domain,
                           a.seed.bytes(), a.policy.encode()}));
  }
  return rows;
}

std::vector<std::string> ListedVault(const DbHandler& db,
                                     const std::string& user) {
  std::vector<std::string> rows;
  for (const auto& v : db.vault_list(user)) {
    rows.push_back(Render(
        {"", v.user, v.id.username, v.id.domain, v.seed.bytes(),
         v.nonce ? storage::Value(*v.nonce) : storage::Value(),
         v.ciphertext ? storage::Value(*v.ciphertext) : storage::Value()}));
  }
  return rows;
}

std::vector<std::string> ScanIds(const DbHandler& db, const std::string& user) {
  std::vector<std::string> ids;
  for (const auto& row : db.raw().table("accounts").select(
           [&](const storage::Row& r) { return r[1].as_text() == user; })) {
    ids.push_back(row[2].as_text() + '\t' + row[3].as_text());
  }
  return ids;
}

std::vector<std::string> VisitedIds(const DbHandler& db,
                                    const std::string& user) {
  std::vector<std::string> ids;
  db.for_each_account_id(
      user, [&](const std::string& username, const std::string& domain) {
        ids.push_back(username + '\t' + domain);
      });
  return ids;
}

// pb-user-1's key range also holds the rows of "pb-user-1\x1fx", a name
// the server refuses but the handler stores; pb-user-10 and pb-user-1x
// sort right after it.
const std::vector<std::string> kListingUsers = {
    "pb-user-1", "pb-user-10", "pb-user-1x", "pb-user-1\x1fx", "pb-user-2"};

void ExpectListingsMatchScan(const DbHandler& db, const std::string& stage) {
  for (const auto& user : kListingUsers) {
    SCOPED_TRACE(stage + " / " + user);
    EXPECT_EQ(ListedAccounts(db, user), ScanReference(db, "accounts", user));
    EXPECT_EQ(VisitedIds(db, user), ScanIds(db, user));
    EXPECT_EQ(ListedVault(db, user), ScanReference(db, "vault", user));
  }
}

TEST(DbHandlerTest, PerUserListingsMatchFullScan) {
  crypto::ChaChaDrbg rng(8);
  const std::string path = ::testing::TempDir() + "db_listing_test";
  std::filesystem::remove(path + ".snapshot");
  std::filesystem::remove(path + ".journal");
  {
    DbHandler db(path);
    for (const auto& user : kListingUsers) db.create_user(make_user(user, rng));
    // Domains and usernames that themselves start like user names, and a
    // custom policy with repeated characters, so a prefix slip or a
    // decoding difference would show.
    const std::vector<core::AccountId> ids = {
        {"x", "a.example"},  {"pb-user-10", "b.example"},
        {"u", "x"},          {"u2", "x"},
        {"z", "\x1f"},       {"x", "pb-user-1x"}};
    core::PasswordPolicy policy{core::CharacterTable::custom("aab!\xe9"), 7};
    for (const auto& user : kListingUsers) {
      for (const auto& id : ids) {
        ASSERT_TRUE(
            db.add_account({user, id, core::Seed::generate(rng), policy}));
        ASSERT_TRUE(db.vault_add(
            {user, id, core::Seed::generate(rng), std::nullopt, std::nullopt}));
      }
    }
    EXPECT_EQ(db.list_accounts("pb-user-1").size(), ids.size());
    ExpectListingsMatchScan(db, "inserted");

    ASSERT_TRUE(db.remove_account("pb-user-1", {"u", "x"}));
    ASSERT_TRUE(db.remove_account("pb-user-1\x1fx", {"x", "a.example"}));
    ASSERT_TRUE(db.vault_remove("pb-user-10", {"z", "\x1f"}));
    ExpectListingsMatchScan(db, "removed");

    ASSERT_TRUE(
        db.set_seed("pb-user-1", {"x", "a.example"}, core::Seed::generate(rng)));
    ASSERT_TRUE(db.set_seed("pb-user-1\x1fx", {"u", "x"},
                            core::Seed::generate(rng)));
    ASSERT_TRUE(db.vault_set_ciphertext("pb-user-1", {"u2", "x"}, Bytes{1},
                                        Bytes{2, 3}));
    ExpectListingsMatchScan(db, "reseeded");
  }
  DbHandler reopened(path);
  EXPECT_EQ(reopened.list_accounts("pb-user-1").size(), 5u);
  ExpectListingsMatchScan(reopened, "reopened");
  std::filesystem::remove(path + ".snapshot");
  std::filesystem::remove(path + ".journal");
}

TEST(ThrottleGuardTest, LocksAfterMaxFailuresAndRecovers) {
  ManualClock clock;
  ThrottleGuard guard(clock, {.max_failures = 3, .lockout_us = 1000});
  EXPECT_TRUE(guard.allowed("alice"));
  guard.record("alice", false);
  guard.record("alice", false);
  EXPECT_TRUE(guard.allowed("alice"));
  EXPECT_EQ(guard.failures("alice"), 2);
  guard.record("alice", false);  // third strike
  EXPECT_FALSE(guard.allowed("alice"));

  clock.advance_us(1001);
  EXPECT_TRUE(guard.allowed("alice"));
}

TEST(ThrottleGuardTest, SuccessResetsCounter) {
  ManualClock clock;
  ThrottleGuard guard(clock, {.max_failures = 3, .lockout_us = 1000});
  guard.record("alice", false);
  guard.record("alice", false);
  guard.record("alice", true);
  EXPECT_EQ(guard.failures("alice"), 0);
  guard.record("alice", false);
  guard.record("alice", false);
  EXPECT_TRUE(guard.allowed("alice"));
}

TEST(ThrottleGuardTest, UsersAreIndependent) {
  ManualClock clock;
  ThrottleGuard guard(clock, {.max_failures = 2, .lockout_us = 1000});
  guard.record("alice", false);
  guard.record("alice", false);
  EXPECT_FALSE(guard.allowed("alice"));
  EXPECT_TRUE(guard.allowed("bob"));
}

}  // namespace
}  // namespace amnesia::server
