#include "server/db.h"

#include "common/error.h"

namespace amnesia::server {

using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

namespace {

Schema users_schema() {
  return Schema{.columns = {{"user", ValueType::kText},
                            {"oid", ValueType::kBlob},
                            {"mp_record", ValueType::kText},
                            {"reg_id", ValueType::kText, /*nullable=*/true},
                            {"pid_record", ValueType::kText,
                             /*nullable=*/true}},
                .primary_key = 0};
}

Schema accounts_schema() {
  return Schema{.columns = {{"key", ValueType::kText},
                            {"user", ValueType::kText},
                            {"username", ValueType::kText},
                            {"domain", ValueType::kText},
                            {"seed", ValueType::kBlob},
                            {"policy", ValueType::kText}},
                .primary_key = 0};
}

Schema vault_schema() {
  return Schema{.columns = {{"key", ValueType::kText},
                            {"user", ValueType::kText},
                            {"username", ValueType::kText},
                            {"domain", ValueType::kText},
                            {"seed", ValueType::kBlob},
                            {"nonce", ValueType::kBlob, /*nullable=*/true},
                            {"ciphertext", ValueType::kBlob,
                             /*nullable=*/true}},
                .primary_key = 0};
}

}  // namespace

DbHandler::DbHandler(const std::string& path) : db_(path) {
  if (!db_.has_table("users")) db_.create_table("users", users_schema());
  if (!db_.has_table("accounts")) {
    db_.create_table("accounts", accounts_schema());
  }
  if (!db_.has_table("vault")) db_.create_table("vault", vault_schema());
}

std::string DbHandler::account_key(const std::string& user,
                                   const core::AccountId& id) {
  return user + "\x1f" + id.domain + "\x1f" + id.username;
}

UserRecord DbHandler::user_from_row(const Row& row) {
  UserRecord rec{row[0].as_text(), core::OnlineId(row[1].as_blob()),
                 crypto::PasswordRecord::decode(row[2].as_text()),
                 std::nullopt, std::nullopt};
  if (!row[3].is_null()) rec.registration_id = row[3].as_text();
  if (!row[4].is_null()) {
    rec.pid_record = crypto::PasswordRecord::decode(row[4].as_text());
  }
  return rec;
}

AccountRecord DbHandler::account_from_row(const Row& row) {
  return AccountRecord{row[1].as_text(),
                       core::AccountId{row[2].as_text(), row[3].as_text()},
                       core::Seed(row[4].as_blob()),
                       core::PasswordPolicy::decode(row[5].as_text())};
}

bool DbHandler::user_exists(const std::string& user) const {
  return db_.table("users").contains(Value(user));
}

void DbHandler::create_user(const UserRecord& record) {
  db_.insert("users",
             Row{record.user, record.oid.bytes(), record.mp_record.encode(),
                 record.registration_id ? Value(*record.registration_id)
                                        : Value(),
                 record.pid_record ? Value(record.pid_record->encode())
                                   : Value()});
}

std::optional<UserRecord> DbHandler::get_user(const std::string& user) const {
  const auto row = db_.table("users").get(Value(user));
  if (!row) return std::nullopt;
  return user_from_row(*row);
}

void DbHandler::set_master_password(const std::string& user,
                                    const crypto::PasswordRecord& record) {
  auto row = db_.table("users").get(Value(user));
  if (!row) throw StorageError("set_master_password: unknown user " + user);
  (*row)[2] = Value(record.encode());
  db_.update("users", Value(user), *row);
}

void DbHandler::set_phone_binding(const std::string& user,
                                  const std::string& registration_id,
                                  const crypto::PasswordRecord& pid_record) {
  auto row = db_.table("users").get(Value(user));
  if (!row) throw StorageError("set_phone_binding: unknown user " + user);
  (*row)[3] = Value(registration_id);
  (*row)[4] = Value(pid_record.encode());
  db_.update("users", Value(user), *row);
}

void DbHandler::clear_phone_binding(const std::string& user) {
  auto row = db_.table("users").get(Value(user));
  if (!row) throw StorageError("clear_phone_binding: unknown user " + user);
  (*row)[3] = Value();
  (*row)[4] = Value();
  db_.update("users", Value(user), *row);
}

bool DbHandler::add_account(const AccountRecord& record) {
  const std::string key = account_key(record.user, record.id);
  if (db_.table("accounts").contains(Value(key))) return false;
  record.policy.validate();
  db_.insert("accounts",
             Row{key, record.user, record.id.username, record.id.domain,
                 record.seed.bytes(), record.policy.encode()});
  return true;
}

std::optional<AccountRecord> DbHandler::get_account(
    const std::string& user, const core::AccountId& id) const {
  const auto row = db_.table("accounts").get(Value(account_key(user, id)));
  if (!row) return std::nullopt;
  return account_from_row(*row);
}

void DbHandler::visit_user_rows(
    const std::string& table, const std::string& user,
    const std::function<void(const Row&)>& fn) const {
  // Every key of `user` starts with user\x1f (account_key). The range can
  // also hold a user whose name extends `user` past a \x1f; the exact
  // user check drops those rows.
  db_.table(table).visit_prefix(user + "\x1f", [&](const Row& r) {
    if (r[1].as_text() == user) fn(r);
  });
}

std::vector<AccountRecord> DbHandler::list_accounts(
    const std::string& user) const {
  std::vector<AccountRecord> accounts;
  visit_user_rows("accounts", user, [&](const Row& r) {
    accounts.push_back(account_from_row(r));
  });
  return accounts;
}

void DbHandler::for_each_account_id(
    const std::string& user,
    const std::function<void(const std::string& username,
                             const std::string& domain)>& fn) const {
  visit_user_rows("accounts", user, [&](const Row& r) {
    fn(r[2].as_text(), r[3].as_text());
  });
}

bool DbHandler::remove_account(const std::string& user,
                               const core::AccountId& id) {
  return db_.remove("accounts", Value(account_key(user, id)));
}

bool DbHandler::set_seed(const std::string& user, const core::AccountId& id,
                         const core::Seed& seed) {
  const std::string key = account_key(user, id);
  auto row = db_.table("accounts").get(Value(key));
  if (!row) return false;
  (*row)[4] = Value(seed.bytes());
  return db_.update("accounts", Value(key), *row);
}

DbHandler::VaultRecord DbHandler::vault_from_row(const Row& row) {
  VaultRecord rec{row[1].as_text(),
                  core::AccountId{row[2].as_text(), row[3].as_text()},
                  core::Seed(row[4].as_blob()), std::nullopt, std::nullopt};
  if (!row[5].is_null()) rec.nonce = row[5].as_blob();
  if (!row[6].is_null()) rec.ciphertext = row[6].as_blob();
  return rec;
}

bool DbHandler::vault_add(const VaultRecord& record) {
  const std::string key = account_key(record.user, record.id);
  if (db_.table("vault").contains(Value(key))) return false;
  db_.insert("vault",
             Row{key, record.user, record.id.username, record.id.domain,
                 record.seed.bytes(),
                 record.nonce ? Value(*record.nonce) : Value(),
                 record.ciphertext ? Value(*record.ciphertext) : Value()});
  return true;
}

std::optional<DbHandler::VaultRecord> DbHandler::vault_get(
    const std::string& user, const core::AccountId& id) const {
  const auto row = db_.table("vault").get(Value(account_key(user, id)));
  if (!row) return std::nullopt;
  return vault_from_row(*row);
}

bool DbHandler::vault_set_ciphertext(const std::string& user,
                                     const core::AccountId& id,
                                     const Bytes& nonce,
                                     const Bytes& ciphertext) {
  const std::string key = account_key(user, id);
  auto row = db_.table("vault").get(Value(key));
  if (!row) return false;
  (*row)[5] = Value(nonce);
  (*row)[6] = Value(ciphertext);
  return db_.update("vault", Value(key), *row);
}

std::vector<DbHandler::VaultRecord> DbHandler::vault_list(
    const std::string& user) const {
  std::vector<VaultRecord> records;
  visit_user_rows("vault", user, [&](const Row& r) {
    records.push_back(vault_from_row(r));
  });
  return records;
}

bool DbHandler::vault_remove(const std::string& user,
                             const core::AccountId& id) {
  return db_.remove("vault", Value(account_key(user, id)));
}

std::optional<core::ServerSecrets> DbHandler::server_secrets(
    const std::string& user) const {
  const auto record = get_user(user);
  if (!record) return std::nullopt;
  core::ServerSecrets ks{record->oid, {}};
  for (const auto& account : list_accounts(user)) {
    ks.accounts.push_back({account.id, account.seed, account.policy});
  }
  return ks;
}

}  // namespace amnesia::server
