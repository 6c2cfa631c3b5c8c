// Database handler of the Amnesia server (paper section V-A).
//
// The prototype keeps "K_s, hashed and salted master password,
// registration id, etc." in SQLite; this handler provides the typed view
// over our storage engine. Schema:
//
//   users    : user(pk) | oid | mp_record | reg_id? | pid_record?
//   accounts : key(pk)  | user | username | domain | seed | policy
//
// `key` is user\x1f domain\x1f username — the paper identifies accounts by
// the (mu, d) pair within a user. One user's rows therefore sit together
// in key order, and the per-user reads visit only that range. The server
// keeps bytes below 0x20 out of user names, usernames and domains, so no
// two users' keys can alias (docs/PROTOCOL.md).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/charset.h"
#include "core/keys.h"
#include "core/notation.h"
#include "crypto/password_hash.h"
#include "storage/database.h"

namespace amnesia::server {

struct UserRecord {
  std::string user;
  core::OnlineId oid;
  crypto::PasswordRecord mp_record;
  std::optional<std::string> registration_id;
  std::optional<crypto::PasswordRecord> pid_record;
};

struct AccountRecord {
  std::string user;
  core::AccountId id;
  core::Seed seed;
  core::PasswordPolicy policy;
};

class DbHandler {
 public:
  /// Opens or creates the server database; empty path = in-memory.
  explicit DbHandler(const std::string& path = "");

  // -- users
  bool user_exists(const std::string& user) const;
  void create_user(const UserRecord& record);
  std::optional<UserRecord> get_user(const std::string& user) const;
  void set_master_password(const std::string& user,
                           const crypto::PasswordRecord& record);
  void set_phone_binding(const std::string& user,
                         const std::string& registration_id,
                         const crypto::PasswordRecord& pid_record);
  /// Purges reg_id and hashed Pid (phone-compromise recovery step).
  void clear_phone_binding(const std::string& user);

  // -- accounts
  bool add_account(const AccountRecord& record);  // false if it exists
  std::optional<AccountRecord> get_account(const std::string& user,
                                           const core::AccountId& id) const;
  /// The user's accounts in key order (domain, then username).
  std::vector<AccountRecord> list_accounts(const std::string& user) const;
  /// Calls fn(username, domain) for each of the user's accounts, in
  /// list_accounts order, without copying seeds or decoding policies.
  void for_each_account_id(
      const std::string& user,
      const std::function<void(const std::string& username,
                               const std::string& domain)>& fn) const;
  bool remove_account(const std::string& user, const core::AccountId& id);
  bool set_seed(const std::string& user, const core::AccountId& id,
                const core::Seed& seed);

  /// The user's K_s view (Oid + all account entries) for password
  /// generation and for the breach-analysis harness.
  std::optional<core::ServerSecrets> server_secrets(
      const std::string& user) const;

  // -- chosen-password vault (the paper's section-VIII planned feature).
  // A vault record stores a user-chosen password sealed under a key that
  // only the phone's token can re-derive, preserving the bilateral split:
  //   vault : key(pk) | user | username | domain | seed | nonce? | ct?
  struct VaultRecord {
    std::string user;
    core::AccountId id;
    core::Seed seed;                  // sigma_v: blinds R, salts the key
    std::optional<Bytes> nonce;      // set once the ciphertext is stored
    std::optional<Bytes> ciphertext;
  };
  bool vault_add(const VaultRecord& record);  // false if it exists
  std::optional<VaultRecord> vault_get(const std::string& user,
                                       const core::AccountId& id) const;
  bool vault_set_ciphertext(const std::string& user,
                            const core::AccountId& id, const Bytes& nonce,
                            const Bytes& ciphertext);
  std::vector<VaultRecord> vault_list(const std::string& user) const;
  bool vault_remove(const std::string& user, const core::AccountId& id);

  storage::Database& raw() { return db_; }
  const storage::Database& raw() const { return db_; }

 private:
  static std::string account_key(const std::string& user,
                                 const core::AccountId& id);
  /// Visits `user`'s rows of the accounts or vault table in key order.
  void visit_user_rows(const std::string& table, const std::string& user,
                       const std::function<void(const storage::Row&)>& fn)
      const;
  static UserRecord user_from_row(const storage::Row& row);
  static AccountRecord account_from_row(const storage::Row& row);
  static VaultRecord vault_from_row(const storage::Row& row);

  storage::Database db_;
};

}  // namespace amnesia::server
