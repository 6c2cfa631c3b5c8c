// Unit tests for the phone application: lifecycle guards, backup error
// paths, reconnect, confirmation accounting, and push hygiene.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/generate.h"
#include "eval/testbed.h"

namespace amnesia::eval {
namespace {

TEST(PhoneUnit, SecretsBeforeInstallThrows) {
  Testbed bed;
  EXPECT_FALSE(bed.phone().installed());
  EXPECT_THROW(bed.phone().secrets(), ProtocolError);
}

TEST(PhoneUnit, InstallGeneratesFreshSecretsEachTime) {
  Testbed bed;
  bed.phone().install();
  const auto first = bed.phone().secrets();
  bed.phone().install();
  const auto second = bed.phone().secrets();
  EXPECT_NE(first.pid, second.pid);
  EXPECT_NE(first.entry_table, second.entry_table);
}

TEST(PhoneUnit, ConfigurableEntryTableSize) {
  TestbedConfig config;
  config.phone.entry_table_size = 128;
  Testbed bed(config);
  bed.phone().install();
  EXPECT_EQ(bed.phone().secrets().entry_table.size(), 128u);
}

TEST(PhoneUnit, PairWithoutPrerequisitesFails) {
  Testbed bed;
  Status s(Err::kInternal, "pending");
  bed.phone().pair("alice", "123456", [&](Status st) { s = st; });
  bed.sim().run();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Err::kInvalidArgument);
}

TEST(PhoneUnit, BackupWithoutInstallFails) {
  Testbed bed;
  Status s(Err::kInternal, "pending");
  bed.phone().backup_to_cloud([&](Status st) { s = st; });
  bed.sim().run();
  EXPECT_FALSE(s.ok());
}

TEST(PhoneUnit, BackupWithWrongCloudCredentialFails) {
  TestbedConfig config;
  config.auto_provision_cloud_account = false;  // account never created
  Testbed bed(config);
  bed.phone().install();
  Status s(Err::kInternal, "pending");
  bed.phone().backup_to_cloud([&](Status st) { s = st; });
  bed.sim().run();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Err::kAuthFailed);
}

TEST(PhoneUnit, ReconnectBeforeRegistrationFails) {
  Testbed bed;
  Status s(Err::kInternal, "pending");
  bed.phone().reconnect([&](Status st) { s = st; });
  bed.sim().run();
  EXPECT_FALSE(s.ok());
}

TEST(PhoneUnit, RegistrationIdExposedAfterRegistration) {
  Testbed bed;
  bed.phone().install();
  EXPECT_FALSE(bed.phone().registration_id().has_value());
  Status s(Err::kInternal, "pending");
  bed.phone().register_with_rendezvous([&](Status st) { s = st; });
  bed.sim().run();
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(bed.phone().registration_id().has_value());
  EXPECT_TRUE(bed.phone().registration_id()->starts_with("gcm-"));
}

TEST(PhoneUnit, PushBeforeInstallIsDroppedSafely) {
  // A push racing an uninstalled app must be ignored, not crash.
  Testbed bed;
  ASSERT_TRUE(bed.signup("alice", "mp").ok());
  bed.phone().install();
  Status reg(Err::kInternal, "pending");
  bed.phone().register_with_rendezvous([&](Status st) { reg = st; });
  bed.sim().run();
  ASSERT_TRUE(reg.ok());
  // Deliver a valid-shaped push directly via a raw GCM client.
  simnet::Node sender(bed.net(), "raw-sender");
  rendezvous::PushClient push(sender, "gcm");
  crypto::ChaChaDrbg rng(5);
  const core::PasswordRequestPush msg{1, core::Request(rng.bytes(32)), "x",
                                      0, ""};
  push.push(*bed.phone().registration_id(), msg.encode(), 1'000'000,
            [](Status) {});
  bed.sim().run();
  EXPECT_EQ(bed.phone().stats().pushes_received, 1u);
  // No token was sent anywhere useful (no pending request at the server),
  // and certainly no crash. The confirmation policy ran.
}

TEST(PhoneUnit, DeclineCountsAndSendsDecline) {
  Testbed bed;
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("A", "d.example").ok());
  int consulted = 0;
  bed.phone().set_confirmation_policy(
      [&consulted](const core::PasswordRequestPush&) {
        ++consulted;
        return false;
      });
  const auto result = bed.get_password("A", "d.example");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(consulted, 1);
  EXPECT_EQ(bed.phone().stats().requests_declined, 1u);
  EXPECT_EQ(bed.phone().stats().tokens_sent, 0u);
}

TEST(PhoneUnit, TokenComputationChargesVirtualTime) {
  TestbedConfig config;
  config.phone.compute_mean_ms = 200.0;
  config.phone.compute_stddev_ms = 0.1;
  Testbed bed(config);
  ASSERT_TRUE(bed.provision("alice", "mp").ok());
  ASSERT_TRUE(bed.add_account("A", "d.example").ok());
  bed.server().clear_latencies();
  ASSERT_TRUE(bed.get_password("A", "d.example").ok());
  // The configured 200 ms handset compute must appear in the end-to-end
  // latency (baseline pipeline is ~785 ms with 25 ms compute).
  ASSERT_EQ(bed.server().password_latencies().size(), 1u);
  EXPECT_GT(bed.server().password_latencies()[0], ms_to_us(500));
}

TEST(PhoneUnit, PersistedSecretsReloadAcrossAppRestart) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "amnesia_phone_unit";
  fs::create_directories(dir);
  const std::string db_path = (dir / "phone").string();

  core::PhoneId original_pid{Bytes(64, 0)};
  {
    TestbedConfig config;
    config.phone.db_path = db_path;
    Testbed bed(config);
    bed.phone().install();
    original_pid = bed.phone().secrets().pid;
  }
  {
    TestbedConfig config;
    config.phone.db_path = db_path;
    Testbed bed(config);
    ASSERT_TRUE(bed.phone().installed());
    EXPECT_EQ(bed.phone().secrets().pid, original_pid);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace amnesia::eval
