// Robustness property sweeps: randomized mutation "fuzzing" of every
// wire-facing parser (HTTP, storage codec, protocol messages, secure
// channel, rendezvous/cloud RPCs) — malformed input must produce a clean
// error or rejection, never a crash or an accepted forgery — plus
// statistical sanity checks on the DRBG.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "cloud/blob_store.h"
#include "common/error.h"
#include "core/protocol.h"
#include "crypto/drbg.h"
#include "rendezvous/push_service.h"
#include "obs/metrics.h"
#include "securechan/channel.h"
#include "simnet/network.h"
#include "simnet/node.h"
#include "simnet/sim.h"
#include "storage/codec.h"
#include "storage/database.h"
#include "websvc/http.h"

namespace amnesia {
namespace {

/// Applies `count` random byte mutations (flip/insert/delete/truncate).
Bytes mutate(Bytes data, RandomSource& rng, int count) {
  for (int i = 0; i < count; ++i) {
    if (data.empty()) {
      data.push_back(static_cast<std::uint8_t>(rng.uniform(256)));
      continue;
    }
    switch (rng.uniform(4)) {
      case 0:  // flip a byte
        data[rng.uniform(data.size())] ^=
            static_cast<std::uint8_t>(1 + rng.uniform(255));
        break;
      case 1:  // insert a byte
        data.insert(data.begin() + static_cast<long>(rng.uniform(
                                       data.size() + 1)),
                    static_cast<std::uint8_t>(rng.uniform(256)));
        break;
      case 2:  // delete a byte
        data.erase(data.begin() + static_cast<long>(rng.uniform(data.size())));
        break;
      case 3:  // truncate
        data.resize(rng.uniform(data.size() + 1));
        break;
    }
  }
  return data;
}

class FuzzSweep : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSweep, HttpRequestParserNeverCrashes) {
  crypto::ChaChaDrbg rng(1000 + GetParam());
  websvc::Request req;
  req.method = websvc::Method::kPost;
  req.path = "/password/request";
  req.query = {{"a", "b"}};
  req.headers["Cookie"] = "session=abc";
  req.body = "username=Alice&domain=mail.google.com";
  const Bytes wire = websvc::serialize(req);

  for (int i = 0; i < 200; ++i) {
    const Bytes fuzzed = mutate(wire, rng, 1 + static_cast<int>(rng.uniform(6)));
    try {
      const auto parsed = websvc::parse_request(fuzzed);
      // Parsed OK: the invariants of a valid request must hold.
      EXPECT_FALSE(parsed.path.empty());
      EXPECT_EQ(parsed.path.front(), '/');
    } catch (const FormatError&) {
      // clean rejection
    } catch (const std::exception& e) {
      // std::stoul in Content-Length handling may throw library errors
      // only via FormatError; anything else is a bug.
      ADD_FAILURE() << "unexpected exception: " << e.what();
    }
  }
}

TEST_P(FuzzSweep, HttpResponseParserNeverCrashes) {
  crypto::ChaChaDrbg rng(2000 + GetParam());
  websvc::Response resp = websvc::Response::ok_form(
      {{"password", "p@ss"}, {"latency_ms", "785.3"}});
  const Bytes wire = websvc::serialize(resp);
  for (int i = 0; i < 200; ++i) {
    const Bytes fuzzed = mutate(wire, rng, 1 + static_cast<int>(rng.uniform(6)));
    try {
      const auto parsed = websvc::parse_response(fuzzed);
      EXPECT_GE(parsed.status, 100);
      EXPECT_LE(parsed.status, 599);
    } catch (const FormatError&) {
    }
  }
}

TEST_P(FuzzSweep, ProtocolMessagesRejectMutations) {
  crypto::ChaChaDrbg rng(3000 + GetParam());
  const core::PasswordRequestPush push{42, core::Request(rng.bytes(32)),
                                       "203.0.113.9", 123456, ""};
  const Bytes wire = push.encode();
  for (int i = 0; i < 300; ++i) {
    const Bytes fuzzed = mutate(wire, rng, 1 + static_cast<int>(rng.uniform(4)));
    // decode() must never throw — nullopt or a decoded value are the only
    // outcomes; if it decodes, the request id is whatever the bytes say.
    const auto decoded = core::PasswordRequestPush::decode(fuzzed);
    (void)decoded;
  }
}

TEST_P(FuzzSweep, StorageValueCodecRejectsOrParses) {
  crypto::ChaChaDrbg rng(4000 + GetParam());
  storage::BufWriter w;
  w.value(storage::Value("text value"));
  w.value(storage::Value(static_cast<std::int64_t>(42)));
  w.value(storage::Value(Bytes{1, 2, 3}));
  const Bytes wire = w.data();
  for (int i = 0; i < 300; ++i) {
    const Bytes fuzzed = mutate(wire, rng, 1 + static_cast<int>(rng.uniform(5)));
    try {
      storage::BufReader r(fuzzed);
      while (!r.done()) (void)r.value();
    } catch (const FormatError&) {
    }
  }
}

TEST_P(FuzzSweep, SecureChannelServerSurvivesGarbage) {
  crypto::ChaChaDrbg rng(5000 + GetParam());
  crypto::ChaChaDrbg srv_rng(1);
  securechan::SecureServer server(crypto::x25519_generate(srv_rng), srv_rng);
  obs::MetricsRegistry metrics;  // stats() reads it
  server.set_metrics(&metrics);
  server.set_handler([](const Bytes&, std::function<void(Bytes)> respond) {
    respond(to_bytes("should not leak"));
  });
  int responses = 0;
  for (int i = 0; i < 200; ++i) {
    const Bytes garbage = rng.bytes(rng.uniform(120));
    server.handle_wire(garbage, [&](Bytes) { ++responses; });
  }
  // Random bytes must never authenticate as a data record; at most they
  // can look like a client hello (first byte 0x01 with 48+ bytes), which
  // yields a handshake response but no handler invocation.
  EXPECT_EQ(server.stats().records_opened, 0u);
  EXPECT_GT(server.stats().records_rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range(0, 5));

TEST(RpcRobustness, RendezvousAndCloudRejectGarbage) {
  simnet::Simulation sim(42);
  simnet::Network net(sim);
  crypto::ChaChaDrbg rng(43);
  rendezvous::PushService gcm(net, "gcm", rng);
  obs::MetricsRegistry metrics;  // stats() reads it
  gcm.set_metrics(&metrics);
  cloud::BlobStoreService cloud_svc(net, "cloud");
  simnet::Node attacker(net, "attacker");

  int replies = 0;
  for (int i = 0; i < 60; ++i) {
    attacker.request("gcm", rng.bytes(rng.uniform(40)),
                     [&](Result<Bytes> r) { replies += r.ok() ? 1 : 0; });
    attacker.request("cloud", rng.bytes(rng.uniform(40)),
                     [&](Result<Bytes> r) { replies += r.ok() ? 1 : 0; });
  }
  sim.run();
  // Both services answer every RPC (with an error status) and neither
  // crashes nor registers anything.
  EXPECT_EQ(gcm.stats().registrations, 0u);
  EXPECT_EQ(cloud_svc.stats().signups, 0u);
}

TEST(DrbgStatistics, MonobitAndRunsLookRandom) {
  crypto::ChaChaDrbg rng(4242);
  const Bytes stream = rng.bytes(32768);
  // Monobit: ones fraction within 1% of half.
  std::int64_t ones = 0;
  for (const std::uint8_t byte : stream) ones += std::popcount(byte);
  const double total_bits = static_cast<double>(stream.size()) * 8;
  EXPECT_NEAR(ones / total_bits, 0.5, 0.01);

  // Byte-value chi-squared against uniform (255 dof; 400 is a lax bound
  // that a biased generator would blow through).
  std::array<int, 256> counts{};
  for (const std::uint8_t byte : stream) ++counts[byte];
  const double expected = static_cast<double>(stream.size()) / 256.0;
  double chi2 = 0;
  for (const int c : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  EXPECT_LT(chi2, 400.0);

  // Serial correlation between adjacent bytes is near zero.
  double sum_x = 0, sum_xx = 0, sum_xy = 0;
  for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
    const double x = stream[i], y = stream[i + 1];
    sum_x += x;
    sum_xx += x * x;
    sum_xy += x * y;
  }
  const double n = static_cast<double>(stream.size() - 1);
  const double mean = sum_x / n;
  const double corr =
      (sum_xy / n - mean * mean) / (sum_xx / n - mean * mean);
  EXPECT_NEAR(corr, 0.0, 0.02);
}

TEST(DatabaseFuzz, RandomJournalBytesNeverCorruptState) {
  // Appending random bytes to a journal must at worst discard the tail.
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "amnesia_fuzz_journal";
  fs::create_directories(dir);
  const std::string path = (dir / "db").string();
  {
    storage::Database db(path);
    db.create_table(
        "t", storage::Schema{.columns = {{"k", storage::ValueType::kText}},
                             .primary_key = 0});
    db.insert("t", {storage::Value("stable-row")});
  }
  crypto::ChaChaDrbg rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    {
      std::ofstream out(path + ".journal",
                        std::ios::binary | std::ios::app);
      const Bytes junk = rng.bytes(1 + rng.uniform(64));
      out.write(reinterpret_cast<const char*>(junk.data()),
                static_cast<std::streamsize>(junk.size()));
    }
    storage::Database db(path);
    ASSERT_TRUE(db.has_table("t"));
    EXPECT_TRUE(db.table("t").contains(storage::Value("stable-row")));
    db.checkpoint();  // clean the journal for the next trial
    db.insert("t", {storage::Value("row-" + std::to_string(trial))});
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace amnesia
