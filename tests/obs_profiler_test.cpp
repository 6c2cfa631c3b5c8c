// Sampling profiler: collapsed-stack codec, per-thread ring capture,
// window/thread filters, concurrent scrape safety (the TSan target), a
// storage-churn signal-safety smoke, and the live sharded-TCP
// GET /profile scrape under login load — the deployment-shaped
// acceptance path (per-shard thread filtering merged by the router with
// obs::merge_collapsed, like /metrics).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "client/browser.h"
#include "crypto/drbg.h"
#include "eval/deployment.h"
#include "eval/testbed.h"
#include "net/event_loop.h"
#include "net/rpc.h"
#include "net/tcp.h"
#include "obs/profiler.h"
#include "securechan/channel.h"
#include "storage/database.h"
#include "storage/table.h"
#include "storage/value.h"
#include "websvc/client.h"
#include "websvc/http.h"

namespace amnesia {

// External linkage on purpose: -rdynamic (CMAKE_ENABLE_EXPORTS) exports
// it, so dladdr can name the frame — an anonymous-namespace function
// would symbolize as module+offset only.
__attribute__((noinline)) std::uint64_t obs_profiler_test_burn(
    std::uint64_t iters) {
  volatile std::uint64_t acc = 1;
  for (std::uint64_t i = 0; i < iters; ++i) {
    acc = acc * 6364136223846793005ull + 1442695040888963407ull;
  }
  return acc;
}

namespace {

using obs::CollapsedLine;
using obs::Profiler;

constexpr const char kHeader[] = "# amnesia profile v1";

/// Burns CPU on the calling thread until the process-wide sample count
/// grows by `want` (or a wall-clock deadline passes — the caller asserts
/// on the profile content, not on this).
void burn_until_samples(std::uint64_t want) {
  const std::uint64_t start = Profiler::instance().samples_captured();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (Profiler::instance().samples_captured() < start + want &&
         std::chrono::steady_clock::now() < deadline) {
    obs_profiler_test_burn(200'000);
  }
}

// ------------------------------------------------ collapsed-text codec

TEST(CollapsedCodec, ParseSkipsHeaderAndMalformedLines) {
  const std::string text = std::string(kHeader) +
                           "\n"
                           "main;f;g 3\n"
                           "no-count-line\n"
                           "bad;count x7\n"
                           "zero;count 0\n"
                           " 5\n"
                           "main;h 1\n";
  const auto lines = obs::parse_collapsed(text);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], (CollapsedLine{"main;f;g", 3}));
  EXPECT_EQ(lines[1], (CollapsedLine{"main;h", 1}));
}

TEST(CollapsedCodec, MergeSumsIdenticalStacksDeterministically) {
  const std::string a = std::string(kHeader) + "\nr0;f;g 3\nr0;f 1\n";
  const std::string b = std::string(kHeader) + "\nr1;f 5\nr0;f;g 4\n";
  const std::string merged = obs::merge_collapsed({a, b, ""});
  // 7 beats 5 beats 1; ties would break on stack text ascending.
  EXPECT_EQ(merged, std::string(kHeader) + "\nr0;f;g 7\nr1;f 5\nr0;f 1\n");
  // Merging is associative over scrape legs: ((a+b)+empty) == (a+b).
  EXPECT_EQ(obs::merge_collapsed({merged}), merged);
}

TEST(CollapsedCodec, TopReturnsHottestStacks) {
  const std::string text =
      std::string(kHeader) + "\na;x 2\nb;y 9\nc;z 5\n";
  const auto top = obs::top_collapsed(text, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], (CollapsedLine{"b;y", 9}));
  EXPECT_EQ(top[1], (CollapsedLine{"c;z", 5}));
  EXPECT_TRUE(obs::top_collapsed("", 4).empty());
}

// ------------------------------------------------------- ring capture

TEST(ObsProfiler, SupportedOnLinuxGlibc) {
#if defined(__linux__)
  EXPECT_TRUE(Profiler::supported());
#else
  EXPECT_EQ(Profiler::instance().collapsed(), std::string(kHeader) + "\n");
#endif
}

TEST(ObsProfiler, CapturesSamplesFromABusyThread) {
  if (!Profiler::supported()) GTEST_SKIP() << "no profiler on this platform";
  Profiler::instance().clear();
  Profiler::instance().start(500);  // 2 kHz so the burn stays short
  burn_until_samples(20);
  Profiler::instance().stop();
  const std::string profile = Profiler::instance().collapsed();
  ASSERT_TRUE(profile.starts_with(kHeader));
  const auto lines = obs::parse_collapsed(profile);
  ASSERT_FALSE(lines.empty()) << profile;
  // This thread registered implicitly as "main" at start().
  bool main_stack = false;
  for (const auto& line : lines) {
    if (line.stack.starts_with("main;")) main_stack = true;
  }
  EXPECT_TRUE(main_stack) << profile;
}

TEST(ObsProfiler, ThreadFilterSelectsOneRing) {
  if (!Profiler::supported()) GTEST_SKIP() << "no profiler on this platform";
  Profiler::instance().clear();
  Profiler::instance().start(500);
  std::atomic<bool> go{true};
  std::thread worker([&] {
    Profiler::instance().register_thread("worker-7");
    while (go.load(std::memory_order_relaxed)) obs_profiler_test_burn(50'000);
    Profiler::instance().unregister_thread();
  });
  burn_until_samples(60);  // both threads armed and burning
  go.store(false, std::memory_order_relaxed);
  worker.join();
  Profiler::instance().stop();

  const auto worker_only =
      obs::parse_collapsed(Profiler::instance().collapsed(0, "worker-7"));
  ASSERT_FALSE(worker_only.empty());
  for (const auto& line : worker_only) {
    EXPECT_TRUE(line.stack.starts_with("worker-7;")) << line.stack;
  }
  // A filter naming no ring yields a well-formed empty profile.
  EXPECT_EQ(Profiler::instance().collapsed(0, "no-such-thread"),
            std::string(kHeader) + "\n");
}

TEST(ObsProfiler, WindowFilterDropsOldSamples) {
  if (!Profiler::supported()) GTEST_SKIP() << "no profiler on this platform";
  Profiler::instance().clear();
  Profiler::instance().start(500);
  burn_until_samples(10);
  Profiler::instance().stop();  // nothing lands after this
  ASSERT_FALSE(obs::parse_collapsed(Profiler::instance().collapsed()).empty());
  // Everything retained is now older than the sleep; a 1 ms window on
  // the other side of it must exclude every sample.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(Profiler::instance().collapsed(1'000),
            std::string(kHeader) + "\n");
  // A generous window still sees them.
  EXPECT_FALSE(
      obs::parse_collapsed(Profiler::instance().collapsed(60'000'000))
          .empty());
}

TEST(ObsProfiler, ConcurrentScrapesDuringLoadAreSafe) {
  if (!Profiler::supported()) GTEST_SKIP() << "no profiler on this platform";
  Profiler::instance().clear();
  Profiler::instance().start(500);
  std::atomic<bool> go{true};
  std::vector<std::thread> burners;
  for (int i = 0; i < 2; ++i) {
    burners.emplace_back([&go, i] {
      Profiler::instance().register_thread("burner-" + std::to_string(i));
      while (go.load(std::memory_order_relaxed)) {
        obs_profiler_test_burn(50'000);
      }
      Profiler::instance().unregister_thread();
    });
  }
  // Scrape concurrently with capture: the ring protocol (release head,
  // torn-slot re-check) is what TSan vets here.
  for (int i = 0; i < 20; ++i) {
    const std::string profile = Profiler::instance().collapsed(1'000'000);
    EXPECT_TRUE(profile.starts_with(kHeader));
  }
  go.store(false, std::memory_order_relaxed);
  for (auto& t : burners) t.join();
  Profiler::instance().stop();
}

// -------------------------------------------- storage signal-safety smoke

TEST(ObsProfiler, ArmedDuringStorageChurn) {
  if (!Profiler::supported()) GTEST_SKIP() << "no profiler on this platform";
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "obs_profiler_storage_smoke";
  fs::create_directories(dir);
  Profiler::instance().clear();
  Profiler::instance().start(250);  // 4 kHz: land SIGPROF mid-syscall
  {
    storage::Database db((dir / "db").string());
    db.create_table(
        "t", storage::Schema{.columns = {{"k", storage::ValueType::kInt},
                                         {"v", storage::ValueType::kText}},
                             .primary_key = 0});
    // Journal appends, checkpoints, and reads with SA_RESTART-armed
    // SIGPROF arriving throughout; any EINTR leak or handler
    // non-reentrancy shows up as a throw or corrupt read here.
    for (std::int64_t i = 0; i < 400; ++i) {
      db.upsert("t", storage::Row{storage::Value(i % 37),
                                  storage::Value(std::string(100, 'x'))});
      if (i % 64 == 0) db.checkpoint();
    }
    EXPECT_EQ(db.table("t").size(), 37u);
  }
  Profiler::instance().stop();
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// ------------------------------------------- live sharded TCP /profile

TEST(ObsProfilerShardedTcp, MergedProfileNamesCryptoWork) {
  if (!Profiler::supported()) GTEST_SKIP() << "no profiler on this platform";
  Profiler::instance().clear();
  eval::DeploymentConfig config;
  config.shards = 2;
  config.transport = eval::Transport::kTcp;
  config.base.seed = 211;
  eval::Deployment st(config);
  eval::Testbed& owner = st.world_of("alice");
  ASSERT_TRUE(owner.provision("alice", "correct horse").ok());
  ASSERT_TRUE(owner.add_account("acct", "alice.example.com").ok());
  st.start();
  // The testbed armed the default 500 Hz; re-arm faster so a few dozen
  // login rounds are enough signal.
  Profiler::instance().start(250);

  net::EventLoop loop;
  net::TcpTransport dial(loop, "127.0.0.1", st.port());
  net::RpcClient rpc(dial, 30'000'000);
  crypto::ChaChaDrbg rng(7);
  client::Browser browser(rpc.wire(), st.public_key(), rng, "tcp-client");

  // The operator's scrape rides its own connection and secure channel,
  // like any monitoring agent would.
  net::TcpTransport ops_dial(loop, "127.0.0.1", st.port());
  net::RpcClient ops_rpc(ops_dial, 30'000'000);
  securechan::SecureClient ops_chan(ops_rpc.wire(), st.public_key(), rng);
  websvc::HttpClient ops_http(
      [&ops_chan](Bytes wire, std::function<void(Result<Bytes>)> cb) {
        ops_chan.request(std::move(wire), std::move(cb));
      });

  const auto await = [&](auto start_op) {
    bool fired = false;
    start_op([&fired] { fired = true; });
    const Micros deadline = loop.clock().now_us() + 60'000'000;
    while (!fired) {
      ASSERT_LT(loop.clock().now_us(), deadline) << "TCP flow stalled";
      loop.poll(20'000);
    }
  };

  bool ok = false;
  await([&](auto done) {
    browser.login("alice", "correct horse", [&, done](Status s) {
      ok = s.ok();
      done();
    });
  });
  ASSERT_TRUE(ok) << "login over sharded TCP";

  // Login load until the reactors have accumulated real crypto CPU:
  // every round is a fresh ChaCha20-Poly1305 seal/open plus the phone's
  // token HMAC, all on reactor threads.
  std::string merged;
  bool named_crypto = false;
  const Micros scrape_deadline = loop.clock().now_us() + 90'000'000;
  while (!named_crypto && loop.clock().now_us() < scrape_deadline) {
    Result<std::string> password(Err::kUnavailable, "pending");
    await([&](auto done) {
      browser.request_password("acct", "alice.example.com",
                               [&, done](Result<std::string> r) {
                                 password = std::move(r);
                                 done();
                               });
    });
    ASSERT_TRUE(password.ok());

    // The operator-visible scrape: GET /profile?ms=N through the secure
    // channel; the router merges both shards' thread-filtered legs.
    Result<websvc::Response> scrape(Err::kUnavailable, "pending");
    await([&](auto done) {
      ops_http.get("/profile?ms=60000",
                   [&, done](Result<websvc::Response> r) {
                     scrape = std::move(r);
                     done();
                   });
    });
    ASSERT_TRUE(scrape.ok());
    ASSERT_EQ(scrape.value().status, 200);
    merged = scrape.value().body;
    ASSERT_TRUE(merged.starts_with(kHeader));
    for (const auto& line : obs::parse_collapsed(merged)) {
      EXPECT_TRUE(line.stack.starts_with("reactor-"))
          << "per-shard filtering must keep only reactor rings: "
          << line.stack;
      if (line.stack.find("crypto") != std::string::npos ||
          line.stack.find("securechan") != std::string::npos ||
          line.stack.find("Chacha") != std::string::npos ||
          line.stack.find("chacha") != std::string::npos ||
          line.stack.find("Sha256") != std::string::npos) {
        named_crypto = true;
      }
    }
  }
  EXPECT_TRUE(named_crypto)
      << "merged profile never named a crypto/securechan frame:\n"
      << merged;

  rpc.close();
  ops_rpc.close();
  st.stop();
}

}  // namespace
}  // namespace amnesia
