// Microbenchmarks of the cryptographic substrate and the core protocol
// operations (google-benchmark). Not a paper artifact per se, but the
// numbers ground the latency model: token generation and password
// computation are microseconds — the measured 785/979 ms of Fig. 3 is
// network and rendezvous time, as the paper argues.
//
// Besides the console table, the binary writes BENCH_crypto_primitives.json
// (ns/op, MB/s, items/s per benchmark) into the current directory so later
// PRs can diff crypto performance against this baseline. tools/run_benches.sh
// builds and runs it from the repo root.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/generate.h"
#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/pbkdf2.h"
#include "crypto/sha256.h"
#include "crypto/sha256_compress.h"
#include "crypto/sha512.h"
#include "crypto/x25519.h"
#include "securechan/channel.h"

using namespace amnesia;

namespace {

Bytes test_bytes(std::size_t n, std::uint64_t seed = 1) {
  crypto::ChaChaDrbg rng(seed);
  return rng.bytes(n);
}

void BM_Sha256(benchmark::State& state) {
  const Bytes data = test_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

// One block compression per backend, chained through the state as
// PBKDF2 chains its compressions. Sha256 runs the SHA-NI row wherever the
// CPU has it, so the portable row is what keeps the fallback gated.
void BM_Sha256Compress(benchmark::State& state,
                       crypto::detail::Sha256Compress compress) {
  if (compress == nullptr) {
    state.SkipWithError("CPU lacks SHA-NI");
    return;
  }
  const Bytes block = test_bytes(crypto::Sha256::kBlockSize);
  crypto::detail::Sha256State s{};
  for (auto _ : state) {
    compress(s, block.data());
    benchmark::DoNotOptimize(s.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.size()));
}
BENCHMARK_CAPTURE(BM_Sha256Compress, portable,
                  &crypto::detail::sha256_compress_portable);
BENCHMARK_CAPTURE(BM_Sha256Compress, shani,
                  crypto::detail::sha256_shani_backend());

void BM_Sha512(benchmark::State& state) {
  const Bytes data = test_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha512(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha512)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key = test_bytes(32);
  const Bytes data = test_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);

// The midstate fast path PBKDF2 and the guessing-attack benches sit on:
// one key schedule, then reset()+finish_into() per message.
void BM_HmacSha256Reset(benchmark::State& state) {
  const Bytes key = test_bytes(32);
  std::array<std::uint8_t, 32> digest{};
  crypto::HmacSha256 mac(key);
  for (auto _ : state) {
    mac.reset();
    mac.update(ByteView(digest.data(), digest.size()));
    mac.finish_into(digest.data());
    benchmark::DoNotOptimize(digest.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HmacSha256Reset);

void BM_Pbkdf2_10k(benchmark::State& state) {
  const Bytes password = to_bytes("master password");
  const Bytes salt = test_bytes(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::pbkdf2_hmac_sha256(password, salt, 10'000, 32));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Pbkdf2_10k);

void BM_ChaCha20Xor(benchmark::State& state) {
  const Bytes key = test_bytes(32);
  const Bytes nonce = test_bytes(12, 2);
  Bytes data = test_bytes(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    crypto::ChaCha20 cipher(key, nonce, 1);
    cipher.xor_stream(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChaCha20Xor)->Arg(256)->Arg(4096)->Arg(16384);

void BM_AeadSeal(benchmark::State& state) {
  const Bytes key = test_bytes(32);
  const Bytes nonce = test_bytes(12, 2);
  const Bytes aad = test_bytes(16, 3);
  const Bytes msg = test_bytes(static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::aead_seal(key, nonce, aad, msg));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AeadSeal)->Arg(256)->Arg(4096);

void BM_AeadOpen(benchmark::State& state) {
  const Bytes key = test_bytes(32);
  const Bytes nonce = test_bytes(12, 2);
  const Bytes aad = test_bytes(16, 3);
  const Bytes msg = test_bytes(static_cast<std::size_t>(state.range(0)), 4);
  const Bytes sealed = crypto::aead_seal(key, nonce, aad, msg);
  Bytes opened;
  for (auto _ : state) {
    if (!crypto::aead_open_into(key, nonce, aad, sealed, opened)) {
      state.SkipWithError("aead_open_into failed");
      break;
    }
    benchmark::DoNotOptimize(opened.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AeadOpen)->Arg(256)->Arg(4096);

// Steady-state secure-channel record throughput: one seal + one open per
// item through the per-channel scratch-buffer path (what SecureClient /
// SecureServer do per request once the channel is warm).
void BM_SecureChannelRecord(benchmark::State& state) {
  crypto::ChaChaDrbg rng(10);
  const Bytes secret = rng.bytes(32);
  const Bytes client_nonce = rng.bytes(16);
  const Bytes server_nonce = rng.bytes(16);
  const auto keys =
      securechan::derive_keys(secret, client_nonce, server_nonce);
  const Bytes payload = rng.bytes(static_cast<std::size_t>(state.range(0)));
  const Bytes aad = rng.bytes(9);
  Bytes sealed, opened;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    securechan::seal_record_into(keys.client_to_server_key,
                                 keys.client_to_server_iv, seq, aad, payload,
                                 sealed);
    if (!securechan::open_record_into(keys.client_to_server_key,
                                      keys.client_to_server_iv, seq, aad,
                                      sealed, opened)) {
      state.SkipWithError("open_record_into failed");
      break;
    }
    ++seq;
    benchmark::DoNotOptimize(opened.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SecureChannelRecord)->Arg(256)->Arg(4096);

void BM_X25519(benchmark::State& state) {
  crypto::ChaChaDrbg rng(5);
  const auto kp = crypto::x25519_generate(rng);
  const auto peer = crypto::x25519_generate(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::x25519(kp.private_key, peer.public_key));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_X25519);

void BM_MakeRequest(benchmark::State& state) {
  crypto::ChaChaDrbg rng(6);
  const core::AccountId account{"Alice", "mail.google.com"};
  const auto seed = core::Seed::generate(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::make_request(account, seed));
  }
}
BENCHMARK(BM_MakeRequest);

void BM_GenerateToken(benchmark::State& state) {
  crypto::ChaChaDrbg rng(7);
  const auto table = core::EntryTable::generate(
      rng, static_cast<std::size_t>(state.range(0)));
  const core::Request request(rng.bytes(32));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::generate_token(request, table));
  }
}
BENCHMARK(BM_GenerateToken)->Arg(5000)->Arg(65536);

void BM_GeneratePassword(benchmark::State& state) {
  crypto::ChaChaDrbg rng(8);
  const core::Token token(rng.bytes(32));
  const auto oid = core::OnlineId::generate(rng);
  const auto seed = core::Seed::generate(rng);
  const core::PasswordPolicy policy{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::generate_password(token, oid, seed, policy));
  }
}
BENCHMARK(BM_GeneratePassword);

void BM_FullOfflinePipeline(benchmark::State& state) {
  crypto::ChaChaDrbg rng(9);
  const core::AccountId account{"Alice", "mail.google.com"};
  const auto seed = core::Seed::generate(rng);
  const auto oid = core::OnlineId::generate(rng);
  const auto table = core::EntryTable::generate(rng, 5000);
  const core::PasswordPolicy policy{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::end_to_end_password(account, seed, oid, table, policy));
  }
}
BENCHMARK(BM_FullOfflinePipeline);

// ---------------------------------------------------------------- artifact

struct ResultRow {
  std::string name;
  std::int64_t iterations = 0;
  double ns_per_op = 0;
  double bytes_per_second = -1;  // < 0: not measured
  double items_per_second = -1;
};

/// Console output as usual, plus capture of every run for the JSON
/// artifact written from main() after the suite completes.
class ArtifactReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      ResultRow row;
      row.name = run.benchmark_name();
      row.iterations = static_cast<std::int64_t>(run.iterations);
      row.ns_per_op = run.iterations > 0
                          ? run.real_accumulated_time /
                                static_cast<double>(run.iterations) * 1e9
                          : 0;
      const auto bytes = run.counters.find("bytes_per_second");
      if (bytes != run.counters.end()) row.bytes_per_second = bytes->second;
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) row.items_per_second = items->second;
      rows_.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<ResultRow>& rows() const { return rows_; }

 private:
  std::vector<ResultRow> rows_;
};

void write_artifact(const std::vector<ResultRow>& rows, const char* path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "{\n  \"bench\": \"crypto_primitives\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"iterations\": %lld, "
                  "\"ns_per_op\": %.2f",
                  r.name.c_str(), static_cast<long long>(r.iterations),
                  r.ns_per_op);
    out << buf;
    if (r.bytes_per_second >= 0) {
      std::snprintf(buf, sizeof(buf), ", \"mb_per_s\": %.3f",
                    r.bytes_per_second / (1024.0 * 1024.0));
      out << buf;
    }
    if (r.items_per_second >= 0) {
      std::snprintf(buf, sizeof(buf), ", \"items_per_s\": %.1f",
                    r.items_per_second);
      out << buf;
    }
    out << '}' << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ArtifactReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const char* path = "BENCH_crypto_primitives.json";
  write_artifact(reporter.rows(), path);
  std::printf("\nWrote %s (%zu benchmarks)\n", path, reporter.rows().size());
  return 0;
}
