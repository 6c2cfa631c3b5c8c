// HMAC (RFC 4231), HKDF (RFC 5869), PBKDF2 (RFC 7914 section 11 /
// well-known SHA-256 vectors), and the master-password record format.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "common/error.h"
#include "crypto/crypto_metrics.h"
#include "crypto/drbg.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "crypto/password_hash.h"
#include "crypto/pbkdf2.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"

namespace amnesia::crypto {
namespace {

TEST(HmacSha256Test, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hex_encode(hmac_sha256(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256Test, Rfc4231Case2) {
  EXPECT_EQ(hex_encode(hmac_sha256(to_bytes("Jefe"),
                                   to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256Test, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(hex_encode(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256Test, Rfc4231Case6LongKey) {
  // Key longer than the block size must be hashed first.
  const Bytes key(131, 0xaa);
  EXPECT_EQ(hex_encode(hmac_sha256(
                key, to_bytes("Test Using Larger Than Block-Size Key - Hash "
                              "Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha512Test, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hex_encode(hmac_sha512(key, to_bytes("Hi There"))),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde"
            "daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854");
}

TEST(HmacSha512Test, Rfc4231Case2) {
  EXPECT_EQ(hex_encode(hmac_sha512(to_bytes("Jefe"),
                                   to_bytes("what do ya want for nothing?"))),
            "164b7a7bfcf819e2e395fbe73b56e0a387bd64222e831fd610270cd7ea250554"
            "9758bf75c05a994a6d034f65f8f0e6fdcaeab1a34d4a6b4b636e070a38bce737");
}

TEST(HmacStreaming, ResetReusesKey) {
  HmacSha256 mac(to_bytes("key"));
  mac.update(to_bytes("message"));
  const Bytes first = mac.finish();
  mac.reset();
  mac.update(to_bytes("message"));
  EXPECT_EQ(mac.finish(), first);
}

TEST(HmacStreaming, IncrementalMatchesOneShot) {
  const Bytes key = to_bytes("secret-key");
  HmacSha256 mac(key);
  mac.update(to_bytes("part one|"));
  mac.update(to_bytes("part two"));
  EXPECT_EQ(mac.finish(), hmac_sha256(key, to_bytes("part one|part two")));
}

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = hex_decode("000102030405060708090a0b0c");
  const Bytes info = hex_decode("f0f1f2f3f4f5f6f7f8f9");
  const Bytes prk = hkdf_extract(salt, ikm);
  EXPECT_EQ(hex_encode(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  const Bytes okm = hkdf_expand(prk, info, 42);
  EXPECT_EQ(hex_encode(okm),
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case2LongInputs) {
  Bytes ikm, salt, info;
  for (int i = 0x00; i <= 0x4f; ++i) ikm.push_back(static_cast<std::uint8_t>(i));
  for (int i = 0x60; i <= 0xaf; ++i) salt.push_back(static_cast<std::uint8_t>(i));
  for (int i = 0xb0; i <= 0xff; ++i) info.push_back(static_cast<std::uint8_t>(i));
  const Bytes okm = hkdf(salt, ikm, info, 82);
  EXPECT_EQ(hex_encode(okm),
            "b11e398dc80327a1c8e7f78c596a4934"
            "4f012eda2d4efad8a050cc4c19afa97c"
            "59045a99cac7827271cb41c65e590e09"
            "da3275600c2f09b8367793a9aca3db71"
            "cc30c58179ec3e87c14c01d5c1f3434f"
            "1d87");
}

TEST(Hkdf, Rfc5869Case3EmptySaltAndInfo) {
  const Bytes ikm(22, 0x0b);
  const Bytes okm = hkdf({}, ikm, {}, 42);
  EXPECT_EQ(hex_encode(okm),
            "8da4e775a563c18f715f802a063c5a31"
            "b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(HmacSha256Test, Rfc4231Case4CompositeKey) {
  Bytes key;
  for (int i = 1; i <= 25; ++i) key.push_back(static_cast<std::uint8_t>(i));
  const Bytes data(50, 0xcd);
  EXPECT_EQ(hex_encode(hmac_sha256(key, data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacSha512Test, Rfc4231Case3RepeatedBytes) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(hex_encode(hmac_sha512(key, data)),
            "fa73b0089d56a284efb0f0756c890be9b1b5dbdd8ee81a3655f83e33b2279d39"
            "bf3e848279a722c806b485a47e67c807b946a337bee8942674278859e13292fb");
}

TEST(Hkdf, ExpandRejectsOversizedRequest) {
  const Bytes prk(32, 0x42);
  EXPECT_THROW(hkdf_expand(prk, {}, 255 * 32 + 1), CryptoError);
}

TEST(Hkdf, DistinctInfoYieldsDistinctKeys) {
  const Bytes ikm(32, 0x17);
  EXPECT_NE(hkdf({}, ikm, to_bytes("client->server"), 32),
            hkdf({}, ikm, to_bytes("server->client"), 32));
}

TEST(Pbkdf2, KnownVectorOneIteration) {
  EXPECT_EQ(hex_encode(pbkdf2_hmac_sha256(to_bytes("password"),
                                          to_bytes("salt"), 1, 32)),
            "120fb6cffcf8b32c43e7225256c4f837a86548c92ccc35480805987cb70be17b");
}

TEST(Pbkdf2, KnownVectorTwoIterations) {
  EXPECT_EQ(hex_encode(pbkdf2_hmac_sha256(to_bytes("password"),
                                          to_bytes("salt"), 2, 32)),
            "ae4d0c95af6b46d32d0adff928f06dd02a303f8ef3c251dfd6e2d85a95474c43");
}

TEST(Pbkdf2, KnownVector4096Iterations) {
  EXPECT_EQ(hex_encode(pbkdf2_hmac_sha256(to_bytes("password"),
                                          to_bytes("salt"), 4096, 32)),
            "c5e478d59288c841aa530db6845c4c8d962893a001ce4e11a4963873aa98134a");
}

TEST(Pbkdf2, LongInputsMultiBlockOutput) {
  EXPECT_EQ(
      hex_encode(pbkdf2_hmac_sha256(
          to_bytes("passwordPASSWORDpassword"),
          to_bytes("saltSALTsaltSALTsaltSALTsaltSALTsalt"), 4096, 40)),
      "348c89dbcbd32b2f32d814b8116e84cf2b17347ebc1800181c4e2a1fb8dd53e1"
      "c635518c7dac47e9");
}

// RFC 7914 section 11: 64-byte outputs, so both output blocks run the
// iteration loop.
TEST(Pbkdf2, Rfc7914Vector1Iteration64Bytes) {
  EXPECT_EQ(hex_encode(pbkdf2_hmac_sha256(to_bytes("passwd"),
                                          to_bytes("salt"), 1, 64)),
            "55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc"
            "49ca9cccf179b645991664b39d77ef317c71b845b1e30bd509112041d3a19783");
}

TEST(Pbkdf2, Rfc7914Vector80000Iterations64Bytes) {
  EXPECT_EQ(hex_encode(pbkdf2_hmac_sha256(to_bytes("Password"),
                                          to_bytes("NaCl"), 80'000, 64)),
            "4ddcd8f60b98be21830cee5ef22701f9641a4418d04c0414aeff08876b34ab56"
            "a1d425a1225833549adb841b51c9b3176a272bdebba1d078478f62b397f33c8d");
}

TEST(Pbkdf2, ZeroIterationsThrows) {
  EXPECT_THROW(pbkdf2_hmac_sha256(to_bytes("p"), to_bytes("s"), 0, 32),
               CryptoError);
}

// ---------------------------------------------------------------------
// Property tests: the midstate-cached fast paths against naive textbook
// reference implementations (RFC 2104 / RFC 2898 written out with plain
// one-shot hashes). Any divergence in pad handling, midstate restore, or
// block chaining shows up here before it could corrupt a derived key.

Bytes naive_hmac_sha256(ByteView key, ByteView msg) {
  constexpr std::size_t kBlock = 64;
  Bytes k(key.begin(), key.end());
  if (k.size() > kBlock) k = sha256(k);
  k.resize(kBlock, 0x00);
  Bytes ipad = k;
  Bytes opad = k;
  for (auto& b : ipad) b ^= 0x36;
  for (auto& b : opad) b ^= 0x5c;
  return sha256(concat({opad, sha256(concat({ipad, msg}))}));
}

Bytes naive_hmac_sha512(ByteView key, ByteView msg) {
  constexpr std::size_t kBlock = 128;
  Bytes k(key.begin(), key.end());
  if (k.size() > kBlock) k = sha512(k);
  k.resize(kBlock, 0x00);
  Bytes ipad = k;
  Bytes opad = k;
  for (auto& b : ipad) b ^= 0x36;
  for (auto& b : opad) b ^= 0x5c;
  return sha512(concat({opad, sha512(concat({ipad, msg}))}));
}

Bytes naive_pbkdf2_sha256(ByteView password, ByteView salt,
                          std::uint32_t iterations, std::size_t dk_len) {
  Bytes dk;
  for (std::uint32_t block = 1; dk.size() < dk_len; ++block) {
    const Bytes be{static_cast<std::uint8_t>(block >> 24),
                   static_cast<std::uint8_t>(block >> 16),
                   static_cast<std::uint8_t>(block >> 8),
                   static_cast<std::uint8_t>(block)};
    Bytes u = naive_hmac_sha256(password, concat({salt, be}));
    Bytes t = u;
    for (std::uint32_t i = 1; i < iterations; ++i) {
      u = naive_hmac_sha256(password, u);
      for (std::size_t j = 0; j < t.size(); ++j) t[j] ^= u[j];
    }
    append(dk, t);
  }
  dk.resize(dk_len);
  return dk;
}

TEST(HmacProperty, FastPathMatchesNaiveReference) {
  ChaChaDrbg rng(2026);
  for (int trial = 0; trial < 300; ++trial) {
    // Key lengths straddle the block size (64/128) and the hashed-key
    // path; message lengths straddle block boundaries.
    const Bytes key = rng.bytes(rng.uniform(200));
    const Bytes msg = rng.bytes(rng.uniform(300));
    EXPECT_EQ(hmac_sha256(key, msg), naive_hmac_sha256(key, msg))
        << "key_len=" << key.size() << " msg_len=" << msg.size();
    EXPECT_EQ(hmac_sha512(key, msg), naive_hmac_sha512(key, msg))
        << "key_len=" << key.size() << " msg_len=" << msg.size();
  }
}

TEST(HmacProperty, FinishIntoMatchesFinish) {
  ChaChaDrbg rng(2027);
  for (int trial = 0; trial < 50; ++trial) {
    const Bytes key = rng.bytes(rng.uniform(100));
    const Bytes msg = rng.bytes(rng.uniform(200));
    HmacSha256 mac(key);
    mac.update(msg);
    std::array<std::uint8_t, 32> out{};
    mac.finish_into(out.data());
    EXPECT_EQ(Bytes(out.begin(), out.end()), hmac_sha256(key, msg));
  }
}

TEST(HmacProperty, ResetAfterFinishIntoReusesKeySchedule) {
  const Bytes key = to_bytes("schedule-reuse-key");
  HmacSha256 mac(key);
  std::array<std::uint8_t, 32> a{}, b{};
  mac.update(to_bytes("first"));
  mac.finish_into(a.data());
  mac.reset();
  mac.update(to_bytes("second"));
  mac.finish_into(b.data());
  EXPECT_EQ(Bytes(a.begin(), a.end()), hmac_sha256(key, to_bytes("first")));
  EXPECT_EQ(Bytes(b.begin(), b.end()), hmac_sha256(key, to_bytes("second")));
}

TEST(Pbkdf2Metrics, ReportsCallsAndIterationsToWiredRegistry) {
  obs::MetricsRegistry registry;
  set_crypto_metrics(&registry);
  pbkdf2_hmac_sha256(to_bytes("mp"), to_bytes("salt"), 7, 32);
  pbkdf2_hmac_sha256(to_bytes("mp"), to_bytes("salt"), 3, 64);  // 2 blocks
  detach_crypto_metrics(&registry);
  EXPECT_EQ(registry.counter("crypto.pbkdf2_calls").value(), 2u);
  EXPECT_EQ(registry.counter("crypto.pbkdf2_iterations").value(),
            7u + 2 * 3u);
  // Detached: further derivations must not touch the registry.
  pbkdf2_hmac_sha256(to_bytes("mp"), to_bytes("salt"), 5, 32);
  EXPECT_EQ(registry.counter("crypto.pbkdf2_calls").value(), 2u);
}

TEST(Pbkdf2Metrics, DetachIgnoresForeignRegistry) {
  obs::MetricsRegistry wired, other;
  set_crypto_metrics(&wired);
  detach_crypto_metrics(&other);  // must not unhook `wired`
  pbkdf2_hmac_sha256(to_bytes("mp"), to_bytes("salt"), 2, 32);
  detach_crypto_metrics(&wired);
  EXPECT_EQ(wired.counter("crypto.pbkdf2_calls").value(), 1u);
}

TEST(Pbkdf2Property, FastPathMatchesNaiveReference) {
  ChaChaDrbg rng(2028);
  for (int trial = 0; trial < 40; ++trial) {
    const Bytes password = rng.bytes(rng.uniform(80));
    const Bytes salt = rng.bytes(rng.uniform(40));
    const auto iterations = static_cast<std::uint32_t>(1 + rng.uniform(40));
    // Up to 2.5 hash blocks so multi-block output chaining is exercised.
    const std::size_t dk_len = 1 + rng.uniform(80);
    EXPECT_EQ(pbkdf2_hmac_sha256(password, salt, iterations, dk_len),
              naive_pbkdf2_sha256(password, salt, iterations, dk_len))
        << "pw_len=" << password.size() << " salt_len=" << salt.size()
        << " iters=" << iterations << " dk_len=" << dk_len;
  }
}

TEST(PasswordHasherTest, HashAndVerifyRoundTrip) {
  ChaChaDrbg rng(11);
  PasswordHasher hasher({.iterations = 10});
  const auto record = hasher.hash(to_bytes("correct horse battery"), rng);
  EXPECT_TRUE(PasswordHasher::verify(to_bytes("correct horse battery"), record));
  EXPECT_FALSE(PasswordHasher::verify(to_bytes("correct horse batterz"), record));
  EXPECT_FALSE(PasswordHasher::verify(to_bytes(""), record));
}

TEST(PasswordHasherTest, DistinctSaltsForSamePassword) {
  ChaChaDrbg rng(12);
  PasswordHasher hasher({.iterations = 2});
  const auto r1 = hasher.hash(to_bytes("mp"), rng);
  const auto r2 = hasher.hash(to_bytes("mp"), rng);
  EXPECT_NE(r1.salt, r2.salt);
  EXPECT_NE(r1.hash, r2.hash);
}

TEST(PasswordHasherTest, LegacySchemeMatchesPaperConstruction) {
  ChaChaDrbg rng(13);
  PasswordHasher hasher(
      {.scheme = HashScheme::kLegacySaltedSha256, .iterations = 1});
  const auto record = hasher.hash(to_bytes("masterpw"), rng);
  // The paper's H(MP + salt): one SHA-256 over the concatenation.
  const Bytes expected = sha256(concat({to_bytes("masterpw"), record.salt}));
  EXPECT_EQ(record.hash, expected);
  EXPECT_TRUE(PasswordHasher::verify(to_bytes("masterpw"), record));
}

TEST(PasswordHasherTest, RecordEncodeDecodeRoundTrip) {
  ChaChaDrbg rng(14);
  PasswordHasher hasher({.iterations = 3});
  const auto record = hasher.hash(to_bytes("s3cret"), rng);
  const auto decoded = PasswordRecord::decode(record.encode());
  EXPECT_EQ(decoded.scheme, record.scheme);
  EXPECT_EQ(decoded.iterations, record.iterations);
  EXPECT_EQ(decoded.salt, record.salt);
  EXPECT_EQ(decoded.hash, record.hash);
  EXPECT_TRUE(PasswordHasher::verify(to_bytes("s3cret"), decoded));
}

TEST(PasswordHasherTest, DecodeRejectsMalformedRecords) {
  EXPECT_THROW(PasswordRecord::decode("2$10"), FormatError);
  EXPECT_THROW(PasswordRecord::decode("x$1$aa$bb"), FormatError);
  EXPECT_THROW(PasswordRecord::decode("9$1$aa$bb"), FormatError);
  EXPECT_THROW(PasswordRecord::decode("2$1$zz$bb"), FormatError);
  // An empty hash would verify any secret; zero PBKDF2 iterations cannot
  // be computed. Both are malformed on disk and in replicated applies.
  EXPECT_THROW(
      PasswordRecord::decode("2$10000$000102030405060708090a0b0c0d0e0f$"),
      FormatError);
  EXPECT_THROW(PasswordRecord::decode("1$1$00$"), FormatError);
  EXPECT_THROW(PasswordRecord::decode("2$0$aa$bb"), FormatError);
}

TEST(PasswordHasherTest, VerifyFailsClosedOnEmptyHash) {
  const PasswordRecord pbkdf2{HashScheme::kPbkdf2Sha256, 10, Bytes(16, 0x5a),
                              {}};
  const PasswordRecord legacy{HashScheme::kLegacySaltedSha256, 1,
                              Bytes(1, 0x00), {}};
  for (const char* secret : {"", "correct horse battery", "anything"}) {
    EXPECT_FALSE(PasswordHasher::verify(to_bytes(secret), pbkdf2)) << secret;
    EXPECT_FALSE(PasswordHasher::verify(to_bytes(secret), legacy)) << secret;
  }
}

TEST(DrbgTest, DeterministicForSameSeed) {
  ChaChaDrbg a(1234), b(1234);
  EXPECT_EQ(a.bytes(100), b.bytes(100));
}

TEST(DrbgTest, DifferentSeedsDiverge) {
  ChaChaDrbg a(1), b(2);
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(DrbgTest, ReseedChangesStream) {
  ChaChaDrbg a(1), b(1);
  b.reseed(to_bytes("extra entropy"));
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(DrbgTest, SeedMustBe32Bytes) {
  EXPECT_THROW(ChaChaDrbg(Bytes(16, 0)), CryptoError);
}

TEST(DrbgTest, LargeRequestsSpanRefills) {
  ChaChaDrbg a(99);
  ChaChaDrbg b(99);
  const Bytes big = a.bytes(3000);  // several pool refills
  Bytes stitched;
  while (stitched.size() < 3000) append(stitched, b.bytes(17));
  stitched.resize(3000);
  EXPECT_EQ(big, stitched);
}

TEST(SystemRandomTest, ProducesDistinctOutput) {
  auto& rng = system_random();
  EXPECT_NE(rng.bytes(32), rng.bytes(32));
}

}  // namespace
}  // namespace amnesia::crypto
