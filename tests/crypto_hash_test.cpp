// SHA-256 / SHA-512 against FIPS 180-4 (NIST CAVP) vectors, plus
// streaming-interface behaviour and SHA-256 backend parity.
#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <string>

#include "common/bytes.h"
#include "common/error.h"
#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "crypto/sha256_compress.h"
#include "crypto/sha512.h"

namespace amnesia::crypto {
namespace {

std::string sha256_hex(std::string_view msg) {
  return hex_encode(sha256(to_bytes(msg)));
}

std::string sha512_hex(std::string_view msg) {
  return hex_encode(sha512(to_bytes(msg)));
}

TEST(Sha256, EmptyMessage) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, OneMillionA) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_encode(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  const std::string msg =
      "Amnesia generates the password on demand using both the master "
      "password and the secret information on the smartphone.";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(to_bytes(msg.substr(0, split)));
    h.update(to_bytes(msg.substr(split)));
    EXPECT_EQ(h.finish(), sha256(to_bytes(msg))) << "split=" << split;
  }
}

TEST(Sha256, BoundaryLengths) {
  // Exercise padding around the 55/56/64-byte block boundaries.
  // Digests cross-checked against NIST CAVP SHA256ShortMsg entries.
  EXPECT_EQ(sha256_hex(std::string(55, 'a')),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
  EXPECT_EQ(sha256_hex(std::string(56, 'a')),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
  EXPECT_EQ(sha256_hex(std::string(64, 'a')),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256, ReuseAfterFinishThrows) {
  Sha256 h;
  h.update(to_bytes("abc"));
  h.finish();
  EXPECT_THROW(h.update(to_bytes("x")), CryptoError);
  EXPECT_THROW(h.finish(), CryptoError);
}

TEST(Sha256, ResetRestoresInitialState) {
  Sha256 h;
  h.update(to_bytes("garbage"));
  h.reset();
  h.update(to_bytes("abc"));
  EXPECT_EQ(hex_encode(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, ConcatHelperEqualsManualConcat) {
  const Bytes a = to_bytes("user@");
  const Bytes b = to_bytes("mail.google.com");
  const Bytes c = hex_decode("ff4323ab");
  EXPECT_EQ(sha256_concat({a, b, c}), sha256(concat({a, b, c})));
}

TEST(Sha512, EmptyMessage) {
  EXPECT_EQ(sha512_hex(""),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, Abc) {
  EXPECT_EQ(sha512_hex("abc"),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlockMessage) {
  EXPECT_EQ(sha512_hex("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijkl"
                       "mnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqr"
                       "stu"),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, OneMillionA) {
  Sha512 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_encode(h.finish()),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
            "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b");
}

TEST(Sha512, StreamingMatchesOneShot) {
  const std::string msg(300, 'q');
  for (std::size_t split : {0u, 1u, 111u, 128u, 129u, 255u, 300u}) {
    Sha512 h;
    h.update(to_bytes(msg.substr(0, split)));
    h.update(to_bytes(msg.substr(split)));
    EXPECT_EQ(h.finish(), sha512(to_bytes(msg))) << "split=" << split;
  }
}

TEST(Sha512, ReuseAfterFinishThrows) {
  Sha512 h;
  h.finish();
  EXPECT_THROW(h.update(to_bytes("x")), CryptoError);
  EXPECT_THROW(h.finish(), CryptoError);
}

TEST(Sha512, DigestIs128HexDigits) {
  // Section III-B4 splits p into 32 segments of 4 hex digits = 128 digits.
  EXPECT_EQ(sha512_hex("anything").size(), 128u);
}

// Parameterized sweep: every message length 0..200 hashes consistently
// between the streaming and one-shot interfaces (pads all boundary cases).
class ShaLengthSweep : public ::testing::TestWithParam<int> {};

TEST_P(ShaLengthSweep, StreamByteAtATimeMatchesOneShot) {
  const int len = GetParam();
  Bytes msg(static_cast<std::size_t>(len));
  for (int i = 0; i < len; ++i) msg[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(i * 31 + 7);

  Sha256 h256;
  Sha512 h512;
  for (std::uint8_t byte : msg) {
    h256.update(ByteView(&byte, 1));
    h512.update(ByteView(&byte, 1));
  }
  EXPECT_EQ(h256.finish(), sha256(msg));
  EXPECT_EQ(h512.finish(), sha512(msg));
}

INSTANTIATE_TEST_SUITE_P(AllBoundaryLengths, ShaLengthSweep,
                         ::testing::Range(0, 201));

// --------------------------------------------------------- midstate cache
// The HMAC fast path saves the compression state after the key pad block
// and restores it per message; these pin down the save/restore contract.

TEST(Sha256Midstate, RestoreResumesAfterBlockBoundary) {
  const Bytes prefix(64, 0x36);  // exactly one compression block
  Sha256 h;
  h.update(prefix);
  const Sha256::Midstate mid = h.save_midstate();

  for (const char* tail : {"", "x", "tail that spans more than one block "
                               "when padded out to sixty-five characters!"}) {
    Sha256 resumed;
    resumed.restore_midstate(mid);
    resumed.update(to_bytes(tail));
    EXPECT_EQ(resumed.finish(), sha256(concat({prefix, to_bytes(tail)})))
        << "tail=\"" << tail << '"';
  }
}

TEST(Sha512Midstate, RestoreResumesAfterBlockBoundary) {
  const Bytes prefix(128, 0x5c);
  Sha512 h;
  h.update(prefix);
  const Sha512::Midstate mid = h.save_midstate();

  Sha512 resumed;
  resumed.restore_midstate(mid);
  resumed.update(to_bytes("suffix"));
  EXPECT_EQ(resumed.finish(), sha512(concat({prefix, to_bytes("suffix")})));
}

TEST(Sha256Midstate, SaveRequiresBlockAlignment) {
  Sha256 h;
  h.update(to_bytes("seven b"));  // 7 bytes buffered, not a whole block
  EXPECT_THROW(h.save_midstate(), CryptoError);
}

TEST(Sha256Midstate, SaveAfterFinishThrows) {
  Sha256 h;
  h.finish();
  EXPECT_THROW(h.save_midstate(), CryptoError);
}

TEST(Sha256Midstate, RestoreClearsFinishedFlag) {
  Sha256 h;
  h.update(Bytes(64, 0xab));
  const Sha256::Midstate mid = h.save_midstate();
  h.finish();
  h.restore_midstate(mid);  // must make the object usable again
  EXPECT_EQ(h.finish(), sha256(Bytes(64, 0xab)));
}

TEST(Sha256FinishInto, MatchesHeapFinish) {
  Sha256 a, b;
  a.update(to_bytes("digest into a stack buffer"));
  b.update(to_bytes("digest into a stack buffer"));
  Sha256::Digest out{};
  a.finish_into(out.data());
  EXPECT_EQ(Bytes(out.begin(), out.end()), b.finish());
}

TEST(Sha512FinishInto, MatchesHeapFinish) {
  Sha512 a, b;
  a.update(to_bytes("digest into a stack buffer"));
  b.update(to_bytes("digest into a stack buffer"));
  Sha512::Digest out{};
  a.finish_into(out.data());
  EXPECT_EQ(Bytes(out.begin(), out.end()), b.finish());
}

TEST(Sha256FinishInto, FinishDigestMatchesOneShot) {
  Sha256 h;
  h.update(to_bytes("abc"));
  const Sha256::Digest d = h.finish_digest();
  EXPECT_EQ(Bytes(d.begin(), d.end()), sha256(to_bytes("abc")));
}

// ---------------------------------------------------------------- backends
// Sha256 compresses on SHA-NI wherever the CPU has it, so on such a CPU
// the tests above never reach the portable rounds. These drive each
// backend on its own, padding here rather than in Sha256. On a SHA-NI CPU
// the random-midstate case of the portable backend is the kernel held to
// its oracle, the portable rounds.

struct Backend {
  const char* name;
  detail::Sha256Compress compress;  // nullptr: not on this CPU

  friend void PrintTo(const Backend& b, std::ostream* os) { *os << b.name; }
};

constexpr detail::Sha256State kSha256Init = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

Bytes digest_of(const detail::Sha256State& state) {
  Bytes out;
  for (std::uint32_t word : state) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      out.push_back(static_cast<std::uint8_t>(word >> shift));
    }
  }
  return out;
}

/// Pads `msg` as FIPS 180-4 section 5.1.1 does, after `prefix_bytes`
/// already absorbed into `state`, and compresses it block by block.
Bytes hash_with(detail::Sha256Compress compress, detail::Sha256State state,
                std::uint64_t prefix_bytes, const Bytes& msg) {
  Bytes padded = msg;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0x00);
  const std::uint64_t bits = (prefix_bytes + msg.size()) * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
  for (std::size_t off = 0; off < padded.size(); off += 64) {
    compress(state, padded.data() + off);
  }
  return digest_of(state);
}

detail::Sha256State random_state(ChaChaDrbg& rng) {
  const Bytes raw = rng.bytes(sizeof(detail::Sha256State));
  detail::Sha256State state{};
  std::memcpy(state.data(), raw.data(), raw.size());
  return state;
}

class Sha256BackendTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (GetParam().compress == nullptr) {
      GTEST_SKIP() << "this CPU lacks SHA-NI (the SHA and SSE4.1 "
                      "extensions); Sha256 runs the portable rounds here";
    }
  }

  std::string hex(const Bytes& msg) const {
    return hex_encode(hash_with(GetParam().compress, kSha256Init, 0, msg));
  }
};

TEST_P(Sha256BackendTest, Fips180ShortVectors) {
  EXPECT_EQ(hex(Bytes{}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex(to_bytes("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex(to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomn"
                         "opnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST_P(Sha256BackendTest, Fips180OneMillionA) {
  EXPECT_EQ(hex(Bytes(1'000'000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256BackendTest, RandomMidstateAndBlockMatchSha256) {
  // A random chaining state stands for a 64-byte prefix; one random block
  // and the padding block follow, through this backend alone and through
  // Sha256's restore_midstate/update/finish, which runs the CPU's backend.
  ChaChaDrbg rng(1804);
  for (int trial = 0; trial < 500; ++trial) {
    const detail::Sha256State state = random_state(rng);
    const Bytes block = rng.bytes(64);
    Sha256 h;
    h.restore_midstate({state, 64});
    h.update(block);
    EXPECT_EQ(hash_with(GetParam().compress, state, 64, block), h.finish())
        << "trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, Sha256BackendTest,
    ::testing::Values(Backend{"portable", &detail::sha256_compress_portable},
                      Backend{"shani", detail::sha256_shani_backend()}),
    [](const ::testing::TestParamInfo<Backend>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace amnesia::crypto
