// Master-password verification records.
//
// Table I of the paper stores H(MP + salt). This module provides two
// interchangeable schemes behind one record format:
//   - kPbkdf2Sha256 (default): PBKDF2 with a configurable work factor, the
//     recommended storage form;
//   - kLegacySaltedSha256: the paper's literal single SHA-256 over
//     MP || salt, kept for the fidelity/ablation benchmarks that quantify
//     how much slower offline guessing becomes under PBKDF2.
// The same record format is reused for the hashed-and-salted phone ID
// H(Pid + salt), also from Table I.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/rng.h"

namespace amnesia::crypto {

enum class HashScheme : std::uint8_t {
  kLegacySaltedSha256 = 1,
  kPbkdf2Sha256 = 2,
};

struct PasswordRecord {
  HashScheme scheme;
  std::uint32_t iterations;  // meaningful for PBKDF2 only (>= 1)
  Bytes salt;
  Bytes hash;

  /// Stable textual form "scheme$iterations$salt_hex$hash_hex" for storage.
  std::string encode() const;
  /// Parses encode()'s form. Throws FormatError on a malformed record,
  /// including an empty hash and a PBKDF2 record with zero iterations.
  static PasswordRecord decode(const std::string& encoded);
};

struct PasswordHasherOptions {
  HashScheme scheme = HashScheme::kPbkdf2Sha256;
  std::uint32_t iterations = 10'000;
  std::size_t salt_size = 16;
  std::size_t hash_size = 32;
};

class PasswordHasher {
 public:
  explicit PasswordHasher(PasswordHasherOptions options = {});

  /// Creates a verification record for `secret` with a fresh salt.
  PasswordRecord hash(ByteView secret, RandomSource& rng) const;

  /// Constant-time verification against a stored record (any scheme).
  /// False for a record with an empty hash, whatever the secret.
  static bool verify(ByteView secret, const PasswordRecord& record);

 private:
  PasswordHasherOptions options_;
};

}  // namespace amnesia::crypto
