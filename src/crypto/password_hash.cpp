#include "crypto/password_hash.h"

#include <charconv>

#include "common/error.h"
#include "crypto/pbkdf2.h"
#include "crypto/sha256.h"

namespace amnesia::crypto {

namespace {

Bytes compute(HashScheme scheme, std::uint32_t iterations, ByteView secret,
              ByteView salt, std::size_t hash_size) {
  switch (scheme) {
    case HashScheme::kLegacySaltedSha256: {
      // The paper's H(MP + salt): a single unsalted-iteration hash.
      Bytes digest = sha256_concat({secret, salt});
      digest.resize(std::min(digest.size(), hash_size));
      return digest;
    }
    case HashScheme::kPbkdf2Sha256:
      return pbkdf2_hmac_sha256(secret, salt, iterations, hash_size);
  }
  throw CryptoError("password_hash: unknown scheme");
}

}  // namespace

std::string PasswordRecord::encode() const {
  return std::to_string(static_cast<int>(scheme)) + "$" +
         std::to_string(iterations) + "$" + hex_encode(salt) + "$" +
         hex_encode(hash);
}

PasswordRecord PasswordRecord::decode(const std::string& encoded) {
  std::array<std::string, 4> parts;
  std::size_t start = 0;
  for (int i = 0; i < 4; ++i) {
    const std::size_t pos = encoded.find('$', start);
    if (i < 3) {
      if (pos == std::string::npos) {
        throw FormatError("PasswordRecord: expected 4 '$'-separated fields");
      }
      parts[i] = encoded.substr(start, pos - start);
      start = pos + 1;
    } else {
      parts[i] = encoded.substr(start);
    }
  }
  PasswordRecord rec;
  int scheme_num = 0;
  auto [p1, ec1] = std::from_chars(parts[0].data(),
                                   parts[0].data() + parts[0].size(), scheme_num);
  std::uint32_t iters = 0;
  auto [p2, ec2] = std::from_chars(parts[1].data(),
                                   parts[1].data() + parts[1].size(), iters);
  if (ec1 != std::errc{} || ec2 != std::errc{}) {
    throw FormatError("PasswordRecord: bad numeric field");
  }
  if (scheme_num != static_cast<int>(HashScheme::kLegacySaltedSha256) &&
      scheme_num != static_cast<int>(HashScheme::kPbkdf2Sha256)) {
    throw FormatError("PasswordRecord: unknown scheme id");
  }
  rec.scheme = static_cast<HashScheme>(scheme_num);
  rec.iterations = iters;
  if (rec.scheme == HashScheme::kPbkdf2Sha256 && rec.iterations == 0) {
    throw FormatError("PasswordRecord: PBKDF2 needs at least one iteration");
  }
  rec.salt = hex_decode(parts[2]);
  rec.hash = hex_decode(parts[3]);
  // An empty hash would match every secret (two empty strings compare
  // equal), so a record without one is malformed, not permissive.
  if (rec.hash.empty()) throw FormatError("PasswordRecord: empty hash");
  return rec;
}

PasswordHasher::PasswordHasher(PasswordHasherOptions options)
    : options_(options) {
  if (options_.iterations == 0) {
    throw CryptoError("PasswordHasher: iterations must be >= 1");
  }
}

PasswordRecord PasswordHasher::hash(ByteView secret, RandomSource& rng) const {
  PasswordRecord rec;
  rec.scheme = options_.scheme;
  rec.iterations = options_.iterations;
  rec.salt = rng.bytes(options_.salt_size);
  rec.hash = compute(rec.scheme, rec.iterations, secret, rec.salt,
                     options_.hash_size);
  return rec;
}

bool PasswordHasher::verify(ByteView secret, const PasswordRecord& record) {
  // Fail closed: an empty stored hash would compare equal to the empty
  // candidate derived for it, whatever the secret.
  if (record.hash.empty()) return false;
  const Bytes candidate = compute(record.scheme, record.iterations, secret,
                                  record.salt, record.hash.size());
  return ct_equal(candidate, record.hash);
}

}  // namespace amnesia::crypto
