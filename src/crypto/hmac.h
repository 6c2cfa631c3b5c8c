// HMAC (RFC 2104) over the project's SHA-2 implementations.
//
// HMAC-SHA256 is used by the secure-channel key schedule (via HKDF) and by
// PBKDF2 for master-password hashing; HMAC-SHA512 is provided for
// completeness and used by the LastPass-style baseline vault.
//
// The key schedule is computed exactly once: the constructor absorbs
// key^ipad and key^opad and saves both compression midstates, so reset()
// is a register copy instead of re-hashing a key block, and finish() costs
// one outer compression instead of a full outer pass. mac_digest_block()
// goes further for PBKDF2's U chain: a digest-length message pads the same
// way on both passes, so one block padded once serves every iteration,
// which is then two midstate restores and two compressions.
#pragma once

#include "common/bytes.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"

namespace amnesia::crypto {

/// Streaming HMAC over any hash type exposing kDigestSize/kBlockSize,
/// update(), finish_into(), save_midstate(), restore_midstate().
template <typename Hash>
class Hmac {
 public:
  static constexpr std::size_t kDigestSize = Hash::kDigestSize;
  using Digest = std::array<std::uint8_t, kDigestSize>;
  using Block = std::array<std::uint8_t, Hash::kBlockSize>;

  explicit Hmac(ByteView key) {
    std::array<std::uint8_t, Hash::kBlockSize> pad;
    std::array<std::uint8_t, Hash::kDigestSize> key_hash;
    const std::uint8_t* k = key.data();
    std::size_t k_len = key.size();
    if (k_len > Hash::kBlockSize) {
      Hash h;
      h.update(key);
      h.finish_into(key_hash.data());
      k = key_hash.data();
      k_len = Hash::kDigestSize;
    }
    for (std::size_t i = 0; i < Hash::kBlockSize; ++i) {
      pad[i] = (i < k_len ? k[i] : 0) ^ 0x36;
    }
    inner_.update(ByteView(pad.data(), pad.size()));
    inner_mid_ = inner_.save_midstate();
    for (auto& b : pad) b ^= 0x36 ^ 0x5c;
    Hash outer;
    outer.update(ByteView(pad.data(), pad.size()));
    outer_mid_ = outer.save_midstate();
    secure_wipe(pad.data(), pad.size());
    secure_wipe(key_hash.data(), key_hash.size());
  }

  /// Key-equivalent material (the pad midstates) and the working state,
  /// which holds the last tag, are wiped on destruction.
  ~Hmac() {
    secure_wipe(&inner_mid_, sizeof(inner_mid_));
    secure_wipe(&outer_mid_, sizeof(outer_mid_));
    secure_wipe(&inner_, sizeof(inner_));
  }

  Hmac(const Hmac&) = default;
  Hmac& operator=(const Hmac&) = default;

  void update(ByteView data) { inner_.update(data); }

  Bytes finish() {
    Bytes digest(kDigestSize);
    finish_into(digest.data());
    return digest;
  }

  /// Allocation-free finalize: writes the tag to `out` (kDigestSize bytes).
  void finish_into(std::uint8_t* out) {
    Digest inner_digest;
    inner_.finish_into(inner_digest.data());
    Hash outer;
    outer.restore_midstate(outer_mid_);
    outer.update(ByteView(inner_digest.data(), inner_digest.size()));
    outer.finish_into(out);
    secure_wipe(inner_digest.data(), inner_digest.size());
    secure_wipe(&outer, sizeof(outer));
  }

  Digest finish_digest() {
    Digest digest;
    finish_into(digest.data());
    return digest;
  }

  /// Restarts the MAC with the same key (a midstate restore; no hashing).
  void reset() { inner_.restore_midstate(inner_mid_); }

  /// A block for mac_digest_block(): zeros where a kDigestSize-byte
  /// message goes, then its padding. After the one key-pad block such a
  /// message pads the same way on the inner and the outer pass (0x80,
  /// zeros, the bit length of kBlockSize + kDigestSize bytes), so this
  /// block, padded once, serves both passes of every call.
  static Block digest_block() {
    Block block{};
    Hash::pad_final_block(block.data(), kDigestSize,
                          Hash::kBlockSize + kDigestSize);
    return block;
  }

  /// MACs the kDigestSize-byte message at the front of `block` (from
  /// digest_block()) and writes the tag back over it, so repeated calls
  /// walk PBKDF2's chain U_1 -> U_2 -> ...: two midstate restores and two
  /// compressions, with no padding, copying or allocation. Finishes the
  /// streaming MAC; call reset() before update() again.
  void mac_digest_block(std::uint8_t* block) {
    inner_.finish_padded(inner_mid_, block, block);
    inner_.finish_padded(outer_mid_, block, block);
  }

 private:
  typename Hash::Midstate inner_mid_;
  typename Hash::Midstate outer_mid_;
  Hash inner_;
};

using HmacSha256 = Hmac<Sha256>;
using HmacSha512 = Hmac<Sha512>;

/// One-shot HMAC-SHA256.
Bytes hmac_sha256(ByteView key, ByteView data);

/// One-shot HMAC-SHA512.
Bytes hmac_sha512(ByteView key, ByteView data);

}  // namespace amnesia::crypto
