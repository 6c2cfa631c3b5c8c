// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Amnesia uses SHA-256 for the password request R = H(u || d || sigma) and
// the token T = H(e_0 || ... || e_15) (paper section III-B). The class is a
// conventional streaming hasher; sha256() is the one-shot convenience.
// Blocks compress on SHA-NI where the CPU has it and on portable rounds
// elsewhere, with bit-identical output (see sha256_compress.h).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace amnesia::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  using Digest = std::array<std::uint8_t, kDigestSize>;

  /// A saved compression state: the eight chaining words plus the number
  /// of bytes absorbed so far. Valid only at a block boundary. HMAC uses
  /// this to precompute the key-pad absorption once and replay it for
  /// free on every reset (see hmac.h).
  struct Midstate {
    std::array<std::uint32_t, 8> h;
    std::uint64_t total_bytes = 0;
  };

  Sha256();

  /// Absorbs more input. May be called any number of times.
  void update(ByteView data);

  /// Finalizes and returns the 32-byte digest. The hasher must not be
  /// reused afterwards without reset().
  Bytes finish();

  /// Allocation-free finalize: writes the 32-byte digest to `out`.
  void finish_into(std::uint8_t* out);

  /// Allocation-free finalize into a fixed-size array.
  Digest finish_digest();

  /// Returns the hasher to its initial state.
  void reset();

  /// Captures the compression state. Only legal at a block boundary
  /// (bytes absorbed so far divisible by 64); throws CryptoError
  /// otherwise, and if already finished.
  Midstate save_midstate() const;

  /// Restores a saved state; the hasher continues as if it had just
  /// absorbed that many bytes. Clears any finished/buffered state.
  void restore_midstate(const Midstate& m);

  /// Pads a message's last block in place. `block` starts with the
  /// message's final `tail` bytes (at most 55); writes 0x80, zeros and the
  /// 64-bit big-endian bit length of the whole `total_bytes`-byte message
  /// after them. For hashing many messages of one length: pad a block
  /// once, overwrite only its first `tail` bytes per message, and finish
  /// with finish_padded(). Throws CryptoError if the length does not fit.
  static void pad_final_block(std::uint8_t* block, std::size_t tail,
                              std::uint64_t total_bytes);

  /// Restores `mid`, compresses `block` (a last block padded by
  /// pad_final_block() for a message of mid.total_bytes + tail bytes) and
  /// writes the digest to `out`, which may alias `block`. The same digest
  /// as restore_midstate(mid), update(tail), finish_into(out), in one
  /// compression with no copying or padding. Leaves the hasher finished.
  void finish_padded(const Midstate& mid, const std::uint8_t* block,
                     std::uint8_t* out);

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
  bool finished_ = false;
};

/// One-shot SHA-256.
Bytes sha256(ByteView data);

/// One-shot SHA-256 over the concatenation of `parts`.
Bytes sha256_concat(std::initializer_list<ByteView> parts);

}  // namespace amnesia::crypto
