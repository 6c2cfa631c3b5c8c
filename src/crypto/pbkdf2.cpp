#include "crypto/pbkdf2.h"

#include <algorithm>

#include "common/error.h"
#include "crypto/crypto_metrics.h"
#include "crypto/hmac.h"

namespace amnesia::crypto {

Bytes pbkdf2_hmac_sha256(ByteView password, ByteView salt,
                         std::uint32_t iterations, std::size_t dk_len) {
  if (iterations == 0) throw CryptoError("pbkdf2: zero iterations");
  constexpr std::size_t kHashLen = Sha256::kDigestSize;

  // One HMAC instance holds the precomputed key-pad midstates. U_1 goes
  // through the streaming MAC (the salt has any length); every later U is
  // a digest-length message, MACed in place in one pre-padded block: a
  // midstate restore and a compression per pass, with no padding, copying
  // or heap traffic inside the loop.
  HmacSha256 mac(password);
  HmacSha256::Block block = HmacSha256::digest_block();
  std::array<std::uint8_t, kHashLen> t;

  Bytes dk;
  dk.reserve(dk_len);
  std::uint32_t block_index = 1;
  while (dk.size() < dk_len) {
    // U1 = PRF(P, S || INT_32_BE(i))
    mac.reset();
    mac.update(salt);
    const std::uint8_t be[4] = {
        static_cast<std::uint8_t>(block_index >> 24),
        static_cast<std::uint8_t>(block_index >> 16),
        static_cast<std::uint8_t>(block_index >> 8),
        static_cast<std::uint8_t>(block_index)};
    mac.update(ByteView(be, 4));
    mac.finish_into(block.data());
    std::copy_n(block.begin(), kHashLen, t.begin());
    for (std::uint32_t iter = 1; iter < iterations; ++iter) {
      mac.mac_digest_block(block.data());
      for (std::size_t i = 0; i < kHashLen; ++i) t[i] ^= block[i];
    }
    const std::size_t take = std::min(kHashLen, dk_len - dk.size());
    dk.insert(dk.end(), t.begin(), t.begin() + static_cast<long>(take));
    ++block_index;
  }
  secure_wipe(block.data(), block.size());
  secure_wipe(t.data(), t.size());

  const auto& counters = detail::crypto_counters();
  if (counters.pbkdf2_calls) {
    counters.pbkdf2_calls->inc();
    counters.pbkdf2_iterations->inc(
        static_cast<std::uint64_t>(iterations) * (block_index - 1));
  }
  return dk;
}

}  // namespace amnesia::crypto
