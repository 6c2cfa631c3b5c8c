#include "crypto/sha256.h"

#include <bit>
#include <cstring>

#include "common/error.h"
#include "crypto/sha256_compress.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace amnesia::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInit = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

// The 64-bit bit length ends every final block, at this offset.
constexpr std::size_t kLengthOffset = 56;

inline std::uint32_t rotr(std::uint32_t x, int n) { return std::rotr(x, n); }

void store_be64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
  }
}

// Word stores rather than byte stores: the digest often lands in a block
// that is compressed next, and byte stores defeat store forwarding.
void store_digest(const detail::Sha256State& state, std::uint8_t* out) {
  for (int i = 0; i < 8; ++i) {
    const std::uint32_t be = std::endian::native == std::endian::little
                                 ? __builtin_bswap32(state[i])
                                 : state[i];
    std::memcpy(out + 4 * i, &be, sizeof(be));
  }
}

#if defined(__x86_64__)
bool cpu_has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & bit_SSSE3) == 0 || (ecx & bit_SSE4_1) == 0) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & bit_SHA) != 0;
}
#endif

// Every block compresses through here, on the backend picked at first use.
void compress(detail::Sha256State& state, const std::uint8_t* block) {
  static const detail::Sha256Compress backend = [] {
    const detail::Sha256Compress shani = detail::sha256_shani_backend();
    return shani != nullptr ? shani : &detail::sha256_compress_portable;
  }();
  backend(state, block);
}

}  // namespace

namespace detail {

void sha256_compress_portable(Sha256State& state, const std::uint8_t* block) {
  std::array<std::uint32_t, 64> w;
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
           (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  auto [a, b, c, d, e, f, g, h] = state;
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__)
// The same 64 rounds on the SHA extensions. sha256rnds2 runs two rounds
// on the working variables packed as ABEF and CDGH; sha256msg1/msg2
// extend the message schedule four words at a time. Outside the
// anonymous namespace so the sampling profiler's dladdr can name it.
__attribute__((target("sha,sse4.1"))) void sha256_compress_shani(
    Sha256State& state, const std::uint8_t* block) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  // w[j & 3] holds schedule words 4j..4j+3.
  __m128i w[4];
  for (int j = 0; j < 4; ++j) {
    w[j] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * j)),
        byte_swap);
  }
#pragma GCC unroll 16
  for (int j = 0; j < 16; ++j) {
    if (j >= 4) {
      const __m128i partial =
          _mm_add_epi32(_mm_sha256msg1_epu32(w[j & 3], w[(j + 1) & 3]),
                        _mm_alignr_epi8(w[(j + 3) & 3], w[(j + 2) & 3], 4));
      w[j & 3] = _mm_sha256msg2_epu32(partial, w[(j + 3) & 3]);
    }
    __m128i wk = _mm_add_epi32(
        w[j & 3], _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * j])));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    wk = _mm_shuffle_epi32(wk, 0x0e);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
  }
  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}
#endif

Sha256Compress sha256_shani_backend() {
#if defined(__x86_64__)
  if (cpu_has_sha_ni()) return &sha256_compress_shani;
#endif
  return nullptr;
}

}  // namespace detail

Sha256::Sha256() { reset(); }

void Sha256::reset() {
  state_ = kInit;
  buffered_ = 0;
  total_bytes_ = 0;
  finished_ = false;
}

void Sha256::update(ByteView data) {
  if (finished_) throw CryptoError("Sha256: update() after finish()");
  // An empty view may carry a null pointer, which memcpy must not see.
  if (data.empty()) return;
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t need = kBlockSize - buffered_;
    const std::size_t take = std::min(need, data.size());
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset += take;
    if (buffered_ == kBlockSize) {
      compress(state_, buffer_.data());
      buffered_ = 0;
    }
  }
  while (offset + kBlockSize <= data.size()) {
    compress(state_, data.data() + offset);
    offset += kBlockSize;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Sha256::Midstate Sha256::save_midstate() const {
  if (finished_) throw CryptoError("Sha256: save_midstate() after finish()");
  if (buffered_ != 0) {
    throw CryptoError("Sha256: save_midstate() off a block boundary");
  }
  return Midstate{state_, total_bytes_};
}

void Sha256::restore_midstate(const Midstate& m) {
  state_ = m.h;
  total_bytes_ = m.total_bytes;
  buffered_ = 0;
  finished_ = false;
}

Bytes Sha256::finish() {
  Bytes digest(kDigestSize);
  finish_into(digest.data());
  return digest;
}

Sha256::Digest Sha256::finish_digest() {
  Digest digest;
  finish_into(digest.data());
  return digest;
}

void Sha256::finish_into(std::uint8_t* out) {
  if (finished_) throw CryptoError("Sha256: finish() called twice");
  finished_ = true;

  // Pad in place: 0x80, zeros, and the bit length in the last eight
  // bytes. A tail of 56 bytes or more leaves no room for the length,
  // which then ends a block of its own.
  buffer_[buffered_] = 0x80;
  std::memset(buffer_.data() + buffered_ + 1, 0, kBlockSize - buffered_ - 1);
  if (buffered_ >= kLengthOffset) {
    compress(state_, buffer_.data());
    std::memset(buffer_.data(), 0, kLengthOffset);
  }
  store_be64(buffer_.data() + kLengthOffset, total_bytes_ * 8);
  compress(state_, buffer_.data());
  store_digest(state_, out);
}

void Sha256::pad_final_block(std::uint8_t* block, std::size_t tail,
                             std::uint64_t total_bytes) {
  if (tail >= kLengthOffset) {
    throw CryptoError("Sha256: pad_final_block() tail leaves no room");
  }
  block[tail] = 0x80;
  std::memset(block + tail + 1, 0, kLengthOffset - tail - 1);
  store_be64(block + kLengthOffset, total_bytes * 8);
}

void Sha256::finish_padded(const Midstate& mid, const std::uint8_t* block,
                           std::uint8_t* out) {
  state_ = mid.h;
  finished_ = true;
  compress(state_, block);
  store_digest(state_, out);
}

Bytes sha256(ByteView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Bytes sha256_concat(std::initializer_list<ByteView> parts) {
  Sha256 h;
  for (const auto& p : parts) h.update(p);
  return h.finish();
}

}  // namespace amnesia::crypto
