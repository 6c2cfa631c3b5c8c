// SHA-256 block compression backends. Internal: library code hashes
// through Sha256 (sha256.h).
//
// Sha256 compresses every block through one entry point, chosen once at
// first use from cpuid: the SHA-NI kernel when the CPU has the SHA and
// SSE4.1 extensions, otherwise the portable FIPS 180-4 rounds. The
// hardware decides; no build option, environment variable or config
// field does. Both backends are named here only so the tests can hold
// the kernel to the portable rounds (the oracle) and the crypto bench can
// time each one.
#pragma once

#include <array>
#include <cstdint>

namespace amnesia::crypto::detail {

using Sha256State = std::array<std::uint32_t, 8>;

/// Compresses one 64-byte block into `state`.
using Sha256Compress = void (*)(Sha256State& state, const std::uint8_t* block);

/// The portable rounds: the fallback on every CPU and the test oracle.
void sha256_compress_portable(Sha256State& state, const std::uint8_t* block);

/// The SHA-NI kernel, or nullptr when this CPU lacks the SHA or SSE4.1
/// extensions or the build is not x86-64.
Sha256Compress sha256_shani_backend();

}  // namespace amnesia::crypto::detail
