// Per-layer attribution helpers.
//
// Two independent views of where the server's CPU goes:
//
//   profile bucketing  each sampled stack is charged to its innermost
//                      amnesia::<module>:: frame (cpu_share.<module>);
//   layer replays      after the traced window, the public entry point of
//                      each layer is re-run on inputs captured from that
//                      window (wire bytes, a provisioned KDF record, the
//                      accounts row shape), giving a unit cost per call.
//                      Unit cost times the per-op call count from the
//                      server's counters should add up to the measured
//                      server CPU per op; the gap is layers.unexplained_pct.
//
// Wall-clock replays, not the server's own histograms: those run on the
// simulation clock, which does not advance inside one event.
#pragma once

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "deployment.h"

namespace perfbench {

/// The cpu_share.* buckets, in report order ("other" last).
const std::vector<std::string>& cpu_modules();

/// The bucket of one collapsed stack ("thread;outer;...;leaf"): the
/// module of its innermost amnesia::<module>:: frame, else "other".
std::string bucket_of(const std::string& stack);

/// Samples per bucket over a collapsed profile; every bucket is present.
std::map<std::string, std::uint64_t> bucket_profile(const std::string& text);

/// Wire bytes captured from the live run (a bounded sample).
class WireCapture {
 public:
  void add(const amnesia::Bytes& request, const amnesia::Bytes& response);
  const std::vector<amnesia::Bytes>& requests() const { return requests_; }
  const std::vector<amnesia::Bytes>& responses() const { return responses_; }

 private:
  static constexpr std::size_t kMax = 256;
  std::uint64_t seen_ = 0;
  std::mt19937_64 rng_{7};
  std::vector<amnesia::Bytes> requests_;
  std::vector<amnesia::Bytes> responses_;
};

/// Unit costs in microseconds of CPU per call, each the median of
/// several passes.
struct ReplayCosts {
  double kdf_us = 0;        // PasswordHasher::verify on the provisioned record
  double handshake_us = 0;  // server side of a full X25519 handshake
  double resume_us = 0;     // ticket open + resumed key schedule
  double record_us = 0;     // one record seal or open at captured sizes
  double net_frame_us = 0;  // one loopback TCP write or read at captured sizes
  double parse_us = 0;      // parse_request + serialize(response)
  double generate_us = 0;   // make_request + generate_token + generate_password
  double commit_us = 0;     // Database::upsert / remove on the accounts row
  double lookup_us = 0;     // Table::get on the accounts row
  bool generate_matches_oracle = false;
  bool kdf_verified = false;
};

ReplayCosts replay_layers(const ReplayInputs& inputs, const WireCapture& wire,
                          const std::string& expected_password);

}  // namespace perfbench
