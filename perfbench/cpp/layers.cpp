#include "layers.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <stdexcept>

#include "core/generate.h"
#include "crypto/drbg.h"
#include "crypto/x25519.h"
#include "obs/profiler.h"
#include "securechan/channel.h"
#include "securechan/ticket.h"
#include "stats.h"
#include "storage/database.h"
#include "websvc/http.h"

namespace perfbench {

using amnesia::Bytes;

const std::vector<std::string>& cpu_modules() {
  static const std::vector<std::string> modules = {
      "net",     "securechan", "websvc",  "server", "crypto", "core",
      "storage", "cluster",    "simnet",  "obs",    "other"};
  return modules;
}

std::string bucket_of(const std::string& stack) {
  // Frames are ';'-separated, outermost first; the first is the thread.
  std::size_t end = stack.size();
  while (end > 0) {
    const std::size_t sep = stack.rfind(';', end - 1);
    const std::size_t begin = sep == std::string::npos ? 0 : sep + 1;
    if (sep == std::string::npos) break;  // only the thread name is left
    const std::string frame = stack.substr(begin, end - begin);
    const std::size_t at = frame.find("amnesia::");
    if (at != std::string::npos) {
      const std::size_t from = at + 9;
      const std::size_t to = frame.find("::", from);
      if (to != std::string::npos) {
        const std::string module = frame.substr(from, to - from);
        for (const std::string& m : cpu_modules()) {
          if (m == module) return m;
        }
        return "other";
      }
    }
    end = sep;
  }
  return "other";
}

std::map<std::string, std::uint64_t> bucket_profile(const std::string& text) {
  std::map<std::string, std::uint64_t> out;
  for (const std::string& m : cpu_modules()) out[m] = 0;
  for (const auto& line : amnesia::obs::parse_collapsed(text)) {
    out[bucket_of(line.stack)] += line.count;
  }
  return out;
}

void WireCapture::add(const Bytes& request, const Bytes& response) {
  // Reservoir sample, so the captured mix follows the whole window.
  ++seen_;
  if (requests_.size() < kMax) {
    requests_.push_back(request);
    responses_.push_back(response);
    return;
  }
  const std::uint64_t slot = rng_() % seen_;
  if (slot < kMax) {
    requests_[slot] = request;
    responses_[slot] = response;
  }
}

namespace {

/// Median over `passes` of (thread CPU of one pass) / calls.
template <typename Fn>
double unit_cost(std::size_t calls, Fn&& pass, int passes = 7) {
  std::vector<double> per_call;
  for (int p = 0; p < passes; ++p) {
    const double t0 = thread_cpu_us();
    pass();
    per_call.push_back((thread_cpu_us() - t0) /
                       static_cast<double>(std::max<std::size_t>(1, calls)));
  }
  return median(per_call);
}

/// A connected loopback TCP pair, closed on destruction.
class LoopbackPair {
 public:
  LoopbackPair() {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (listener < 0 ||
        ::bind(listener, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listener, 1) != 0 ||
        ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
      if (listener >= 0) ::close(listener);
      throw std::runtime_error("loopback replay: listen failed");
    }
    a_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (a_ < 0 ||
        ::connect(a_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(listener);
      throw std::runtime_error("loopback replay: connect failed");
    }
    b_ = ::accept(listener, nullptr, nullptr);
    ::close(listener);
    if (b_ < 0) throw std::runtime_error("loopback replay: accept failed");
    const int one = 1;
    ::setsockopt(a_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::setsockopt(b_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~LoopbackPair() {
    if (a_ >= 0) ::close(a_);
    if (b_ >= 0) ::close(b_);
  }
  LoopbackPair(const LoopbackPair&) = delete;
  LoopbackPair& operator=(const LoopbackPair&) = delete;

  /// Writes `n` bytes on one end and reads them back on the other.
  void bounce(const std::uint8_t* data, std::size_t n, std::uint8_t* sink) {
    std::size_t sent = 0;
    while (sent < n) {
      const ssize_t w = ::write(a_, data + sent, n - sent);
      if (w <= 0) throw std::runtime_error("loopback replay: write failed");
      sent += static_cast<std::size_t>(w);
    }
    std::size_t got = 0;
    while (got < n) {
      const ssize_t r = ::read(b_, sink + got, n - got);
      if (r <= 0) throw std::runtime_error("loopback replay: read failed");
      got += static_cast<std::size_t>(r);
    }
  }

 private:
  int a_ = -1;
  int b_ = -1;
};

}  // namespace

ReplayCosts replay_layers(const ReplayInputs& in, const WireCapture& wire,
                          const std::string& expected_password) {
  ReplayCosts c;
  amnesia::crypto::ChaChaDrbg rng(std::uint64_t{20160627});
  std::vector<const Bytes*> plaintexts;
  for (const Bytes& b : wire.requests()) plaintexts.push_back(&b);
  for (const Bytes& b : wire.responses()) plaintexts.push_back(&b);
  const Bytes mp(kMasterPassword,
                 kMasterPassword + std::char_traits<char>::length(kMasterPassword));

  // crypto: the login path's PBKDF2 verify.
  c.kdf_verified = amnesia::crypto::PasswordHasher::verify(mp, in.mp_record);
  c.kdf_us = unit_cost(1, [&] {
    amnesia::crypto::PasswordHasher::verify(mp, in.mp_record);
  }, 5);

  // securechan: full handshake (server side) and ticket resumption.
  const auto server_keys = amnesia::crypto::x25519_generate(rng);
  const auto client_keys = amnesia::crypto::x25519_generate(rng);
  const Bytes cnonce = rng.bytes(32), snonce = rng.bytes(32);
  c.handshake_us = unit_cost(8, [&] {
    for (int i = 0; i < 8; ++i) {
      const auto shared = amnesia::crypto::x25519(
          server_keys.private_key, client_keys.public_key);
      auto s = amnesia::securechan::derive_full_session(shared, cnonce, snonce);
    }
  });
  const auto store = amnesia::securechan::TicketKeyStore::generate(rng);
  const Bytes secret = rng.bytes(amnesia::securechan::kResumptionSecretLen);
  const Bytes ticket = store->seal(secret, rng);
  c.resume_us = unit_cost(64, [&] {
    for (int i = 0; i < 64; ++i) {
      const auto opened = store->open(ticket);
      if (!opened) throw std::runtime_error("resume replay: ticket rejected");
      auto s = amnesia::securechan::derive_resumed_session(*opened, cnonce,
                                                           snonce);
    }
  });

  // securechan records: seal + open every captured plaintext.
  const Bytes key = rng.bytes(32), iv = rng.bytes(12), aad = rng.bytes(16);
  Bytes sealed, opened;
  c.record_us = unit_cost(2 * plaintexts.size(), [&] {
    std::uint64_t seq = 0;
    for (const Bytes* p : plaintexts) {
      amnesia::securechan::seal_record_into(key, iv, seq, aad, *p, sealed);
      if (!amnesia::securechan::open_record_into(key, iv, seq, aad, sealed,
                                                 opened) ||
          opened != *p) {
        throw std::runtime_error("record replay: open failed");
      }
      ++seq;
    }
  });

  // net: one loopback write and one read per sealed frame.
  {
    LoopbackPair pair;
    std::vector<std::uint8_t> frame(1 << 16, 0x5a), sink(1 << 16);
    c.net_frame_us = unit_cost(2 * plaintexts.size(), [&] {
      for (const Bytes* p : plaintexts) {
        // Sealed size: plaintext + AEAD tag + record and frame headers.
        const std::size_t n = std::min(frame.size(), p->size() + 48);
        pair.bounce(frame.data(), n, sink.data());
      }
    });
  }

  // websvc: the server parses each request and serializes its response.
  std::vector<amnesia::websvc::Response> responses;
  for (const Bytes& b : wire.responses()) {
    responses.push_back(amnesia::websvc::parse_response(b));
  }
  c.parse_us = unit_cost(wire.requests().size(), [&] {
    for (std::size_t i = 0; i < wire.requests().size(); ++i) {
      const auto req = amnesia::websvc::parse_request(wire.requests()[i]);
      const Bytes out = amnesia::websvc::serialize(responses[i]);
      if (req.path.empty() || out.empty()) {
        throw std::runtime_error("parse replay: empty message");
      }
    }
  });

  // core: the round's generation work (server and phone halves).
  const auto& acct = *in.account;
  const auto generate = [&] {
    const auto request = amnesia::core::make_request(acct.id, acct.seed);
    const auto token =
        amnesia::core::generate_token(request, in.phone->entry_table);
    return amnesia::core::generate_password(token, *in.oid, acct.seed,
                                            acct.policy);
  };
  c.generate_matches_oracle = generate() == expected_password;
  c.generate_us = unit_cost(16, [&] {
    for (int i = 0; i < 16; ++i) generate();
  });

  // storage: upsert + remove, and point lookups, on the accounts row shape.
  {
    amnesia::storage::Database db;
    db.create_table("accounts", in.account_schema);
    constexpr int kRows = 64;
    std::vector<amnesia::storage::Row> rows;
    for (int i = 0; i < kRows; ++i) {
      amnesia::storage::Row row = in.account_row;
      row[in.account_schema.primary_key] =
          amnesia::storage::Value("perfbench-replay-" + std::to_string(i));
      rows.push_back(std::move(row));
    }
    c.commit_us = unit_cost(2 * kRows, [&] {
      for (const auto& row : rows) db.upsert("accounts", row);
      for (const auto& row : rows) {
        db.remove("accounts", row[in.account_schema.primary_key]);
      }
    });
    for (const auto& row : rows) db.upsert("accounts", row);
    c.lookup_us = unit_cost(kRows, [&] {
      for (const auto& row : rows) {
        if (!db.table("accounts").get(row[in.account_schema.primary_key])) {
          throw std::runtime_error("storage replay: row missing");
        }
      }
    });
  }
  return c;
}

}  // namespace perfbench
