// Loopback throughput/latency for the real TCP transport.
//
// Runs the full Amnesia stack — simulation-hosted servers behind
// server::NetGateway, wire-backed client::Browser over net::TcpTransport —
// on 127.0.0.1 and drives a closed loop at several concurrency levels.
// Two phases:
//
//   login     secure-channel establishment + PBKDF2 verify, no phone; the
//             pure transport + crypto round trip.
//   password  the six-step bilateral generation including the simulated
//             phone confirmation (bridged virtual time), i.e. the
//             end-to-end hot path of the paper.
//
// Each phase runs once per *resumption mode* (argv[3], comma-separated;
// default "cold,resumed,pooled") — the channel-amortization axis:
//
//   cold      every operation forgets its session ticket and resets the
//             channel first: a full X25519 handshake per op (pipeline
//             depth 1; a reset would fail pipelined siblings).
//   resumed   every operation resets the channel but keeps the ticket:
//             one-round-trip PSK resumption per op, zero X25519 after the
//             untimed warmup (depth 1).
//   pooled    raw HTTP clients share one websvc::ConnectionPool; sessions
//             stay established and extra dials resume from the pool's
//             ticket cache (depth 4 — the multiplexed steady state).
//
// Every JSON row records the server-side securechan.handshakes /
// securechan.resumptions deltas for its timed window, so the claim "the
// resumed rows paid zero X25519" is checkable from the artifact itself.
//
// The whole matrix repeats per shard count (argv[2], comma-separated;
// default "1"): N reactors sharing one port via SO_REUSEPORT, each a
// shared-nothing AmnesiaServer, stitched together by server::ShardRouter.
// Every client logs in as its own bench-user-<i>, so requests spread over
// the shards by user hash and the cross-shard mailbox is on the measured
// path. Tickets are sealed under the fleet-wide ticket-key store, so a
// resume may land on any reactor. N=1 is the unsharded baseline.
//
// Simulated link latencies are collapsed to ~10 us and the per-request
// virtual CPU charges zeroed, so the numbers measure the real epoll
// transport and real crypto rather than the calibrated WAN model (that
// model is bench_fig3_latency's job). Writes BENCH_net_loopback.json
// (req/s, p50/p99 latency, bytes/s, handshake/resumption deltas per
// phase x mode x concurrency x shards) to the current directory, or to
// argv[1].
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "client/browser.h"
#include "crypto/drbg.h"
#include "eval/deployment.h"
#include "eval/testbed.h"
#include "net/event_loop.h"
#include "net/rpc.h"
#include "net/tcp.h"
#include "server/gateway.h"
#include "websvc/client.h"
#include "websvc/http.h"
#include "websvc/pool.h"

using namespace amnesia;

namespace {

constexpr const char* kMasterPassword = "bench master password";
constexpr const char* kAccountUser = "Alice";
constexpr const char* kAccountDomain = "mail.google.com";
constexpr std::size_t kPipelineDepth = 4;
const std::vector<int> kConcurrency = {1, 2, 4, 8};

std::string bench_user(int i) { return "bench-user-" + std::to_string(i); }

struct BenchClient {
  std::string user;
  std::unique_ptr<net::TcpTransport> dial;
  std::unique_ptr<net::RpcClient> rpc;
  std::unique_ptr<crypto::ChaChaDrbg> rng;
  std::unique_ptr<client::Browser> browser;
};

BenchClient make_client(net::EventLoop& loop, std::uint16_t port,
                        const crypto::X25519Key& server_key,
                        std::string user, std::uint64_t seed) {
  BenchClient c;
  c.user = std::move(user);
  c.dial = std::make_unique<net::TcpTransport>(loop, "127.0.0.1", port);
  c.rpc = std::make_unique<net::RpcClient>(*c.dial, 30'000'000);
  c.rng = std::make_unique<crypto::ChaChaDrbg>(seed);
  c.browser = std::make_unique<client::Browser>(
      c.rpc->wire(), server_key, *c.rng,
      "bench-client-" + std::to_string(seed));
  return c;
}

/// An operation on client slot `ci`; reports success to its callback.
using Op = std::function<void(std::size_t, std::function<void(bool)>)>;

struct PhaseRow {
  std::string phase;
  std::string resumption;  // cold | resumed | pooled
  std::size_t shards = 1;
  int concurrency = 0;
  std::size_t pipeline_depth = 0;
  std::size_t requests = 0;
  std::size_t failures = 0;
  double wall_s = 0;
  double req_per_s = 0;
  Micros p50_us = 0;
  Micros p99_us = 0;
  double bytes_per_s = 0;
  std::uint64_t handshakes = 0;   // securechan.handshakes delta
  std::uint64_t resumptions = 0;  // securechan.resumptions delta
};

Micros percentile(std::vector<Micros>& sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

std::uint64_t sum_counters(const std::vector<obs::Counter*>& counters) {
  std::uint64_t total = 0;
  for (const obs::Counter* c : counters) total += c->value();
  return total;
}

/// The per-shard counters a phase row reports deltas of.
struct ShardCounters {
  std::vector<obs::Counter*> rx, tx, handshakes, resumptions;
};

/// Closed loop: each of `nclients` slots keeps `depth` requests
/// outstanding until `total` have completed across all slots.
PhaseRow run_phase(net::EventLoop& loop, std::size_t nclients,
                   const std::string& phase, const std::string& mode,
                   std::size_t shards, std::size_t depth, std::size_t total,
                   const Op& op, const ShardCounters& sc) {
  PhaseRow row;
  row.phase = phase;
  row.resumption = mode;
  row.shards = shards;
  row.concurrency = static_cast<int>(nclients);
  row.pipeline_depth = depth;
  row.requests = total;

  std::vector<Micros> latencies;
  latencies.reserve(total);
  std::size_t issued = 0, done = 0;
  std::function<void(std::size_t)> issue = [&](std::size_t ci) {
    if (issued >= total) return;
    ++issued;
    const Micros t0 = loop.clock().now_us();
    op(ci, [&, ci, t0](bool ok) {
      latencies.push_back(loop.clock().now_us() - t0);
      if (!ok) ++row.failures;
      ++done;
      issue(ci);
    });
  };

  const std::uint64_t rx0 = sum_counters(sc.rx), tx0 = sum_counters(sc.tx);
  const std::uint64_t hs0 = sum_counters(sc.handshakes);
  const std::uint64_t res0 = sum_counters(sc.resumptions);
  const Micros start = loop.clock().now_us();
  for (std::size_t ci = 0; ci < nclients; ++ci) {
    for (std::size_t d = 0; d < depth; ++d) issue(ci);
  }
  const Micros deadline = start + 180'000'000;
  while (done < total) {
    if (loop.clock().now_us() >= deadline) {
      std::fprintf(stderr, "FAILED: phase %s/%s stalled (%zu/%zu done)\n",
                   phase.c_str(), mode.c_str(), done, total);
      std::exit(1);
    }
    loop.poll(20'000);
  }
  const Micros wall = loop.clock().now_us() - start;

  row.wall_s = static_cast<double>(wall) / 1e6;
  row.req_per_s = static_cast<double>(total) / row.wall_s;
  std::sort(latencies.begin(), latencies.end());
  row.p50_us = percentile(latencies, 0.50);
  row.p99_us = percentile(latencies, 0.99);
  row.bytes_per_s =
      static_cast<double>((sum_counters(sc.rx) - rx0) +
                          (sum_counters(sc.tx) - tx0)) /
      row.wall_s;
  row.handshakes = sum_counters(sc.handshakes) - hs0;
  row.resumptions = sum_counters(sc.resumptions) - res0;
  return row;
}

void write_json(const char* path, const std::vector<PhaseRow>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::perror("fopen");
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"net_loopback\",\n");
  std::fprintf(f,
               "  \"transport\": \"tcp 127.0.0.1 (epoll event loop, "
               "TCP_NODELAY, SO_REUSEPORT at shards > 1)\",\n");
  std::fprintf(f, "  \"phases\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PhaseRow& r = rows[i];
    std::fprintf(f,
                 "    {\"phase\": \"%s\", \"resumption\": \"%s\", "
                 "\"shards\": %zu, \"concurrency\": %d, "
                 "\"pipeline_depth\": %zu, "
                 "\"requests\": %zu, \"failures\": %zu, "
                 "\"wall_s\": %.3f, \"req_per_s\": %.1f, "
                 "\"p50_us\": %lld, \"p99_us\": %lld, "
                 "\"bytes_per_s\": %.0f, "
                 "\"handshakes\": %llu, \"resumptions\": %llu}%s\n",
                 r.phase.c_str(), r.resumption.c_str(), r.shards,
                 r.concurrency, r.pipeline_depth, r.requests, r.failures,
                 r.wall_s, r.req_per_s, static_cast<long long>(r.p50_us),
                 static_cast<long long>(r.p99_us), r.bytes_per_s,
                 static_cast<unsigned long long>(r.handshakes),
                 static_cast<unsigned long long>(r.resumptions),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

/// Collapses the simulated WAN/WiFi model and virtual CPU charges so the
/// measurement isolates the real transport + real crypto.
eval::TestbedConfig bench_config() {
  eval::TestbedConfig config;
  // Enough workers that concurrency x pipeline password requests (which
  // hold a worker for the whole phone round trip, CherryPy-style) never
  // starve the phone's own /token posts — the transport stays the subject.
  config.server.workers = 64;
  config.server.mp_hash.iterations = 1'000;
  config.server.token_compute_mean_ms = 0.0;
  config.server.token_compute_stddev_ms = 0.0;
  config.server.light_compute_ms = 0.0;
  config.phone.compute_mean_ms = 0.0;
  config.phone.compute_stddev_ms = 0.0;
  return config;
}

void flatten_links(eval::Testbed& bed) {
  simnet::LinkProfile fast;
  fast.name = "near-zero";
  fast.base_latency_ms = 0.01;
  fast.jitter_ms = 0.0;
  fast.min_latency_ms = 0.005;
  fast.bandwidth_mbps = 40'000.0;
  fast.loss_probability = 0.0;
  bed.net().set_default_link(fast);
  bed.net().set_duplex_link("amnesia-server", "gcm", fast, fast);
  bed.net().set_duplex_link("gcm", "phone", fast, fast);
  bed.net().set_duplex_link("phone", "amnesia-server", fast, fast);
  bed.net().set_duplex_link("phone", "cloud", fast, fast);
}

std::vector<std::string> parse_csv(const char* arg) {
  std::vector<std::string> items;
  std::string token;
  for (const char* p = arg;; ++p) {
    if (*p != '\0' && *p != ',') {
      token += *p;
      continue;
    }
    if (!token.empty() &&
        std::find(items.begin(), items.end(), token) == items.end()) {
      items.push_back(token);
    }
    token.clear();
    if (*p == '\0') break;
  }
  return items;
}

std::vector<std::size_t> parse_shard_counts(const char* arg) {
  std::vector<std::size_t> counts;
  for (const std::string& token : parse_csv(arg)) {
    const long n = std::strtol(token.c_str(), nullptr, 10);
    if (n >= 1 && std::find(counts.begin(), counts.end(),
                            static_cast<std::size_t>(n)) == counts.end()) {
      counts.push_back(static_cast<std::size_t>(n));
    }
  }
  if (counts.empty()) counts.push_back(1);
  return counts;
}

void print_row(const PhaseRow& r) {
  std::printf("%-10s %-8s %6zu %5d %9zu %9.1f %10lld %10lld %6llu %6llu\n",
              r.phase.c_str(), r.resumption.c_str(), r.shards, r.concurrency,
              r.requests, r.req_per_s, static_cast<long long>(r.p50_us),
              static_cast<long long>(r.p99_us),
              static_cast<unsigned long long>(r.handshakes),
              static_cast<unsigned long long>(r.resumptions));
}

bool check_row(const PhaseRow& r) {
  if (r.failures != 0) {
    std::fprintf(stderr,
                 "FAILED: %zu/%zu %s/%s requests failed at "
                 "concurrency %d, shards %zu\n",
                 r.failures, r.requests, r.phase.c_str(),
                 r.resumption.c_str(), r.concurrency, r.shards);
    return false;
  }
  // The artifact must prove the amortization claim, not just assert it.
  if (r.resumption == "resumed" && r.handshakes != 0) {
    std::fprintf(stderr,
                 "FAILED: resumed %s row paid %llu full handshakes at "
                 "concurrency %d, shards %zu\n",
                 r.phase.c_str(),
                 static_cast<unsigned long long>(r.handshakes),
                 r.concurrency, r.shards);
    return false;
  }
  return true;
}

/// One untimed login per browser client: establishes the channel and
/// caches the first session ticket, so the timed cold/resumed windows
/// start from identical, fully-warmed state.
void warm_up_browsers(net::EventLoop& loop,
                      std::vector<BenchClient>& clients) {
  std::size_t done = 0;
  for (BenchClient& c : clients) {
    c.browser->login(c.user, kMasterPassword, [&](Status s) {
      if (!s.ok()) {
        std::fprintf(stderr, "FAILED: warmup login: %s\n",
                     s.message().c_str());
        std::exit(1);
      }
      ++done;
    });
  }
  const Micros deadline = loop.clock().now_us() + 60'000'000;
  while (done < clients.size()) {
    if (loop.clock().now_us() >= deadline) {
      std::fprintf(stderr, "FAILED: warmup stalled\n");
      std::exit(1);
    }
    loop.poll(20'000);
  }
}

/// cold / resumed: per-browser-client phases where every timed operation
/// re-establishes the secure channel (full handshake vs ticket resume).
void run_browser_mode(net::EventLoop& loop, eval::Deployment& st,
                      const std::string& mode, int conc,
                      const ShardCounters& sc, std::vector<PhaseRow>& rows,
                      std::uint64_t& next_seed) {
  const bool cold = mode == "cold";
  std::vector<BenchClient> clients;
  for (int i = 0; i < conc; ++i) {
    clients.push_back(make_client(loop, st.port(), st.public_key(),
                                  bench_user(i), next_seed++));
  }
  warm_up_browsers(loop, clients);

  // Depth 1: a reset per operation would fail pipelined siblings, and the
  // point is the per-establishment cost anyway.
  const Op login_op = [&clients, cold](std::size_t ci,
                                       std::function<void(bool)> cb) {
    BenchClient& c = clients[ci];
    if (cold) c.browser->channel().forget_ticket();
    c.browser->channel().reset();
    c.browser->login(c.user, kMasterPassword,
                     [cb = std::move(cb)](Status s) { cb(s.ok()); });
  };
  const Op password_op = [&clients, cold](std::size_t ci,
                                          std::function<void(bool)> cb) {
    BenchClient& c = clients[ci];
    if (cold) c.browser->channel().forget_ticket();
    c.browser->channel().reset();
    c.browser->request_password(
        kAccountUser, kAccountDomain,
        [cb = std::move(cb)](Result<std::string> r) { cb(r.ok()); });
  };

  PhaseRow login_row =
      run_phase(loop, clients.size(), "login", mode, st.shards(), 1,
                static_cast<std::size_t>(conc) * 60, login_op, sc);
  PhaseRow password_row =
      run_phase(loop, clients.size(), "password", mode, st.shards(), 1,
                static_cast<std::size_t>(conc) * 25, password_op, sc);

  for (const PhaseRow& r : {login_row, password_row}) {
    print_row(r);
    if (!check_row(r)) std::exit(1);
  }
  rows.push_back(login_row);
  rows.push_back(password_row);

  for (BenchClient& c : clients) c.rpc->close();
  for (int i = 0; i < 10; ++i) loop.poll(1'000);
}

/// pooled: raw HTTP clients (one cookie jar per user) multiplexed over a
/// single bounded ConnectionPool; extra dials resume from the pool's
/// shared ticket cache.
void run_pooled_mode(net::EventLoop& loop, eval::Deployment& st,
                     int conc, const ShardCounters& sc,
                     std::vector<PhaseRow>& rows, std::uint64_t& next_seed) {
  crypto::ChaChaDrbg rng(next_seed++);
  websvc::ConnectionPoolConfig pc;
  pc.max_connections = static_cast<std::size_t>(conc);
  websvc::ConnectionPool pool(loop, "127.0.0.1", st.port(), st.public_key(),
                              rng, pc);

  struct PoolClient {
    std::string user;
    std::string label;
    websvc::HttpClient http;
  };
  std::vector<std::unique_ptr<PoolClient>> clients;
  for (int i = 0; i < conc; ++i) {
    clients.push_back(std::unique_ptr<PoolClient>(new PoolClient{
        bench_user(i), "bench-pool-" + std::to_string(i),
        websvc::HttpClient(pool.transport())}));
  }

  // Untimed warmup: every user logs in once — fills each cookie jar and
  // seeds the pool's ticket cache with the first connection's ticket.
  std::size_t warmed = 0;
  for (auto& c : clients) {
    c->http.post_form("/login",
                      {{"user", c->user}, {"master_password", kMasterPassword}},
                      [&](Result<websvc::Response> r) {
                        if (!r.ok() || r.value().status != 200) {
                          std::fprintf(stderr, "FAILED: pooled warmup login\n");
                          std::exit(1);
                        }
                        ++warmed;
                      });
  }
  const Micros deadline = loop.clock().now_us() + 60'000'000;
  while (warmed < clients.size()) {
    if (loop.clock().now_us() >= deadline) {
      std::fprintf(stderr, "FAILED: pooled warmup stalled\n");
      std::exit(1);
    }
    loop.poll(20'000);
  }

  const Op login_op = [&clients](std::size_t ci,
                                 std::function<void(bool)> cb) {
    PoolClient& c = *clients[ci];
    c.http.post_form(
        "/login", {{"user", c.user}, {"master_password", kMasterPassword}},
        [cb = std::move(cb)](Result<websvc::Response> r) {
          cb(r.ok() && r.value().status == 200);
        });
  };
  const Op password_op = [&clients](std::size_t ci,
                                    std::function<void(bool)> cb) {
    PoolClient& c = *clients[ci];
    websvc::Request req;
    req.method = websvc::Method::kPost;
    req.path = "/password/request";
    req.headers["Content-Type"] = "application/x-www-form-urlencoded";
    req.headers["X-Origin-IP"] = c.label;
    req.body = websvc::form_encode(
        {{"username", kAccountUser}, {"domain", kAccountDomain}});
    c.http.send(std::move(req),
                [cb = std::move(cb)](Result<websvc::Response> r) {
                  cb(r.ok() && r.value().status == 200 &&
                     r.value().form().count("password") > 0);
                });
  };

  PhaseRow login_row =
      run_phase(loop, clients.size(), "login", "pooled", st.shards(),
                kPipelineDepth, static_cast<std::size_t>(conc) * 60,
                login_op, sc);
  PhaseRow password_row =
      run_phase(loop, clients.size(), "password", "pooled", st.shards(),
                kPipelineDepth, static_cast<std::size_t>(conc) * 25,
                password_op, sc);

  for (const PhaseRow& r : {login_row, password_row}) {
    print_row(r);
    if (!check_row(r)) std::exit(1);
  }
  rows.push_back(login_row);
  rows.push_back(password_row);
  // The pool's connections close with it; drain before the next level.
}

/// One full mode x concurrency sweep against an N-shard deployment.
int run_shard_matrix(std::size_t shards,
                     const std::vector<std::string>& modes,
                     std::vector<PhaseRow>& rows, std::uint64_t& next_seed) {
  eval::DeploymentConfig sc_config;
  sc_config.shards = shards;
  sc_config.transport = eval::Transport::kTcp;
  sc_config.base = bench_config();
  eval::Deployment st(sc_config);

  const int max_conc = *std::max_element(kConcurrency.begin(),
                                         kConcurrency.end());
  for (std::size_t k = 0; k < st.worlds(); ++k) flatten_links(st.world(k));
  // One user per client slot, provisioned on its owner bed while the
  // deployment is still single-threaded; each then pins one account.
  for (int i = 0; i < max_conc; ++i) {
    const std::string user = bench_user(i);
    eval::Testbed& owner = st.world_of(user);
    if (Status s = owner.provision(user, kMasterPassword); !s.ok()) {
      std::fprintf(stderr, "FAILED: provision %s: %s\n", user.c_str(),
                   s.message().c_str());
      return 1;
    }
    if (Status s = owner.add_account(kAccountUser, kAccountDomain); !s.ok()) {
      std::fprintf(stderr, "FAILED: add_account %s: %s\n", user.c_str(),
                   s.message().c_str());
      return 1;
    }
  }
  st.start();

  ShardCounters sc;
  for (std::size_t k = 0; k < st.servers(); ++k) {
    obs::MetricsRegistry& m = st.server(k).metrics();
    sc.rx.push_back(&m.counter("net.bytes_rx"));
    sc.tx.push_back(&m.counter("net.bytes_tx"));
    sc.handshakes.push_back(&m.counter("securechan.handshakes"));
    sc.resumptions.push_back(&m.counter("securechan.resumptions"));
  }

  net::EventLoop loop;
  for (const int conc : kConcurrency) {
    for (const std::string& mode : modes) {
      if (mode == "pooled") {
        run_pooled_mode(loop, st, conc, sc, rows, next_seed);
      } else if (mode == "cold" || mode == "resumed") {
        run_browser_mode(loop, st, mode, conc, sc, rows, next_seed);
      } else {
        std::fprintf(stderr, "FAILED: unknown resumption mode '%s'\n",
                     mode.c_str());
        return 1;
      }
      for (int i = 0; i < 10; ++i) loop.poll(1'000);
    }
  }
  st.stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_net_loopback.json";
  const std::vector<std::size_t> shard_counts =
      parse_shard_counts(argc > 2 ? argv[2] : "1");
  std::vector<std::string> modes =
      parse_csv(argc > 3 ? argv[3] : "cold,resumed,pooled");
  if (modes.empty()) modes = {"cold", "resumed", "pooled"};

  std::vector<PhaseRow> rows;
  std::uint64_t next_seed = 1;
  std::printf("%-10s %-8s %6s %5s %9s %9s %10s %10s %6s %6s\n", "phase",
              "resume", "shards", "conc", "reqs", "req/s", "p50_us",
              "p99_us", "hs", "res");
  for (const std::size_t shards : shard_counts) {
    if (run_shard_matrix(shards, modes, rows, next_seed) != 0) return 1;
  }

  write_json(out_path, rows);
  std::printf("wrote %s\n", out_path);
  return 0;
}
