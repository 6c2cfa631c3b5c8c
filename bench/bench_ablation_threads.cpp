// Ablation A2 (DESIGN.md): server worker-pool sizing under load.
//
// The paper's prototype allocates a fixed CherryPy pool of 10 threads and
// notes the server-side hash could bottleneck the system. The real
// bottleneck this ablation exposes is sharper: a password request parks
// its worker for the entire phone round-trip (~800 ms), and the phone's
// /token POST must be served by the SAME pool. If every worker is parked,
// the token that would release them starves behind them in the queue —
// a pool-wide livelock that only the 30 s phone timeout clears. The pool
// must therefore stay strictly larger than the number of concurrently
// waiting generations; the paper's 10 threads support at most 9.
//
// Sweep 1 fixes the offered concurrency and varies the pool: the cliff
// between "pool <= clients" (collapse) and "pool > clients" (healthy).
// Sweep 2 fixes the paper's 10 workers and varies concurrency: throughput
// rises linearly until 9 concurrent clients, then falls off the cliff.
//
// All per-run numbers are read from the testbed's MetricsRegistry —
// counters (server.passwords_generated, server.requests_timed_out), the
// threadpool.max_queue_depth gauge, and p50/p95/p99 of the
// protocol.round_latency_us histogram — and every run's snapshot lands in
// BENCH_ablation_threads.json, byte-identical for a given seed.
//
//   ./bench/bench_ablation_threads [virtual_seconds]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "eval/testbed.h"
#include "obs/metrics.h"

using namespace amnesia;

namespace {

struct SweepResult {
  std::uint64_t completed = 0;
  std::uint64_t timed_out = 0;
  double throughput_per_s = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  std::int64_t max_queue_depth = 0;
  obs::Snapshot metrics;
};

SweepResult run_load(int workers, int clients, double virtual_seconds) {
  eval::TestbedConfig config;
  config.seed = 1000 + static_cast<std::uint64_t>(workers * 100 + clients);
  config.server.workers = workers;
  eval::Testbed bed(config);
  if (!bed.provision("loaduser", "mp").ok() ||
      !bed.add_account("Alice", "mail.google.com").ok()) {
    std::fprintf(stderr, "setup failed\n");
    std::exit(1);
  }

  std::vector<std::unique_ptr<client::Browser>> fleet;
  for (int i = 0; i < clients; ++i) {
    auto browser = bed.make_browser("load-pc-" + std::to_string(i));
    if (!bed.login_from(*browser, "loaduser", "mp").ok()) {
      std::fprintf(stderr, "login failed\n");
      std::exit(1);
    }
    fleet.push_back(std::move(browser));
  }
  bed.server().clear_latencies();
  // Measure the load phase only: zero the registry after provisioning so
  // the reported counters/histograms cover exactly the closed-loop run.
  bed.server().metrics().reset_values();

  const Micros deadline = bed.sim().now() + ms_to_us(virtual_seconds * 1000);

  // Closed loop: each browser re-requests the moment its answer (success
  // or failure) arrives, until the deadline.
  std::function<void(client::Browser&)> issue = [&](client::Browser& b) {
    b.request_password("Alice", "mail.google.com",
                       [&](Result<std::string> r) {
                         (void)r;
                         if (bed.sim().now() < deadline) issue(b);
                       });
  };
  for (auto& browser : fleet) issue(*browser);
  bed.sim().run_until(deadline);
  bed.sim().run_capped(50'000'000);  // drain in-flight work

  SweepResult result;
  result.metrics = bed.server().metrics().snapshot();
  // find(), not operator[]: a fully collapsed run may lack a metric, and
  // inserting a default would perturb the exported snapshot.
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = result.metrics.counters.find(name);
    return it == result.metrics.counters.end() ? 0 : it->second;
  };
  result.completed = counter("server.passwords_generated");
  result.timed_out = counter("server.requests_timed_out");
  result.throughput_per_s =
      static_cast<double>(result.completed) / virtual_seconds;
  const auto hist_it =
      result.metrics.histograms.find("protocol.round_latency_us");
  if (hist_it != result.metrics.histograms.end()) {
    result.p50_ms = us_to_ms(obs::quantile(hist_it->second, 0.50));
    result.p95_ms = us_to_ms(obs::quantile(hist_it->second, 0.95));
    result.p99_ms = us_to_ms(obs::quantile(hist_it->second, 0.99));
  }
  const auto gauge_it =
      result.metrics.gauges.find("threadpool.max_queue_depth");
  if (gauge_it != result.metrics.gauges.end()) {
    result.max_queue_depth = gauge_it->second;
  }
  return result;
}

void print_row(const char* key_label, int key, const SweepResult& r,
               bool is_paper) {
  std::printf("%-8d %10llu %10llu %10.2f %9.1f %9.1f %9.1f %10lld%s\n", key,
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.timed_out),
              r.throughput_per_s, r.p50_ms, r.p95_ms, r.p99_ms,
              static_cast<long long>(r.max_queue_depth),
              is_paper ? "  <- paper" : "");
  (void)key_label;
}

/// to_json() yields a complete document; trim the trailing newline so it
/// embeds as a nested object.
std::string embed_json(const obs::Snapshot& snapshot) {
  std::string json = obs::to_json(snapshot);
  while (!json.empty() && json.back() == '\n') json.pop_back();
  return json;
}

void write_run_json(std::ofstream& out, const char* key_label, int key,
                    const SweepResult& r, bool last) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "    {\"%s\": %d, \"completed\": %llu, \"timed_out\": %llu, "
                "\"throughput_per_s\": %.3f,\n     \"p50_ms\": %.3f, "
                "\"p95_ms\": %.3f, \"p99_ms\": %.3f, "
                "\"max_queue_depth\": %lld,\n     \"metrics\": ",
                key_label, key,
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.timed_out),
                r.throughput_per_s, r.p50_ms, r.p95_ms, r.p99_ms,
                static_cast<long long>(r.max_queue_depth));
  out << buf << embed_json(r.metrics) << '}' << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  const double seconds = argc > 1 ? std::atof(argv[1]) : 40.0;

  std::ofstream json("BENCH_ablation_threads.json",
                     std::ios::binary | std::ios::trunc);
  json << "{\n  \"bench\": \"ablation_threads\",\n  \"virtual_seconds\": "
       << seconds << ",\n  \"sweep_workers\": [\n";

  std::printf("Sweep 1: pool size at 8 concurrent clients "
              "(%.0f s virtual time)\n",
              seconds);
  std::printf("%-8s %10s %10s %10s %9s %9s %9s %10s\n", "workers",
              "completed", "timeouts", "gen/s", "p50 ms", "p95 ms", "p99 ms",
              "max queue");
  const std::vector<int> worker_points = {2, 4, 8, 9, 10, 16};
  for (std::size_t i = 0; i < worker_points.size(); ++i) {
    const int workers = worker_points[i];
    const SweepResult r = run_load(workers, 8, seconds);
    print_row("workers", workers, r, workers == 10);
    write_run_json(json, "workers", workers, r,
                   i + 1 == worker_points.size());
  }
  json << "  ],\n  \"sweep_clients\": [\n";
  std::printf("  -> pool <= clients livelocks: every worker waits on a "
              "phone token that\n     is stuck behind it in the queue; "
              "only the 30 s timeout clears it.\n\n");

  std::printf("Sweep 2: concurrent clients at the paper's 10 workers\n");
  std::printf("%-8s %10s %10s %10s %9s %9s %9s %10s\n", "clients",
              "completed", "timeouts", "gen/s", "p50 ms", "p95 ms", "p99 ms",
              "max queue");
  const std::vector<int> client_points = {1, 2, 4, 8, 9, 10, 12};
  for (std::size_t i = 0; i < client_points.size(); ++i) {
    const int clients = client_points[i];
    const SweepResult r = run_load(10, clients, seconds);
    print_row("clients", clients, r, false);
    write_run_json(json, "clients", clients, r,
                   i + 1 == client_points.size());
  }
  json << "  ]\n}\n";
  std::printf("  -> throughput scales linearly to 9 concurrent "
              "generations (~11/s at\n     ~800 ms each), then collapses: "
              "the 10-thread pool's real capacity is 9.\n");
  std::printf("\nWrote BENCH_ablation_threads.json\n");
  return 0;
}
