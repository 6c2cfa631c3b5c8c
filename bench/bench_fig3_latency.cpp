// Regenerates Fig. 3 and the section VI-B summary statistics: password
// generation latency over WiFi and 4G, 100 trials each.
//
// Paper targets: WiFi x=785.3 ms sigma=171.5 ms; 4G x=978.7 ms
// sigma=137.9 ms. The shape claims (WiFi < 4G; sub-1.4 s trials; the
// dispersion ordering) are what must reproduce; absolute numbers follow
// the calibrated link profiles (see src/simnet/link.cpp and DESIGN.md).
//
// Per-phase latency percentiles come from the testbed's MetricsRegistry
// histograms, and the per-hop breakdown is derived from the *real trace
// trees* of the trials: every login is one distributed trace
// (browser -> server -> GCM -> phone -> server -> browser), and
// critical-path attribution splits each trial's wall time into the self
// time of each hop. Everything is virtual time, so the JSON artifact
// (BENCH_fig3_latency.json, including a full sample trace tree and the
// per-bucket histogram exemplars) is byte-identical across runs with the
// same seed. The bench_fig3_latency_exact ctest holds a default run to the
// committed copy byte for byte; after an intended change, regenerate that
// copy by running the binary from the repo root.
//
//   ./bench/bench_fig3_latency [trials] [seed]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "eval/latency.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace amnesia;

namespace {

/// One row per non-empty registry histogram: phase percentiles in ms.
void print_phase_table(const obs::Snapshot& snapshot) {
  std::printf("    %-44s %6s %9s %9s %9s %9s\n", "phase histogram", "count",
              "p50", "p95", "p99", "max");
  for (const auto& [name, hist] : snapshot.histograms) {
    if (hist.count == 0) continue;
    std::printf("    %-44s %6llu %9.1f %9.1f %9.1f %9.1f\n", name.c_str(),
                static_cast<unsigned long long>(hist.count),
                us_to_ms(obs::quantile(hist, 0.50)),
                us_to_ms(obs::quantile(hist, 0.95)),
                us_to_ms(obs::quantile(hist, 0.99)), us_to_ms(hist.max));
  }
}

/// Critical-path table of one network: where each trial's wall clock
/// actually went, per hop, attributed from the real trace trees. "share"
/// is each hop's slice of the summed self time (hops can overlap — the
/// phone's token-POST response rides the downlink after the browser
/// already has its password — so the slices are of span time, not of
/// the browser-observed end-to-end mean).
void print_critical_path(const eval::LatencyResult& result, int trials) {
  std::printf("    %-24s %-10s %6s %12s %12s %10s\n", "hop (span)",
              "component", "count", "self total", "mean/trial", "share");
  Micros root_self_total = 0;
  for (const auto& e : result.critical_path) root_self_total += e.self_us;
  for (const auto& e : result.critical_path) {
    const double mean_ms =
        trials > 0 ? us_to_ms(e.self_us) / trials : 0.0;
    const double share =
        root_self_total > 0
            ? 100.0 * static_cast<double>(e.self_us) /
                  static_cast<double>(root_self_total)
            : 0.0;
    std::printf("    %-24s %-10s %6llu %10.1fms %10.2fms %9.1f%%\n",
                e.name.c_str(), e.component.c_str(),
                static_cast<unsigned long long>(e.count),
                us_to_ms(e.self_us), mean_ms, share);
  }
}

std::string critical_path_json(const eval::LatencyResult& result) {
  std::string out = "[";
  for (std::size_t i = 0; i < result.critical_path.size(); ++i) {
    const auto& e = result.critical_path[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\n       {\"name\": \"%s\", \"component\": \"%s\", "
                  "\"count\": %llu, \"self_us\": %lld, \"total_us\": %lld}",
                  i ? "," : "", e.name.c_str(), e.component.c_str(),
                  static_cast<unsigned long long>(e.count),
                  static_cast<long long>(e.self_us),
                  static_cast<long long>(e.total_us));
    out += buf;
  }
  out += "]";
  return out;
}

/// Exemplar table of one network: every histogram bucket that kept a
/// linked trace. The trace id is the GET /trace/<id> key; with the same
/// seed the table is byte-identical across runs.
void print_exemplars(const obs::Snapshot& snapshot) {
  std::printf("    %-40s %10s %10s %-32s %s\n", "histogram", "bucket<=ms",
              "value ms", "trace id", "attr");
  for (const auto& [name, hist] : snapshot.histograms) {
    for (const auto& ex : hist.exemplars) {
      const bool overflow = ex.bucket >= hist.bounds.size();
      char bound[32];
      if (overflow) {
        std::snprintf(bound, sizeof(bound), "%10s", "+inf");
      } else {
        std::snprintf(bound, sizeof(bound), "%10.1f",
                      us_to_ms(hist.bounds[ex.bucket]));
      }
      std::printf("    %-40s %s %10.1f %-32s %s\n", name.c_str(), bound,
                  us_to_ms(ex.value), obs::trace_id_hex(ex.trace_id).c_str(),
                  ex.attr.empty() ? "-" : ex.attr.c_str());
    }
  }
}

std::string exemplars_json(const obs::Snapshot& snapshot) {
  std::string out = "[";
  bool first = true;
  for (const auto& [name, hist] : snapshot.histograms) {
    for (const auto& ex : hist.exemplars) {
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "%s\n       {\"histogram\": \"%s\", \"bucket\": %llu, "
                    "\"trace_id\": \"%s\", \"value_us\": %lld, "
                    "\"attr\": \"%s\"}",
                    first ? "" : ",", name.c_str(),
                    static_cast<unsigned long long>(ex.bucket),
                    obs::trace_id_hex(ex.trace_id).c_str(),
                    static_cast<long long>(ex.value), ex.attr.c_str());
      out += buf;
      first = false;
    }
  }
  out += "]";
  return out;
}

/// to_json() yields a complete document; trim the trailing newline so it
/// embeds as a nested object.
std::string embed_json(const obs::Snapshot& snapshot) {
  std::string json = obs::to_json(snapshot);
  while (!json.empty() && json.back() == '\n') json.pop_back();
  return json;
}

std::string embed_trace(const std::string& trace_json) {
  if (trace_json.empty()) return "[]";
  std::string json = trace_json;
  while (!json.empty() && json.back() == '\n') json.pop_back();
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  const int trials = argc > 1 ? std::atoi(argv[1]) : 100;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 2016;

  std::printf("Fig. 3 — Amnesia password-generation latency "
              "(%d trials per network, seed %llu)\n\n",
              trials, static_cast<unsigned long long>(seed));

  const auto results = eval::run_fig3(trials, seed);

  // The figure annotates a handful of individual trials; print the first
  // 12 of each series the same way.
  std::printf("%-6s", "trial");
  for (const auto& result : results) {
    std::printf("%12s", result.network_name.c_str());
  }
  std::printf("   (ms)\n");
  for (int i = 0; i < 12 && i < trials; ++i) {
    std::printf("%-6d", i + 1);
    for (const auto& result : results) {
      std::printf("%12.0f", result.samples_ms[static_cast<std::size_t>(i)]);
    }
    std::printf("\n");
  }

  std::printf("\n%-8s %10s %10s %10s %10s %10s   %s\n", "network", "mean",
              "stddev", "min", "median", "max", "paper (mean/stddev)");
  const char* paper[] = {"785.3 / 171.5", "978.7 / 137.9"};
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& s = results[i].summary;
    std::printf("%-8s %10.1f %10.1f %10.1f %10.1f %10.1f   %s\n",
                results[i].network_name.c_str(), s.mean, s.stddev, s.min,
                s.median, s.max, paper[i]);
  }

  // Per-phase breakdown straight from the registry: where the round-trip
  // actually went (push leg, token POST, pool queueing, ...).
  std::printf("\nPer-phase latency percentiles "
              "(MetricsRegistry histograms, ms):\n");
  for (const auto& result : results) {
    std::printf("  %s\n", result.network_name.c_str());
    print_phase_table(result.metrics);
  }

  // The trace-derived view: each trial is one distributed trace tree over
  // browser -> server -> GCM -> phone -> server -> browser; critical-path
  // attribution charges every microsecond of the root's duration to
  // exactly one hop (self time = duration minus children's union).
  std::printf("\nCritical-path attribution "
              "(from %d real trace trees per network):\n",
              trials);
  for (const auto& result : results) {
    std::printf("  %s\n", result.network_name.c_str());
    print_critical_path(result, trials);
  }

  // Exemplars: the p99 bucket is not an anonymous number — each bucket
  // keeps the trace id of a real trial that landed there.
  std::printf("\nHistogram exemplars (bucket -> linked trace):\n");
  for (const auto& result : results) {
    std::printf("  %s\n", result.network_name.c_str());
    print_exemplars(result.metrics);
  }

  // Distribution shape, Fig. 3's scatter rendered as histograms.
  std::printf("\nLatency distribution (100 ms bins):\n");
  for (const auto& result : results) {
    std::printf("  %s\n", result.network_name.c_str());
    constexpr double kBin = 100.0;
    std::map<int, int> bins;
    for (const double ms : result.samples_ms) {
      ++bins[static_cast<int>(ms / kBin)];
    }
    for (const auto& [bin, count] : bins) {
      std::printf("    %5d-%-5d %s %d\n", bin * 100, bin * 100 + 99,
                  std::string(static_cast<std::size_t>(count), '#').c_str(),
                  count);
    }
  }

  // Where the time goes: the calibrated component model (see
  // src/simnet/link.cpp and the server/phone compute configs).
  std::printf("\nComponent budget (calibrated means, ms):\n");
  std::printf("  %-28s %8s %8s\n", "component", "Wifi", "4G");
  std::printf("  %-28s %8.0f %8.0f\n", "server -> rendezvous (dc)", 8.0, 8.0);
  std::printf("  %-28s %8.0f %8.0f\n", "push -> phone (downlink)", 560.0,
              640.0);
  std::printf("  %-28s %8.0f %8.0f\n", "phone token compute", 25.0, 25.0);
  std::printf("  %-28s %8.0f %8.0f\n", "token -> server (uplink)", 177.0,
              291.0);
  std::printf("  %-28s %8.0f %8.0f\n", "server password compute", 15.0, 15.0);
  std::printf("  %-28s %8.0f %8.0f\n", "total (vs paper 785.3 / 978.7)",
              785.0, 979.0);

  std::printf("\nConclusion check: Wifi mean < 4G mean: %s; both < 1.4 s "
              "typical: %s\n",
              results[0].summary.mean < results[1].summary.mean ? "yes"
                                                                : "NO",
              results[0].summary.mean < 1400 &&
                      results[1].summary.mean < 1400
                  ? "yes"
                  : "NO");

  // Machine-readable artifact: per-network summary + full registry
  // snapshot. Everything is virtual-time, so the file is byte-identical
  // across runs with the same seed.
  {
    std::ofstream out("BENCH_fig3_latency.json",
                      std::ios::binary | std::ios::trunc);
    out << "{\n  \"bench\": \"fig3_latency\",\n  \"trials\": " << trials
        << ",\n  \"seed\": " << seed << ",\n  \"networks\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& s = results[i].summary;
      // Tail summary for the regression gate: p99 over the trial samples
      // (nearest-rank), deterministic like the rest of the row.
      std::vector<double> sorted = results[i].samples_ms;
      std::sort(sorted.begin(), sorted.end());
      const double p99 =
          sorted.empty()
              ? 0.0
              : sorted[std::min(sorted.size() - 1,
                                static_cast<std::size_t>(
                                    0.99 * static_cast<double>(sorted.size())))];
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "    {\"name\": \"%s\", \"mean_ms\": %.3f, "
                    "\"stddev_ms\": %.3f, \"min_ms\": %.3f, "
                    "\"median_ms\": %.3f, \"p99_ms\": %.3f, "
                    "\"max_ms\": %.3f,\n"
                    "     \"critical_path\": ",
                    results[i].network_name.c_str(), s.mean, s.stddev, s.min,
                    s.median, p99, s.max);
      out << buf << critical_path_json(results[i])
          << ",\n     \"exemplars\": " << exemplars_json(results[i].metrics)
          << ",\n     \"sample_trace\": "
          << embed_trace(results[i].sample_trace_json)
          << ",\n     \"metrics\": " << embed_json(results[i].metrics) << '}'
          << (i + 1 < results.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
  }
  std::printf("\nWrote BENCH_fig3_latency.json\n");
  return 0;
}
