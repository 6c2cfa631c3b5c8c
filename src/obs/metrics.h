// Observability layer: metrics registry, latency histograms, trace spans.
//
// Every number the evaluation reports (Fig. 3 latency percentiles, the
// thread-count ablation, Tables 1-3 byte counts) is ultimately a
// measurement of the bilateral protocol, and before this module every
// bench binary hand-rolled its own counters and accumulators. The obs
// layer gives all subsystems one deterministic instrumentation surface:
//
//   Counter    monotonically increasing event count;
//   Gauge      point-in-time signed value (queue depth, busy workers),
//              with a high-watermark helper;
//   Histogram  fixed-bucket latency histogram over Micros values with
//              deterministic p50/p95/p99 queries — quantiles are computed
//              from bucket boundaries and clamped to the observed
//              [min, max], so for any recorded sample set
//              p50 <= p95 <= p99 <= max holds exactly;
//   Tracer     (obs/trace.h, one per registry) records the spans that
//              decompose a bilateral round (browser -> server ->
//              rendezvous -> phone -> server -> browser) into its phases.
//
// All timing comes from an injected Clock — under simnet::Simulation that
// is virtual time, so two runs with the same seed export byte-identical
// snapshots. Nothing here reads the wall clock.
//
// Snapshots export to a plain-text line format (served on GET /metrics)
// that parses back losslessly, and to JSON for BENCH_*.json artifacts.
// See docs/OBSERVABILITY.md for the naming convention and span model.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "common/clock.h"
#include "obs/trace.h"

namespace amnesia::obs {

// Counter and Gauge are lock-free atomics (relaxed — they are statistics,
// not synchronization), so the real event-loop thread, worker threads, and
// a metrics scraper may touch them concurrently. Histogram and the
// registry's name->handle maps take a mutex instead: multi-word updates
// have no cheap atomic form and neither is on a per-byte hot path.

class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  /// High-watermark update: keeps the maximum value ever set.
  void track_max(std::int64_t v) {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// A per-bucket exemplar: one real trace that landed in the bucket, so a
/// bad histogram bucket links to a GET /trace/<id> tree instead of being
/// an anonymous number. `bucket` indexes `counts` (the trailing overflow
/// bucket included); `attr` is one whitespace-free token of context (the
/// route pattern, the span name).
struct Exemplar {
  std::size_t bucket = 0;
  TraceId trace_id;
  Micros value = 0;
  std::string attr;

  bool operator==(const Exemplar&) const = default;
};

/// The exported state of one histogram. `bounds` are inclusive upper
/// bucket bounds in ascending order; `counts` has one extra trailing
/// overflow bucket (conceptually "+inf"). `exemplars` is sparse (at most
/// one per bucket), sorted by bucket index.
struct HistogramSnapshot {
  std::vector<Micros> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  Micros min = 0;
  Micros max = 0;
  std::vector<Exemplar> exemplars;

  bool operator==(const HistogramSnapshot&) const = default;
};

/// Deterministic bucket-boundary quantile, clamped to the observed
/// [min, max]; returns 0 on an empty histogram. Monotonic in q.
Micros quantile(const HistogramSnapshot& h, double q);

/// Default latency buckets, exponential-ish from 100 us to 60 s.
const std::vector<Micros>& default_latency_bounds();

/// Finer buckets from 1 us to 1 s for in-process intervals (reactor
/// callback durations, wake->dispatch delays) that live far below the
/// default bounds' 100 us floor.
const std::vector<Micros>& fine_latency_bounds();

class Histogram {
 public:
  explicit Histogram(std::vector<Micros> bounds = default_latency_bounds());

  /// Records a value; if a sampled trace context is ambient on this
  /// thread (obs::current_trace()), it is captured as the bucket's
  /// exemplar (latest recording wins).
  void record(Micros value) { record(value, current_trace()); }
  /// Records with an explicit exemplar context (invalid/unsampled ctx
  /// records no exemplar). `attr` is sanitized to one token.
  void record(Micros value, const TraceContext& ctx, std::string attr = {});
  Micros quantile(double q) const { return obs::quantile(data(), q); }
  std::uint64_t count() const { return locked().count; }
  std::int64_t sum() const { return locked().sum; }
  Micros min() const { return locked().min; }
  Micros max() const { return locked().max; }
  /// Mean in microseconds (0 when empty).
  double mean() const;
  /// Consistent copy of the current state.
  HistogramSnapshot data() const { return locked(); }
  void reset();

 private:
  HistogramSnapshot locked() const {
    std::lock_guard<std::mutex> lock(mu_);
    return data_;
  }

  mutable std::mutex mu_;
  HistogramSnapshot data_;
};

/// A full, comparable export of the registry's metric state. Spans are
/// kept out of the snapshot: they are a trace, not a metric, and are read
/// through MetricsRegistry::tracer().
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool operator==(const Snapshot&) const = default;
};

/// Folds `other` into `into`: counters and gauges add; histograms with
/// identical bucket bounds merge bucket-wise (count/sum add, min/max
/// widen), while a bounds mismatch keeps `into`'s series untouched and
/// adds only the scalar count/sum. Exemplars survive the merge: per
/// bucket the larger-valued exemplar wins (tail-biased and commutative
/// on distinct values), so an aggregate scrape still links its worst
/// buckets to real traces. Used by the shard router to serve one
/// aggregate GET /metrics over shared-nothing per-shard registries;
/// merging a snapshot into an empty one reproduces it exactly.
void merge_snapshot(Snapshot& into, const Snapshot& other);

/// Plain-text export ("# amnesia metrics v1" line format). Lossless:
/// parse_text(to_text(s)) == s.
std::string to_text(const Snapshot& snapshot);

/// Parses the to_text format. Throws FormatError on malformed input.
Snapshot parse_text(const std::string& text);

/// JSON export (write-only) with derived p50/p95/p99 per histogram —
/// the BENCH_*.json-compatible shape benches embed in their artifacts.
std::string to_json(const Snapshot& snapshot);

/// Named-metric registry plus its tracer and event log. Handles returned
/// by counter() / gauge() / histogram() are stable for the registry's
/// lifetime, so hot paths resolve the name once and keep the pointer.
class MetricsRegistry {
 public:
  /// `clock` drives span and ScopedTimer timestamps; it may be null when
  /// only counters/gauges/histograms-with-explicit-values are used.
  explicit MetricsRegistry(const Clock* clock = nullptr)
      : clock_(clock), tracer_(clock), events_(clock) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void set_clock(const Clock* clock) {
    clock_ = clock;
    tracer_.set_clock(clock);
    events_.set_clock(clock);
  }
  Micros now() const { return clock_ ? clock_->now_us() : 0; }

  /// The distributed tracer sharing this registry's clock.
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  /// The structured event log (resilience events, shed 503s, ...),
  /// served on GET /events next to /metrics.
  EventLog& events() { return events_; }
  const EventLog& events() const { return events_; }

  /// Finds or creates. Names must be non-empty and whitespace-free (they
  /// are tokens of the text export format); throws Error otherwise.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);
  /// Creates with explicit bucket bounds; bounds are ignored if the
  /// histogram already exists (first registration wins).
  Histogram& histogram(const std::string& name, std::vector<Micros> bounds);

  /// Comparable export of all counters/gauges/histograms.
  Snapshot snapshot() const;

  /// Zeroes every metric value and clears the tracer and the event log,
  /// keeping the metric objects (and any held handles) alive. Used to
  /// discard warm-up traffic before a measured experiment.
  void reset_values();

 private:
  static void check_name(const std::string& name);

  const Clock* clock_;
  /// Guards the name->handle maps. Handles stay valid without the lock
  /// (unique_ptr targets never move). Spans live in tracer_, which has
  /// its own finer-grained locking.
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  Tracer tracer_;
  EventLog events_;
};

/// One named metric, looked up in its registry at its first use and held
/// from then on. It joins the registry's snapshot exactly when its first
/// event fires, as a lookup at the event would, and later events skip the
/// lookup (the name check, the registry mutex and the map walk). A null
/// registry counts nothing; a different registry is looked up afresh.
/// The held pointer is atomic, so other threads may read value().
template <class Metric>
class LazyMetric {
 public:
  explicit LazyMetric(const char* name) : name_(name) {}

  Metric* get(MetricsRegistry* registry) {
    if (registry == nullptr) return nullptr;
    Metric* m = held_.load(std::memory_order_acquire);
    if (m == nullptr || registry != from_) {
      if constexpr (std::is_same_v<Metric, Counter>) {
        m = &registry->counter(name_);
      } else if constexpr (std::is_same_v<Metric, Gauge>) {
        m = &registry->gauge(name_);
      } else {
        m = &registry->histogram(name_);
      }
      from_ = registry;
      held_.store(m, std::memory_order_release);
    }
    return m;
  }
  void inc(MetricsRegistry* registry, std::uint64_t n = 1) {
    if (Metric* m = get(registry)) m->inc(n);
  }
  /// Reads without a lookup: before its first event the metric reads 0.
  auto value() const {
    const Metric* m = held_.load(std::memory_order_acquire);
    return m ? m->value() : decltype(m->value()){};
  }

 private:
  const char* name_;
  MetricsRegistry* from_ = nullptr;
  std::atomic<Metric*> held_{nullptr};
};

using LazyCounter = LazyMetric<Counter>;
using LazyGauge = LazyMetric<Gauge>;
using LazyHistogram = LazyMetric<Histogram>;

/// RAII timer: records the elapsed clock time into a histogram on
/// destruction. For synchronous sections only — async intervals capture
/// the start time in their callback chain instead.
class ScopedTimer {
 public:
  ScopedTimer(const Clock& clock, Histogram& hist)
      : clock_(clock), hist_(hist), start_(clock.now_us()) {}
  ~ScopedTimer() { hist_.record(clock_.now_us() - start_); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const Clock& clock_;
  Histogram& hist_;
  Micros start_;
};

}  // namespace amnesia::obs
