// Unit tests for the observability layer: counter/gauge semantics,
// histogram bucketing and quantile properties, span bookkeeping, and the
// lossless text exporter round-trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/error.h"
#include "obs/metrics.h"
#include "resilience/fault.h"
#include "resilience/policy.h"
#include "testutil.h"

namespace amnesia::obs {
namespace {

TEST(CounterTest, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, LosesNothingUnderThreads) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAddAndHighWatermark) {
  Gauge g;
  g.set(5);
  g.add(-2);
  EXPECT_EQ(g.value(), 3);
  g.track_max(10);
  EXPECT_EQ(g.value(), 10);
  g.track_max(7);  // below the watermark: no change
  EXPECT_EQ(g.value(), 10);
  g.set(-4);       // set() is unconditional
  EXPECT_EQ(g.value(), -4);
}

TEST(RegistryTest, HandlesAreStableAndNamed) {
  MetricsRegistry reg;
  Counter& a = reg.counter("a.count");
  a.inc();
  EXPECT_EQ(&reg.counter("a.count"), &a);
  EXPECT_EQ(reg.counter("a.count").value(), 1u);
  // Distinct namespaces: a counter and a gauge may share a name.
  reg.gauge("a.count").set(9);
  EXPECT_EQ(reg.counter("a.count").value(), 1u);
}

TEST(RegistryTest, RejectsNamesWithWhitespace) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.counter(""), Error);
  EXPECT_THROW(reg.counter("has space"), Error);
  EXPECT_THROW(reg.gauge("tab\there"), Error);
  EXPECT_THROW(reg.histogram("new\nline"), Error);
}

TEST(RegistryTest, ResetValuesKeepsHandlesAlive) {
  ManualClock clock;
  MetricsRegistry reg(&clock);
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  Histogram& h = reg.histogram("h");
  c.inc(3);
  g.set(7);
  h.record(100);
  reg.tracer().start_trace("root", "");
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(reg.tracer().snapshot().empty());
  // The handle still points at the live metric.
  c.inc();
  EXPECT_EQ(reg.counter("c").value(), 1u);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({10, 20, 30});
  h.record(10);  // lands in the first bucket: bounds are inclusive
  h.record(11);  // second bucket
  h.record(30);  // third bucket
  h.record(31);  // overflow bucket
  const HistogramSnapshot& d = h.data();
  ASSERT_EQ(d.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(d.counts[0], 1u);
  EXPECT_EQ(d.counts[1], 1u);
  EXPECT_EQ(d.counts[2], 1u);
  EXPECT_EQ(d.counts[3], 1u);
  EXPECT_EQ(d.count, 4u);
  EXPECT_EQ(d.sum, 10 + 11 + 30 + 31);
  EXPECT_EQ(d.min, 10);
  EXPECT_EQ(d.max, 31);
}

TEST(HistogramTest, EmptyQuantilesAreZero) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0);
  EXPECT_EQ(h.quantile(0.99), 0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, QuantilesClampToObservedRange) {
  // One sample: every quantile is that sample, regardless of how coarse
  // the bucket that holds it is.
  Histogram h({1'000'000});
  h.record(137);
  EXPECT_EQ(h.quantile(0.0), 137);
  EXPECT_EQ(h.quantile(0.5), 137);
  EXPECT_EQ(h.quantile(1.0), 137);
}

TEST(HistogramTest, QuantileMonotonicityProperty) {
  // Property: for any recorded sample set, p50 <= p95 <= p99 <= max.
  // Seeded generator, several distributions' worth of shapes.
  std::mt19937_64 rng(20160406);
  for (int trial = 0; trial < 50; ++trial) {
    Histogram h;
    std::uniform_int_distribution<Micros> dist(
        1, 1 + (trial % 7) * 1'000'000);
    const int samples = 1 + static_cast<int>(rng() % 500);
    for (int i = 0; i < samples; ++i) h.record(dist(rng));
    const Micros p50 = h.quantile(0.50);
    const Micros p95 = h.quantile(0.95);
    const Micros p99 = h.quantile(0.99);
    EXPECT_LE(h.min(), p50) << "trial " << trial;
    EXPECT_LE(p50, p95) << "trial " << trial;
    EXPECT_LE(p95, p99) << "trial " << trial;
    EXPECT_LE(p99, h.max()) << "trial " << trial;
  }
}

/// The recorded spans named `name`, in start order.
std::vector<TraceSpan> spans_called(const Tracer& tracer,
                                    const std::string& name) {
  std::vector<TraceSpan> out;
  for (TraceSpan& span : tracer.snapshot()) {
    if (span.name == name) out.push_back(std::move(span));
  }
  return out;
}

TEST(SpanTest, ParentChildNesting) {
  ManualClock clock;
  MetricsRegistry reg(&clock);
  Tracer& tracer = reg.tracer();

  const TraceContext root = tracer.start_trace("protocol.round", "");
  clock.advance_us(100);
  const TraceContext push = tracer.start_span("rendezvous.push", "", root);
  clock.advance_us(400);
  tracer.end(push);
  const TraceContext wait = tracer.start_span("phone.wait", "", root);
  clock.advance_us(700);
  tracer.end(wait);
  tracer.end(root);

  const auto roots = spans_called(tracer, "protocol.round");
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].parent, 0u);
  EXPECT_TRUE(roots[0].finished);
  EXPECT_EQ(roots[0].start, 0);
  EXPECT_EQ(roots[0].end, 1200);

  std::vector<TraceSpan> children;
  for (const TraceSpan& span : tracer.snapshot()) {
    if (span.parent == root.span_id && span.finished) children.push_back(span);
  }
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[0].name, "rendezvous.push");
  EXPECT_EQ(children[0].end - children[0].start, 400);
  EXPECT_EQ(children[1].name, "phone.wait");
  EXPECT_EQ(children[1].end - children[1].start, 700);
  // Children nest inside the parent interval.
  for (const auto& child : children) {
    EXPECT_TRUE(testutil::LatencyBetween(child.start, roots[0].start,
                                         roots[0].end));
    EXPECT_TRUE(
        testutil::LatencyBetween(child.end, roots[0].start, roots[0].end));
  }
}

TEST(SpanTest, EndSpanTolerantOfUnknownAndDoubleEnd) {
  ManualClock clock;
  MetricsRegistry reg(&clock);
  Tracer& tracer = reg.tracer();
  const TraceContext s = tracer.start_trace("s", "");
  clock.advance_us(10);
  tracer.end(s);
  clock.advance_us(10);
  tracer.end(s);                                    // already finished: no-op
  tracer.end(TraceContext{s.trace_id, 0, true});    // the "no span" id: no-op
  tracer.end(TraceContext{s.trace_id, 999, true});  // unknown: no-op
  const auto spans = spans_called(tracer, "s");
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].end, 10);
}

TEST(SpanTest, ScopedTimerRecordsElapsed) {
  ManualClock clock;
  MetricsRegistry reg(&clock);
  Histogram& h = reg.histogram("timed");
  {
    ScopedTimer timer(clock, h);
    clock.advance_us(250);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 250);
}

TEST(ExporterTest, TextRoundTripIsLossless) {
  ManualClock clock;
  clock.set_us(5000);
  MetricsRegistry reg(&clock);
  reg.counter("requests.total").inc(12345);
  reg.gauge("queue.depth").set(-3);
  reg.gauge("pool.busy").set(7);
  Histogram& h = reg.histogram("latency_us", {100, 1000, 10000});
  h.record(50);
  h.record(100);
  h.record(999);
  h.record(1'000'000);
  reg.histogram("empty_us");  // registered but never recorded

  const Snapshot original = reg.snapshot();
  const std::string text = to_text(original);
  const Snapshot parsed = parse_text(text);
  EXPECT_EQ(parsed, original);
  // And the round-trip is a fixed point: re-exporting is byte-identical.
  EXPECT_EQ(to_text(parsed), text);
}

TEST(ExporterTest, ParseRejectsMalformedInput) {
  EXPECT_THROW(parse_text("not a metrics document"), FormatError);
  EXPECT_THROW(parse_text("# amnesia metrics v1\ncounter justonefield\n"),
               FormatError);
}

TEST(ExporterTest, JsonContainsDerivedQuantiles) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("round_us");
  for (int i = 1; i <= 100; ++i) h.record(i * 1000);
  reg.counter("done").inc(100);
  const std::string json = to_json(reg.snapshot());
  EXPECT_NE(json.find("\"round_us\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"done\": 100"), std::string::npos);
  // A complete JSON document: starts with '{' and ends with '}\n'.
  ASSERT_GE(json.size(), 3u);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.substr(json.size() - 2), "}\n");
}

TEST(ExporterTest, ResilienceMetricsExportThroughTheRegistry) {
  // The resilience layer publishes into whatever registry it is handed,
  // so breaker transitions and injected faults ride the same text
  // export (and therefore GET /metrics) as every other subsystem.
  MetricsRegistry reg;

  resilience::CircuitBreaker::Config cfg;
  cfg.failure_threshold = 1;
  cfg.open_cooldown_us = 1000;
  resilience::CircuitBreaker breaker("db", cfg);
  breaker.set_metrics(&reg);
  breaker.record_failure(/*now=*/0);  // threshold 1: opens immediately
  EXPECT_FALSE(breaker.allow(/*now=*/10));

  resilience::FaultInjector injector(/*seed=*/1);
  injector.set_metrics(&reg);
  resilience::FaultRule rule;
  rule.point = "unit.test.point";
  injector.add_rule(rule);
  resilience::ScopedFaultInjector scoped(injector);
  EXPECT_TRUE(resilience::fault_check("unit.test.point").has_value());

  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("resilience.breaker.db.opened"), 1u);
  EXPECT_EQ(snap.counters.at("resilience.faults_injected"), 1u);
  ASSERT_TRUE(snap.gauges.contains("resilience.breaker.db.state"));

  const std::string text = to_text(snap);
  EXPECT_NE(text.find("resilience.breaker.db.opened"), std::string::npos);
  EXPECT_NE(text.find("resilience.faults_injected"), std::string::npos);
  // And the export parses back losslessly, like every other metric.
  EXPECT_EQ(parse_text(text), snap);
}

TEST(MergeSnapshotTest, CountersAndGaugesAdd) {
  Snapshot a;
  a.counters["hits"] = 3;
  a.counters["only_a"] = 1;
  a.gauges["depth"] = 5;
  Snapshot b;
  b.counters["hits"] = 4;
  b.counters["only_b"] = 2;
  b.gauges["depth"] = -1;
  merge_snapshot(a, b);
  EXPECT_EQ(a.counters.at("hits"), 7u);
  EXPECT_EQ(a.counters.at("only_a"), 1u);
  EXPECT_EQ(a.counters.at("only_b"), 2u);
  EXPECT_EQ(a.gauges.at("depth"), 4);
}

TEST(MergeSnapshotTest, MergeIntoEmptyReproducesExactly) {
  ManualClock clock;
  MetricsRegistry reg(&clock);
  reg.counter("c").inc(9);
  reg.gauge("g").set(-3);
  reg.histogram("h").record(50);
  reg.histogram("h").record(5'000);
  const Snapshot original = reg.snapshot();

  Snapshot merged;
  merge_snapshot(merged, original);
  EXPECT_EQ(merged, original);
}

TEST(MergeSnapshotTest, SameBoundsHistogramsMergeBucketwise) {
  ManualClock clock;
  MetricsRegistry rega(&clock);
  MetricsRegistry regb(&clock);
  rega.histogram("lat").record(10);
  rega.histogram("lat").record(100);
  regb.histogram("lat").record(100'000);
  Snapshot a = rega.snapshot();
  const Snapshot b = regb.snapshot();
  merge_snapshot(a, b);

  const HistogramSnapshot& h = a.histograms.at("lat");
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 100'110);
  EXPECT_EQ(h.min, 10);
  EXPECT_EQ(h.max, 100'000);
  std::uint64_t buckets = 0;
  for (const std::uint64_t n : h.counts) buckets += n;
  EXPECT_EQ(buckets, 3u) << "bucket-wise merge must keep every sample";
}

// ------------------------------------------------- bucket exemplars

TraceContext sampled_ctx(std::uint64_t lo, SpanId span = 9) {
  return TraceContext{TraceId{0, lo}, span, /*sampled=*/true};
}

TEST(ExemplarTest, CapturedOnlyFromSampledValidContexts) {
  Histogram h({100, 1000});
  h.record(50, TraceContext{});  // no ambient trace: plain sample
  TraceContext unsampled = sampled_ctx(7);
  unsampled.sampled = false;
  h.record(60, unsampled);  // correlated but not recorded: no exemplar
  EXPECT_TRUE(h.data().exemplars.empty())
      << "invalid/unsampled contexts must not fabricate exemplars";

  h.record(70, sampled_ctx(7), "route /gen");
  const auto exemplars = h.data().exemplars;
  ASSERT_EQ(exemplars.size(), 1u);
  EXPECT_EQ(exemplars[0].bucket, 0u);
  EXPECT_EQ(exemplars[0].trace_id, (TraceId{0, 7}));
  EXPECT_EQ(exemplars[0].value, 70);
  EXPECT_EQ(exemplars[0].attr, "route_/gen")
      << "attr must be squeezed to one whitespace-free token";
}

TEST(ExemplarTest, LatestWinsPerBucketSparseAcrossBuckets) {
  Histogram h({100, 1000});
  h.record(40, sampled_ctx(1));
  h.record(80, sampled_ctx(2));      // same bucket: replaces lo=1
  h.record(500, sampled_ctx(3));     // second bucket
  h.record(50'000, sampled_ctx(4));  // overflow bucket
  const auto exemplars = h.data().exemplars;
  ASSERT_EQ(exemplars.size(), 3u) << "at most one exemplar per bucket";
  EXPECT_EQ(exemplars[0].bucket, 0u);
  EXPECT_EQ(exemplars[0].trace_id, (TraceId{0, 2}))
      << "within one process the latest recording wins";
  EXPECT_EQ(exemplars[1].bucket, 1u);
  EXPECT_EQ(exemplars[2].bucket, 2u) << "overflow bucket carries one too";
  // Sparse and sorted: bucket indices strictly increase.
  for (std::size_t i = 1; i < exemplars.size(); ++i) {
    EXPECT_LT(exemplars[i - 1].bucket, exemplars[i].bucket);
  }
}

TEST(ExemplarTest, SurviveTextAndJsonExport) {
  ManualClock clock;
  MetricsRegistry reg(&clock);
  Histogram& h = reg.histogram("lat", {100, 1000});
  h.record(70, sampled_ctx(0xabc), "proto.round");
  h.record(70'000, sampled_ctx(0xdef), "proto.round");

  const Snapshot original = reg.snapshot();
  const std::string text = to_text(original);
  const Snapshot parsed = parse_text(text);
  EXPECT_EQ(parsed, original)
      << "exemplar lines must round-trip through the text exporter";
  EXPECT_EQ(to_text(parsed), text);

  const std::string json = to_json(original);
  EXPECT_NE(json.find("\"exemplars\""), std::string::npos);
  EXPECT_NE(json.find(trace_id_hex(TraceId{0, 0xabc})), std::string::npos);
  EXPECT_NE(json.find("\"proto.round\""), std::string::npos);
}

TEST(MergeSnapshotTest, ExemplarLargerValueWinsPerBucket) {
  ManualClock clock;
  MetricsRegistry rega(&clock);
  MetricsRegistry regb(&clock);
  rega.histogram("lat", {100}).record(40, sampled_ctx(1));
  rega.histogram("lat", {100}).record(900, sampled_ctx(2));
  regb.histogram("lat", {100}).record(80, sampled_ctx(3));
  regb.histogram("lat", {100}).record(300, sampled_ctx(4));
  Snapshot a = rega.snapshot();
  merge_snapshot(a, regb.snapshot());
  const auto& exemplars = a.histograms.at("lat").exemplars;
  ASSERT_EQ(exemplars.size(), 2u);
  EXPECT_EQ(exemplars[0].trace_id, (TraceId{0, 3}))
      << "bucket 0: b's 80 beats a's 40 (tail-biased merge)";
  EXPECT_EQ(exemplars[1].trace_id, (TraceId{0, 2}))
      << "overflow: a's 900 beats b's 300";
}

// The operator's real fan-in: shard registries merge into one fleet
// snapshot (GET /metrics on the router), and a cluster replica that was
// just promoted serves its own replayed registry alongside. However the
// legs are combined, every sample must count exactly once and the
// exemplars must ride along.
TEST(MergeSnapshotTest, ShardTimesClusterTopologyCountsEverySampleOnce) {
  ManualClock clock;
  MetricsRegistry shard0(&clock);
  MetricsRegistry shard1(&clock);
  MetricsRegistry promoted(&clock);  // replica of a second cluster site

  const std::vector<Micros> bounds = {100, 1000};
  shard0.counter("server.passwords_generated").inc(3);
  shard0.histogram("round_us", bounds).record(50, sampled_ctx(1));
  shard0.histogram("round_us", bounds).record(700, sampled_ctx(2));
  shard1.counter("server.passwords_generated").inc(5);
  shard1.histogram("round_us", bounds).record(90, sampled_ctx(3));
  promoted.counter("server.passwords_generated").inc(2);
  promoted.histogram("round_us", bounds).record(4'000, sampled_ctx(4));

  // Site A: the shard router's scatter-gather merge, one leg per shard.
  Snapshot site_a;
  merge_snapshot(site_a, shard0.snapshot());
  merge_snapshot(site_a, shard1.snapshot());
  // Fleet: site A plus the promoted replica's own registry.
  Snapshot fleet = site_a;
  merge_snapshot(fleet, promoted.snapshot());

  EXPECT_EQ(fleet.counters.at("server.passwords_generated"), 10u)
      << "3 + 5 + 2, each shard and each site counted exactly once";
  const HistogramSnapshot& h = fleet.histograms.at("round_us");
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 50 + 700 + 90 + 4'000);
  std::uint64_t buckets = 0;
  for (const std::uint64_t n : h.counts) buckets += n;
  EXPECT_EQ(buckets, 4u);
  // Exemplars survived both merge levels: bucket 0 keeps the largest of
  // {50, 90}, bucket 1 keeps 700, overflow keeps the replica's 4000.
  ASSERT_EQ(h.exemplars.size(), 3u);
  EXPECT_EQ(h.exemplars[0].trace_id, (TraceId{0, 3}));
  EXPECT_EQ(h.exemplars[1].trace_id, (TraceId{0, 2}));
  EXPECT_EQ(h.exemplars[2].trace_id, (TraceId{0, 4}))
      << "the promoted replica's exemplar must survive the second merge";

  // The textual fleet view (what check_bench and operators consume)
  // still round-trips losslessly with exemplars in place.
  EXPECT_EQ(parse_text(to_text(fleet)), fleet);
}

TEST(MergeSnapshotTest, BoundsMismatchFallsBackToScalars) {
  Snapshot a;
  a.histograms["lat"] = HistogramSnapshot{
      {10, 100}, {1, 1}, /*count=*/2, /*sum=*/60, /*min=*/5, /*max=*/55, {}};
  Snapshot b;
  b.histograms["lat"] = HistogramSnapshot{
      {1000}, {1}, /*count=*/1, /*sum=*/700, /*min=*/700, /*max=*/700, {}};
  merge_snapshot(a, b);
  const HistogramSnapshot& h = a.histograms.at("lat");
  // Series untouched (merging foreign buckets would misfile samples)...
  EXPECT_EQ(h.bounds, (std::vector<Micros>{10, 100}));
  EXPECT_EQ(h.counts, (std::vector<std::uint64_t>{1, 1}));
  // ...but the scalar aggregates still see both sides.
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 760);
  EXPECT_EQ(h.min, 5);
  EXPECT_EQ(h.max, 700);
}

}  // namespace
}  // namespace amnesia::obs
