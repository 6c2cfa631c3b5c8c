// Unit tests for the tracing layer: the X-Amnesia-Trace header codec
// (including hostile inputs), deterministic head sampling, the bounded
// span store, ambient-context scoping, the event log, and critical-path
// attribution.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "obs/trace.h"

namespace amnesia::obs {
namespace {

TraceContext make_ctx(std::uint64_t hi, std::uint64_t lo, SpanId span,
                      bool sampled) {
  TraceContext ctx;
  ctx.trace_id = {hi, lo};
  ctx.span_id = span;
  ctx.sampled = sampled;
  return ctx;
}

// ------------------------------------------------------------ header codec

TEST(TraceHeaderTest, RoundTripsCanonicalForm) {
  const TraceContext ctx =
      make_ctx(0x0123456789abcdefull, 0xfedcba9876543210ull, 0x42, true);
  const std::string header = format_trace_header(ctx);
  EXPECT_EQ(header.size(), kTraceHeaderLen);
  EXPECT_EQ(header,
            "0123456789abcdeffedcba9876543210-0000000000000042-01");

  const auto parsed = parse_trace_header(header);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->trace_id, ctx.trace_id);
  EXPECT_EQ(parsed->span_id, ctx.span_id);
  EXPECT_TRUE(parsed->sampled);
}

TEST(TraceHeaderTest, UnsampledFlagRoundTrips) {
  const TraceContext ctx = make_ctx(1, 2, 3, false);
  const auto parsed = parse_trace_header(format_trace_header(ctx));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->sampled);
}

TEST(TraceHeaderTest, RejectsHostileValues) {
  const std::string good = format_trace_header(make_ctx(1, 2, 3, true));
  ASSERT_TRUE(parse_trace_header(good).has_value());

  // Oversized / truncated.
  EXPECT_FALSE(parse_trace_header(good + "ff").has_value());
  EXPECT_FALSE(parse_trace_header(good.substr(0, 20)).has_value());
  EXPECT_FALSE(parse_trace_header("").has_value());
  EXPECT_FALSE(
      parse_trace_header(std::string(4096, 'a')).has_value());

  // Non-hex bytes, uppercase (canonical form is lowercase), injection
  // attempts — all dropped, same as any other malformed value.
  std::string bad = good;
  bad[0] = 'G';
  EXPECT_FALSE(parse_trace_header(bad).has_value());
  bad = good;
  bad[0] = 'A';  // uppercase hex is not canonical
  EXPECT_FALSE(parse_trace_header(bad).has_value());
  bad = good;
  bad[5] = '\r';
  EXPECT_FALSE(parse_trace_header(bad).has_value());
  bad = good;
  bad[33] = '\n';
  EXPECT_FALSE(parse_trace_header(bad).has_value());

  // Dashes out of position.
  bad = good;
  std::swap(bad[32], bad[33]);
  EXPECT_FALSE(parse_trace_header(bad).has_value());

  // Zero ids are "no trace" and must not be accepted from the wire.
  EXPECT_FALSE(
      parse_trace_header(format_trace_header(make_ctx(0, 0, 3, true)))
          .has_value());
  EXPECT_FALSE(
      parse_trace_header(format_trace_header(make_ctx(1, 2, 0, true)))
          .has_value());

  // Flags beyond {00, 01}.
  bad = good;
  bad[50] = 'f';
  bad[51] = 'f';
  EXPECT_FALSE(parse_trace_header(bad).has_value());
}

TEST(TraceHeaderTest, TraceIdHexRoundTrip) {
  const TraceId id{0x00000000000000ffull, 0xab00000000000001ull};
  const std::string hex = trace_id_hex(id);
  EXPECT_EQ(hex.size(), 32u);
  const auto parsed = parse_trace_id_hex(hex);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, id);

  EXPECT_FALSE(parse_trace_id_hex("").has_value());
  EXPECT_FALSE(parse_trace_id_hex("xyz").has_value());
  EXPECT_FALSE(parse_trace_id_hex(std::string(32, '0')).has_value());
  EXPECT_FALSE(parse_trace_id_hex(hex + "0").has_value());
}

// ----------------------------------------------------------------- tracer

TEST(TracerTest, ParentChildLinkageAndTraceLookup) {
  ManualClock clock;
  Tracer tracer(&clock);

  const TraceContext root = tracer.start_trace("browser.request", "browser");
  ASSERT_TRUE(root.valid());
  clock.advance_us(5);
  const TraceContext child = tracer.start_span("http.client", "browser", root);
  EXPECT_EQ(child.trace_id, root.trace_id);
  clock.advance_us(10);
  tracer.end(child);
  tracer.end(root);

  const auto spans = tracer.trace(root.trace_id);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "browser.request");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].name, "http.client");
  EXPECT_EQ(spans[1].parent, root.span_id);
  EXPECT_TRUE(spans[1].finished);
  EXPECT_EQ(spans[1].end - spans[1].start, 10);
}

TEST(TracerTest, InvalidParentDegradesToFreshRoot) {
  Tracer tracer;
  const TraceContext span =
      tracer.start_span("http.server", "server", TraceContext{});
  ASSERT_TRUE(span.valid());
  const auto spans = tracer.trace(span.trace_id);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].parent, 0u);
}

TEST(TracerTest, AttributesAndEventsRecorded) {
  ManualClock clock;
  Tracer tracer(&clock);
  const TraceContext span = tracer.start_trace("s", "c");
  tracer.add_attribute(span, "path", "/login");
  clock.advance_us(3);
  tracer.add_event(span, "queued");
  tracer.end(span);

  const auto spans = tracer.trace(span.trace_id);
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].attributes.size(), 1u);
  EXPECT_EQ(spans[0].attributes[0].key, "path");
  EXPECT_EQ(spans[0].attributes[0].value, "/login");
  ASSERT_EQ(spans[0].events.size(), 1u);
  EXPECT_EQ(spans[0].events[0].at, 3);
  EXPECT_EQ(spans[0].events[0].message, "queued");
}

TEST(TracerTest, EndTolerantOfUnknownDoubleAndZero) {
  Tracer tracer;
  const TraceContext span = tracer.start_trace("s", "c");
  tracer.end(span);
  tracer.end(span);                                           // double end
  tracer.end(TraceContext{span.trace_id, 0, true});           // "no span"
  tracer.end(TraceContext{span.trace_id, 0xdeadbeef, true});  // unknown
  tracer.end(TraceContext{});                                 // invalid ctx
  // Each of the above is a no-op.
  EXPECT_EQ(tracer.trace(span.trace_id).size(), 1u);
}

TEST(TracerTest, SamplingIsDeterministicPerTraceId) {
  Tracer tracer;
  tracer.set_sample_probability(0.5);
  // The decision is a pure hash of the trace id: two tracers at the same
  // probability must agree on every id, and the marginal rate is ~p.
  Tracer other;
  other.set_sample_probability(0.5);
  int sampled = 0;
  for (int i = 0; i < 1000; ++i) {
    const TraceContext a = tracer.start_trace("s", "c");
    const TraceContext b = other.start_trace("s", "c");
    // Same allocation counter => same ids => same decision.
    EXPECT_EQ(a.sampled, b.sampled);
    if (a.sampled) ++sampled;
    tracer.end(a);
    other.end(b);
  }
  EXPECT_GT(sampled, 350);
  EXPECT_LT(sampled, 650);
}

TEST(TracerTest, UnsampledTracesPropagateIdsButRecordNothing) {
  Tracer tracer;
  tracer.set_sample_probability(0.0);
  const TraceContext root = tracer.start_trace("s", "c");
  EXPECT_TRUE(root.trace_id.valid());
  EXPECT_FALSE(root.sampled);
  const TraceContext child = tracer.start_span("t", "c", root);
  EXPECT_EQ(child.trace_id, root.trace_id);  // correlation survives
  tracer.end(child);
  tracer.end(root);
  EXPECT_TRUE(tracer.trace(root.trace_id).empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TracerTest, CompletedStoreIsBoundedDropOldest) {
  ManualClock clock;
  Tracer tracer(&clock);
  // Single thread => one shard => capacity kShardCapacity.
  const std::size_t total = Tracer::kShardCapacity + 100;
  for (std::size_t i = 0; i < total; ++i) {
    clock.advance_us(1);
    tracer.end(tracer.start_trace("s", "c"));
  }
  EXPECT_EQ(tracer.dropped(), 100u);
  const auto spans = tracer.snapshot();
  EXPECT_EQ(spans.size(), Tracer::kShardCapacity);
  // Drop-oldest: the survivors are the most recent spans.
  Micros oldest = spans.front().start;
  for (const auto& s : spans) oldest = std::min(oldest, s.start);
  EXPECT_GT(oldest, 100);
}

TEST(TracerTest, OpenTableEvictsLeakedSpans) {
  Tracer tracer;
  std::vector<TraceContext> leaked;
  for (std::size_t i = 0; i < Tracer::kMaxOpenSpans + 10; ++i) {
    leaked.push_back(tracer.start_trace("leak", "c"));  // never ended
  }
  EXPECT_GE(tracer.dropped(), 10u);
  // Evicted spans surface unfinished in the snapshot rather than vanish.
  std::size_t unfinished = 0;
  for (const auto& s : tracer.snapshot()) {
    if (!s.finished) ++unfinished;
  }
  EXPECT_GE(unfinished, Tracer::kMaxOpenSpans);
  // Ending an evicted span is a tolerated no-op.
  tracer.end(leaked.front());
}

TEST(TracerTest, ClearResetsStoreAndDroppedCount) {
  Tracer tracer;
  for (int i = 0; i < 100; ++i) tracer.end(tracer.start_trace("s", "c"));
  tracer.clear();
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TracerTest, ConcurrentSpansMergeWithoutLoss) {
  // TSan target: many threads start/end spans against one tracer; the
  // sharded completion path and the shared open table must be clean, and
  // nothing may be lost below the store bound.
  WallClock clock;
  Tracer tracer(&clock);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;  // well under per-shard capacity
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kPerThread; ++i) {
        const TraceContext root = tracer.start_trace("root", "c");
        const TraceContext child = tracer.start_span("child", "c", root);
        tracer.add_attribute(child, "i", "x");
        tracer.end(child);
        tracer.end(root);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto spans = tracer.snapshot();
  std::size_t finished = 0;
  for (const auto& s : spans) {
    if (s.finished) ++finished;
  }
  EXPECT_EQ(finished + tracer.dropped(),
            static_cast<std::size_t>(kThreads) * kPerThread * 2);
}

// --------------------------------------------------------- ambient context

TEST(ScopedTraceTest, InstallsAndRestoresNested) {
  EXPECT_FALSE(current_trace().valid());
  const TraceContext outer = make_ctx(1, 1, 10, true);
  const TraceContext inner = make_ctx(2, 2, 20, true);
  {
    ScopedTrace a(outer);
    EXPECT_EQ(current_trace().span_id, 10u);
    {
      ScopedTrace b(inner);
      EXPECT_EQ(current_trace().span_id, 20u);
    }
    EXPECT_EQ(current_trace().span_id, 10u);
  }
  EXPECT_FALSE(current_trace().valid());
}

// ---------------------------------------------------------------- eventlog

TEST(EventLogTest, TagsRecordsWithAmbientTrace) {
  ManualClock clock;
  EventLog log(&clock);
  log.emit(EventLevel::kInfo, "resilience", "no trace active");
  {
    ScopedTrace scope(make_ctx(7, 8, 9, true));
    clock.advance_us(10);
    log.emit(EventLevel::kWarn, "resilience", "breaker 'push' -> open");
  }
  const auto records = log.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_FALSE(records[0].trace_id.valid());
  EXPECT_EQ(records[1].trace_id, (TraceId{7, 8}));
  EXPECT_EQ(records[1].at, 10);
  EXPECT_EQ(records[1].level, EventLevel::kWarn);

  const std::string json = log.to_json_lines();
  EXPECT_NE(json.find("\"level\": \"warn\""), std::string::npos);
  EXPECT_NE(json.find(trace_id_hex(TraceId{7, 8})), std::string::npos);
}

TEST(EventLogTest, BoundedDropOldest) {
  EventLog log(nullptr, 4);
  for (int i = 0; i < 10; ++i) {
    log.emit(EventLevel::kInfo, "c", "msg " + std::to_string(i));
  }
  const auto records = log.snapshot();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().message, "msg 6");
  EXPECT_EQ(records.back().message, "msg 9");
  EXPECT_EQ(log.dropped(), 6u);
  log.clear();
  EXPECT_TRUE(log.snapshot().empty());
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventLogTest, JsonEscapesHostileMessages) {
  EventLog log;
  log.emit(EventLevel::kError, "websvc", "path \"/x\"\nwith\tcontrol\x01");
  const std::string json = log.to_json_lines();
  EXPECT_NE(json.find("\\\"/x\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  // The raw control bytes must not leak into the export.
  EXPECT_EQ(json.find('\x01'), std::string::npos);
}

// ----------------------------------------------------------- trace export

TEST(TraceJsonTest, ExportsTreeWithAttributesAndEvents) {
  ManualClock clock;
  Tracer tracer(&clock);
  const TraceContext root = tracer.start_trace("browser.request", "browser");
  tracer.add_attribute(root, "domain", "mail.google.com");
  clock.advance_us(4);
  tracer.add_event(root, "sent");
  tracer.end(root);

  const std::string json = trace_to_json(tracer.trace(root.trace_id));
  EXPECT_NE(json.find("\"name\": \"browser.request\""), std::string::npos);
  EXPECT_NE(json.find("\"domain\": \"mail.google.com\""), std::string::npos);
  EXPECT_NE(json.find("\"message\": \"sent\""), std::string::npos);
  EXPECT_NE(json.find(trace_id_hex(root.trace_id)), std::string::npos);
}

TEST(TraceJsonTest, MergeEqualsExportOfTheConcatenatedSpans) {
  ManualClock clock;
  Tracer tracer(&clock);
  const TraceContext root = tracer.start_trace("a", "browser");
  const TraceContext b = tracer.start_span("b", "server", root);
  const TraceContext c = tracer.start_span("c", "phone", root);
  tracer.end(c);
  tracer.end(b);
  tracer.end(root);
  const std::vector<TraceSpan> spans = tracer.trace(root.trace_id);
  ASSERT_EQ(spans.size(), 3u);

  // Shard legs: two spans, a lost leg, one span, a shard with none.
  const std::vector<std::string> docs = {
      trace_to_json({spans[0], spans[1]}), "", trace_to_json({spans[2]}),
      trace_to_json({})};
  EXPECT_EQ(merge_trace_json(docs), trace_to_json(spans));
  EXPECT_EQ(merge_trace_json({"", "not a trace"}), trace_to_json({}));
}

// ---------------------------------------------------------- critical path

TEST(CriticalPathTest, SelfTimeSubtractsChildUnion) {
  // root [0, 100] with children [10, 40] and [30, 70] (overlapping) and
  // [80, 90]: union covers 60+10=70us, so root self = 30us.
  std::vector<TraceSpan> spans;
  TraceSpan root;
  root.trace_id = {1, 1};
  root.id = 1;
  root.name = "root";
  root.component = "server";
  root.start = 0;
  root.end = 100;
  root.finished = true;
  spans.push_back(root);
  const auto child = [](SpanId id, SpanId parent, Micros lo, Micros hi,
                        const std::string& name) {
    TraceSpan s;
    s.trace_id = {1, 1};
    s.id = id;
    s.parent = parent;
    s.name = name;
    s.component = "c";
    s.start = lo;
    s.end = hi;
    s.finished = true;
    return s;
  };
  spans.push_back(child(2, 1, 10, 40, "a"));
  spans.push_back(child(3, 1, 30, 70, "b"));
  spans.push_back(child(4, 1, 80, 90, "c"));

  const auto entries = critical_path(spans);
  ASSERT_EQ(entries.size(), 4u);
  Micros root_self = 0, total_self = 0;
  for (const auto& e : entries) {
    total_self += e.self_us;
    if (e.name == "root") {
      root_self = e.self_us;
      EXPECT_EQ(e.total_us, 100);
    }
  }
  EXPECT_EQ(root_self, 30);
  // Leaves have no children: self == total. The parent charges each
  // microsecond once (union of children), but overlapping *siblings*
  // each charge their own full duration — a [30, 40] overlap of "a" and
  // "b" counts in both, so the sum exceeds the root's 100us by 10us.
  EXPECT_EQ(total_self, 110);
}

TEST(CriticalPathTest, SkipsUnfinishedAndClipsRunawayChildren) {
  std::vector<TraceSpan> spans;
  TraceSpan root;
  root.trace_id = {1, 1};
  root.id = 1;
  root.name = "root";
  root.start = 10;
  root.end = 50;
  root.finished = true;
  spans.push_back(root);
  TraceSpan runaway;  // child interval exceeds the parent on both sides
  runaway.trace_id = {1, 1};
  runaway.id = 2;
  runaway.parent = 1;
  runaway.name = "child";
  runaway.start = 0;
  runaway.end = 90;
  runaway.finished = true;
  spans.push_back(runaway);
  TraceSpan open_span;
  open_span.trace_id = {1, 1};
  open_span.id = 3;
  open_span.parent = 1;
  open_span.name = "open";
  open_span.start = 20;
  open_span.finished = false;
  spans.push_back(open_span);

  const auto entries = critical_path(spans);
  ASSERT_EQ(entries.size(), 2u);  // the unfinished span is skipped
  for (const auto& e : entries) {
    if (e.name == "root") {
      EXPECT_EQ(e.self_us, 0);  // fully covered by the clipped child
    }
    EXPECT_NE(e.name, "open");
  }
}

}  // namespace
}  // namespace amnesia::obs
