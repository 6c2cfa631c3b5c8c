// Distributed tracing: Dapper-style trace/span ids, explicit context
// propagation, a bounded lock-light span store, and a structured event log.
//
// The Fig. 3 evaluation decomposes one bilateral login across five
// components (browser -> server -> GCM -> phone -> server -> browser).
// Before this module the obs layer could only record disconnected
// per-process spans; this one threads a TraceContext across every hop —
// an X-Amnesia-Trace header on the websvc legs, a plaintext metadata slot
// in securechan data records, a trace field in net::Rpc frames, and a
// field inside rendezvous push payloads — so one login produces one tree.
//
//   TraceId      128 bits {hi, lo}; never all-zero for a live trace.
//   SpanId       64 bits, process-wide monotonic; 0 means "no span".
//   TraceContext the propagated triple (trace id, span id, sampled bit).
//   Tracer       allocates ids, records spans, samples at the root.
//   EventLog     leveled bounded ring of structured events, tagged with
//                the ambient trace id (resilience emits retries, breaker
//                transitions, fault injections, shed 503s into it).
//
// Store design: spans being *recorded* (started, not yet ended) live in a
// bounded id-keyed table; *completed* spans are appended to one of a
// fixed set of thread-sharded ring buffers (shard picked by thread id),
// merged and sorted only at snapshot time. End is an O(1) table hit plus
// an uncontended shard push — replacing the single-vector O(n) reverse
// scan the registry used before — and memory is bounded on both sides
// (drop-oldest, with a dropped counter) no matter how long the process
// runs.
//
// Determinism: ids come from a per-tracer counter, never from a random
// source, and the probabilistic sampler hashes the trace id — so a
// seeded simulation run exports byte-identical trace artifacts.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/clock.h"

namespace amnesia::obs {

using SpanId = std::uint64_t;

/// 128-bit trace identifier. All-zero = "no trace".
struct TraceId {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool valid() const { return hi != 0 || lo != 0; }
  bool operator==(const TraceId&) const = default;
};

/// The propagated context: which trace, which span is the current parent,
/// and whether this trace is being recorded. Ids are allocated even for
/// unsampled traces so downstream hops stay correlated.
struct TraceContext {
  TraceId trace_id;
  SpanId span_id = 0;
  bool sampled = true;

  bool valid() const { return trace_id.valid() && span_id != 0; }
};

/// Wire header name used on the websvc legs (and reused verbatim as the
/// plaintext trace slot in securechan records and net::Rpc frames).
inline constexpr const char kTraceHeaderName[] = "X-Amnesia-Trace";

/// Serialized context: `<32 hex trace>-<16 hex span>-<2 hex flags>`,
/// lowercase, fixed 51 chars. Flags: bit 0 = sampled.
std::string format_trace_header(const TraceContext& ctx);
constexpr std::size_t kTraceHeaderLen = 32 + 1 + 16 + 1 + 2;

/// Strict parse of the header format: exact length, lowercase hex only,
/// dashes in the fixed positions, non-zero trace and span ids, flags in
/// {00, 01}. Anything else -> nullopt (the receiver starts a fresh root
/// and must never echo the hostile bytes back).
std::optional<TraceContext> parse_trace_header(std::string_view s);

/// `<32 hex>` of a trace id, for URLs (`GET /trace/<id>`) and log tags.
std::string trace_id_hex(TraceId id);
std::optional<TraceId> parse_trace_id_hex(std::string_view s);

struct SpanAttr {
  std::string key;
  std::string value;
};

struct SpanEvent {
  Micros at = 0;
  std::string message;
};

/// One recorded span. `parent` is 0 for a root. `component` names the
/// process that recorded it (browser/server/gcm/phone/client).
struct TraceSpan {
  TraceId trace_id;
  SpanId id = 0;
  SpanId parent = 0;
  std::string name;
  std::string component;
  Micros start = 0;
  Micros end = 0;
  bool finished = false;
  std::vector<SpanAttr> attributes;
  std::vector<SpanEvent> events;
};

/// Process-wide tracer. Thread-safe; hot paths touch one small mutex
/// (open table) or one shard mutex (completion), never both.
class Tracer {
 public:
  explicit Tracer(const Clock* clock = nullptr) : clock_(clock) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_clock(const Clock* clock) { clock_ = clock; }
  Micros now() const { return clock_ ? clock_->now_us() : 0; }

  /// Head-based sampling probability for new roots, in [0, 1]. Defaults
  /// to 1.0 (always-on: tests and benches want every trace). Remote
  /// contexts carry their root's decision and are never re-sampled.
  void set_sample_probability(double p);
  double sample_probability() const;

  /// Starts a new root span (fresh trace id, sampling decided here).
  TraceContext start_trace(std::string name, std::string component);
  /// Starts a child span under `parent` (local or remote context). An
  /// invalid parent degrades to a fresh root.
  TraceContext start_span(std::string name, std::string component,
                          const TraceContext& parent);
  /// Attaches a key/value attribute to the (still open) span of `ctx`.
  void add_attribute(const TraceContext& ctx, std::string key,
                     std::string value);
  /// Appends a timestamped event to the (still open) span of `ctx`.
  void add_event(const TraceContext& ctx, std::string message);
  /// Ends the span of `ctx` at the current clock time. Unknown, already
  /// finished, and unsampled contexts are no-ops.
  void end(const TraceContext& ctx);

  /// All recorded spans (completed rings merged with still-open spans),
  /// sorted by (start, id) — i.e. creation order under one clock.
  std::vector<TraceSpan> snapshot() const;
  /// The spans of one trace, same order. Empty if unknown/evicted.
  std::vector<TraceSpan> trace(TraceId id) const;

  /// Observer invoked with every locally completed span (ends and open-
  /// table evictions; imported spans are excluded so replication never
  /// echoes). Install once before traffic starts — the call is made
  /// outside the store locks and is not synchronized against resets.
  using CompleteHook = std::function<void(const TraceSpan&)>;
  void set_on_complete(CompleteHook hook) { on_complete_ = std::move(hook); }

  /// Observer invoked when a sampled span is opened (same caveats as
  /// set_on_complete). The cluster layer ships span *starts* as well as
  /// ends: the spans still open on a crashed primary (the protocol round,
  /// the phone wait) exist on the follower as unfinished stubs, so the
  /// merged tree keeps its parent chain across the failover.
  using StartHook = std::function<void(const TraceSpan&)>;
  void set_on_start(StartHook hook) { on_start_ = std::move(hook); }

  /// Injects an externally recorded span into the completed store — the
  /// cluster layer ships a primary's spans into the follower's tracer so
  /// a failover survivor can serve the whole tree. Does not fire the
  /// on_complete hook.
  void import_completed(TraceSpan span) { complete(std::move(span), false); }

  /// Re-bases the span-id counter. Cluster replicas carve out disjoint id
  /// ranges so a tree merged across two servers stays unambiguous. Call
  /// before any span is started.
  void seed_span_ids(SpanId first) {
    next_id_.store(first ? first : 1, std::memory_order_relaxed);
  }

  void clear();
  /// Completed spans evicted from full rings + open spans evicted from a
  /// full table, since construction or the last clear().
  std::uint64_t dropped() const;

  /// Store bounds (fixed at compile time; exposed for tests/docs).
  static constexpr std::size_t kMaxOpenSpans = 4096;
  static constexpr std::size_t kShards = 16;
  static constexpr std::size_t kShardCapacity = 2048;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::vector<TraceSpan> ring;  // capacity kShardCapacity, drop-oldest
    std::size_t next = 0;         // write cursor once the ring is full
    std::uint64_t dropped = 0;
  };

  SpanId next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  bool sample_trace(TraceId id) const;
  TraceContext open_span(std::string name, std::string component,
                         TraceId trace_id, SpanId parent, bool sampled);
  Shard& my_shard();
  void complete(TraceSpan span, bool notify = true);

  const Clock* clock_;
  std::atomic<std::uint64_t> next_id_{1};
  /// Sampling probability as a 2^53 threshold (lock-free reads).
  std::atomic<std::uint64_t> sample_threshold_{1ull << 53};

  /// Open (started, not ended) spans, keyed by id; `open_order_` bounds
  /// the table by eviction age. A leaked span (never ended) is evicted
  /// to its shard unfinished once kMaxOpenSpans newer spans exist.
  mutable std::mutex open_mu_;
  std::unordered_map<SpanId, TraceSpan> open_;
  std::deque<SpanId> open_order_;
  std::uint64_t open_evicted_ = 0;
  CompleteHook on_complete_;
  StartHook on_start_;

  Shard shards_[kShards];
};

// ------------------------------------------------------- ambient context
//
// Hop boundaries (HTTP client/server, secure channel, Rpc handlers) set
// the current context for the duration of a dispatch so interior layers
// (resilience, storage) can tag events without plumbing a parameter
// through every signature. Thread-local: each real thread — and the one
// simulation thread — has its own slot.

/// The context most recently installed on this thread (invalid if none).
TraceContext current_trace();

/// RAII: installs `ctx` as the thread's current context, restoring the
/// previous one on destruction.
class ScopedTrace {
 public:
  explicit ScopedTrace(const TraceContext& ctx);
  ~ScopedTrace();

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  TraceContext prev_;
};

// ------------------------------------------------------------- event log

enum class EventLevel : std::uint8_t { kDebug = 0, kInfo, kWarn, kError };

const char* event_level_name(EventLevel level);
/// Strict inverse of event_level_name ("debug"/"info"/"warn"/"error");
/// anything else -> nullopt. Used by the GET /events?level= filter, which
/// must reject rather than guess at hostile query values.
std::optional<EventLevel> parse_event_level(std::string_view name);

struct EventRecord {
  Micros at = 0;
  EventLevel level = EventLevel::kInfo;
  std::string component;  // "resilience", "websvc", ...
  std::string message;
  TraceId trace_id;  // all-zero when no trace was active
};

/// Bounded structured log (drop-oldest ring). emit() tags each record
/// with the ambient current_trace() id, which is what ties a breaker
/// transition or a shed 503 back to the login that suffered it.
class EventLog {
 public:
  explicit EventLog(const Clock* clock = nullptr,
                    std::size_t capacity = kDefaultCapacity)
      : clock_(clock), capacity_(capacity ? capacity : 1) {}

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  void set_clock(const Clock* clock) { clock_ = clock; }

  void emit(EventLevel level, std::string component, std::string message);

  std::vector<EventRecord> snapshot() const;
  /// One JSON object per line ({"at":..,"level":..,"component":..,
  /// "message":..,"trace_id":".."}) — the GET /events body. Keeps
  /// records with level >= min_level and (when since > 0) at > since,
  /// so scrapers can poll incrementally instead of re-downloading the
  /// whole ring.
  std::string to_json_lines(EventLevel min_level = EventLevel::kDebug,
                            Micros since = 0) const;
  void clear();
  std::uint64_t dropped() const;
  std::size_t capacity() const { return capacity_; }

  static constexpr std::size_t kDefaultCapacity = 1024;

 private:
  const Clock* clock_;
  std::size_t capacity_;
  mutable std::mutex mu_;
  std::deque<EventRecord> ring_;
  std::uint64_t dropped_ = 0;
};

// ------------------------------------------------- trace-tree analysis

/// JSON export of one trace (array of span objects, creation order) —
/// the GET /trace/<id> body and the bench artifact shape.
std::string trace_to_json(const std::vector<TraceSpan>& spans);

/// Splices several trace_to_json documents into one: the result equals
/// trace_to_json of their spans concatenated in order. Empty strings (and
/// anything else that is not such a document) contribute nothing — the
/// shard router's aggregate GET /trace/<id>.
std::string merge_trace_json(const std::vector<std::string>& docs);

/// Per-span-name critical-path attribution over one or more trace trees:
/// `self_us` is span duration minus the union of its children's
/// intervals (time attributable to the hop itself), `total_us` the full
/// duration. Unfinished spans are skipped. Sorted by self_us descending.
struct CriticalPathEntry {
  std::string name;
  std::string component;
  std::uint64_t count = 0;
  Micros total_us = 0;
  Micros self_us = 0;
};

std::vector<CriticalPathEntry> critical_path(
    const std::vector<TraceSpan>& spans);

}  // namespace amnesia::obs
