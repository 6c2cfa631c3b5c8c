#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

namespace amnesia::obs {

// --------------------------------------------------------- header codec

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

void hex_u64(std::string& out, std::uint64_t v) {
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(kHexDigits[(v >> shift) & 0xF]);
  }
}

/// Parses exactly `n` lowercase hex chars into `out`; false on anything
/// else (uppercase included — the format is canonical, not lenient).
bool parse_hex(std::string_view s, std::size_t pos, std::size_t n,
               std::uint64_t& out) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const char c = s[pos + i];
    std::uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    v = (v << 4) | digit;
  }
  out = v;
  return true;
}

/// SplitMix64 finalizer — turns a trace id into a uniform hash for the
/// deterministic sampler.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

std::string format_trace_header(const TraceContext& ctx) {
  std::string out;
  out.reserve(kTraceHeaderLen);
  hex_u64(out, ctx.trace_id.hi);
  hex_u64(out, ctx.trace_id.lo);
  out.push_back('-');
  hex_u64(out, ctx.span_id);
  out.push_back('-');
  out.push_back('0');
  out.push_back(ctx.sampled ? '1' : '0');
  return out;
}

std::optional<TraceContext> parse_trace_header(std::string_view s) {
  if (s.size() != kTraceHeaderLen) return std::nullopt;
  if (s[32] != '-' || s[49] != '-') return std::nullopt;
  TraceContext ctx;
  std::uint64_t flags = 0;
  if (!parse_hex(s, 0, 16, ctx.trace_id.hi) ||
      !parse_hex(s, 16, 16, ctx.trace_id.lo) ||
      !parse_hex(s, 33, 16, ctx.span_id) || !parse_hex(s, 50, 2, flags)) {
    return std::nullopt;
  }
  if (!ctx.trace_id.valid() || ctx.span_id == 0) return std::nullopt;
  if (flags > 1) return std::nullopt;
  ctx.sampled = flags == 1;
  return ctx;
}

std::string trace_id_hex(TraceId id) {
  std::string out;
  out.reserve(32);
  hex_u64(out, id.hi);
  hex_u64(out, id.lo);
  return out;
}

std::optional<TraceId> parse_trace_id_hex(std::string_view s) {
  if (s.size() != 32) return std::nullopt;
  TraceId id;
  if (!parse_hex(s, 0, 16, id.hi) || !parse_hex(s, 16, 16, id.lo)) {
    return std::nullopt;
  }
  if (!id.valid()) return std::nullopt;
  return id;
}

// ----------------------------------------------------------------tracer

void Tracer::set_sample_probability(double p) {
  p = std::clamp(p, 0.0, 1.0);
  sample_threshold_.store(
      static_cast<std::uint64_t>(p * static_cast<double>(1ull << 53)),
      std::memory_order_relaxed);
}

double Tracer::sample_probability() const {
  return static_cast<double>(
             sample_threshold_.load(std::memory_order_relaxed)) /
         static_cast<double>(1ull << 53);
}

bool Tracer::sample_trace(TraceId id) const {
  // Hash the id rather than drawing randomness: the decision is a pure
  // function of the trace, so reruns of a seeded sim sample identically.
  return (mix64(id.hi ^ id.lo) >> 11) <
         sample_threshold_.load(std::memory_order_relaxed);
}

TraceContext Tracer::start_trace(std::string name, std::string component) {
  TraceId trace_id;
  // hi is a fixed tag ("amnesia1" in ASCII), lo the allocation counter —
  // unique per tracer, deterministic across runs.
  trace_id.hi = 0x616d6e6573696131ull;
  trace_id.lo = next_id();
  return open_span(std::move(name), std::move(component), trace_id,
                   /*parent=*/0, sample_trace(trace_id));
}

TraceContext Tracer::start_span(std::string name, std::string component,
                                const TraceContext& parent) {
  if (!parent.valid()) {
    return start_trace(std::move(name), std::move(component));
  }
  return open_span(std::move(name), std::move(component), parent.trace_id,
                   parent.span_id, parent.sampled);
}

TraceContext Tracer::open_span(std::string name, std::string component,
                               TraceId trace_id, SpanId parent,
                               bool sampled) {
  TraceContext ctx;
  ctx.trace_id = trace_id;
  ctx.span_id = next_id();
  ctx.sampled = sampled;
  if (!sampled) return ctx;  // ids propagate, nothing is recorded

  TraceSpan span;
  span.trace_id = trace_id;
  span.id = ctx.span_id;
  span.parent = parent;
  span.name = std::move(name);
  span.component = std::move(component);
  span.start = now();
  if (on_start_) on_start_(span);

  std::lock_guard<std::mutex> lock(open_mu_);
  // Bound the open table: a span leaked by a lost callback is evicted —
  // unfinished — to the completed store once enough newer spans exist.
  while (open_.size() >= kMaxOpenSpans && !open_order_.empty()) {
    const SpanId victim = open_order_.front();
    open_order_.pop_front();
    auto it = open_.find(victim);
    if (it == open_.end()) continue;  // ended normally; stale order entry
    TraceSpan evicted = std::move(it->second);
    open_.erase(it);
    ++open_evicted_;
    complete(std::move(evicted));
  }
  open_order_.push_back(ctx.span_id);
  open_.emplace(ctx.span_id, std::move(span));
  return ctx;
}

void Tracer::add_attribute(const TraceContext& ctx, std::string key,
                           std::string value) {
  if (!ctx.sampled || ctx.span_id == 0) return;
  std::lock_guard<std::mutex> lock(open_mu_);
  auto it = open_.find(ctx.span_id);
  if (it == open_.end()) return;
  it->second.attributes.push_back({std::move(key), std::move(value)});
}

void Tracer::add_event(const TraceContext& ctx, std::string message) {
  if (!ctx.sampled || ctx.span_id == 0) return;
  const Micros at = now();
  std::lock_guard<std::mutex> lock(open_mu_);
  auto it = open_.find(ctx.span_id);
  if (it == open_.end()) return;
  it->second.events.push_back({at, std::move(message)});
}

void Tracer::end(const TraceContext& ctx) {
  if (ctx.span_id == 0) return;
  const Micros at = now();
  TraceSpan span;
  {
    std::lock_guard<std::mutex> lock(open_mu_);
    auto it = open_.find(ctx.span_id);
    if (it == open_.end()) return;  // unknown or already ended: no-op
    span = std::move(it->second);
    open_.erase(it);
    // The id stays in open_order_; eviction skips entries not in the map.
  }
  span.end = at;
  span.finished = true;
  complete(std::move(span));
}

Tracer::Shard& Tracer::my_shard() {
  // One shard per thread (hashed): completions from different threads
  // almost never contend, and the single sim thread always hits shard k.
  thread_local const std::size_t index =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
  return shards_[index];
}

void Tracer::complete(TraceSpan span, bool notify) {
  if (notify && on_complete_) on_complete_(span);
  Shard& shard = my_shard();
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.ring.size() < kShardCapacity) {
    shard.ring.push_back(std::move(span));
    return;
  }
  shard.ring[shard.next] = std::move(span);
  shard.next = (shard.next + 1) % kShardCapacity;
  ++shard.dropped;
}

std::vector<TraceSpan> Tracer::snapshot() const {
  std::vector<TraceSpan> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.insert(out.end(), shard.ring.begin(), shard.ring.end());
  }
  {
    std::lock_guard<std::mutex> lock(open_mu_);
    for (const auto& [id, span] : open_) out.push_back(span);
  }
  // (start, id) reconstructs creation order under one clock regardless of
  // which shard a span landed in.
  std::sort(out.begin(), out.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              return a.start != b.start ? a.start < b.start : a.id < b.id;
            });
  return out;
}

std::vector<TraceSpan> Tracer::trace(TraceId id) const {
  std::vector<TraceSpan> all = snapshot();
  std::vector<TraceSpan> out;
  for (auto& span : all) {
    if (span.trace_id == id) out.push_back(std::move(span));
  }
  return out;
}

void Tracer::clear() {
  {
    std::lock_guard<std::mutex> lock(open_mu_);
    open_.clear();
    open_order_.clear();
    open_evicted_ = 0;
  }
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.ring.clear();
    shard.next = 0;
    shard.dropped = 0;
  }
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.dropped;
  }
  std::lock_guard<std::mutex> lock(open_mu_);
  return total + open_evicted_;
}

// ------------------------------------------------------- ambient context

namespace {
thread_local TraceContext g_current_trace;
}  // namespace

TraceContext current_trace() { return g_current_trace; }

ScopedTrace::ScopedTrace(const TraceContext& ctx) : prev_(g_current_trace) {
  g_current_trace = ctx;
}

ScopedTrace::~ScopedTrace() { g_current_trace = prev_; }

// ------------------------------------------------------------- event log

const char* event_level_name(EventLevel level) {
  switch (level) {
    case EventLevel::kDebug: return "debug";
    case EventLevel::kInfo: return "info";
    case EventLevel::kWarn: return "warn";
    case EventLevel::kError: return "error";
  }
  return "?";
}

void EventLog::emit(EventLevel level, std::string component,
                    std::string message) {
  EventRecord rec;
  rec.at = clock_ ? clock_->now_us() : 0;
  rec.level = level;
  rec.component = std::move(component);
  rec.message = std::move(message);
  rec.trace_id = current_trace().trace_id;
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() >= capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
  ring_.push_back(std::move(rec));
}

std::vector<EventRecord> EventLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

namespace {

void json_escaped(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

std::optional<EventLevel> parse_event_level(std::string_view name) {
  if (name == "debug") return EventLevel::kDebug;
  if (name == "info") return EventLevel::kInfo;
  if (name == "warn") return EventLevel::kWarn;
  if (name == "error") return EventLevel::kError;
  return std::nullopt;
}

std::string EventLog::to_json_lines(EventLevel min_level,
                                    Micros since) const {
  const std::vector<EventRecord> records = snapshot();
  std::ostringstream out;
  for (const EventRecord& rec : records) {
    if (rec.level < min_level) continue;
    if (since > 0 && rec.at <= since) continue;
    out << "{\"at\": " << rec.at << ", \"level\": \""
        << event_level_name(rec.level) << "\", \"component\": ";
    json_escaped(out, rec.component);
    out << ", \"message\": ";
    json_escaped(out, rec.message);
    out << ", \"trace_id\": \""
        << (rec.trace_id.valid() ? trace_id_hex(rec.trace_id) : "")
        << "\"}\n";
  }
  return out.str();
}

void EventLog::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  dropped_ = 0;
}

std::uint64_t EventLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

// -------------------------------------------------- trace-tree analysis

namespace {

// trace_to_json's frame; each span inside it is led by "\n  ", and every
// span after the first by ",\n  ".
constexpr std::string_view kTraceJsonOpen = "{\"spans\": [";
constexpr std::string_view kTraceJsonClose = "\n]}\n";

}  // namespace

std::string trace_to_json(const std::vector<TraceSpan>& spans) {
  std::ostringstream out;
  out << kTraceJsonOpen;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    out << (i ? ",\n  " : "\n  ");
    out << "{\"trace_id\": \"" << trace_id_hex(s.trace_id) << "\", \"id\": "
        << s.id << ", \"parent\": " << s.parent << ", \"name\": ";
    json_escaped(out, s.name);
    out << ", \"component\": ";
    json_escaped(out, s.component);
    out << ", \"start\": " << s.start << ", \"end\": " << s.end
        << ", \"finished\": " << (s.finished ? "true" : "false");
    if (!s.attributes.empty()) {
      out << ", \"attributes\": {";
      for (std::size_t a = 0; a < s.attributes.size(); ++a) {
        if (a) out << ", ";
        json_escaped(out, s.attributes[a].key);
        out << ": ";
        json_escaped(out, s.attributes[a].value);
      }
      out << '}';
    }
    if (!s.events.empty()) {
      out << ", \"events\": [";
      for (std::size_t e = 0; e < s.events.size(); ++e) {
        if (e) out << ", ";
        out << "{\"at\": " << s.events[e].at << ", \"message\": ";
        json_escaped(out, s.events[e].message);
        out << '}';
      }
      out << ']';
    }
    out << '}';
  }
  out << kTraceJsonClose;
  return out.str();
}

std::string merge_trace_json(const std::vector<std::string>& docs) {
  constexpr std::size_t kFrameLen =
      kTraceJsonOpen.size() + kTraceJsonClose.size();
  std::string out(kTraceJsonOpen);
  bool first = true;
  for (const std::string_view doc : docs) {
    // Only a trace_to_json document with at least one span contributes.
    if (doc.size() <= kFrameLen || !doc.starts_with(kTraceJsonOpen) ||
        !doc.ends_with(kTraceJsonClose)) {
      continue;
    }
    if (!first) out += ',';
    out += doc.substr(kTraceJsonOpen.size(), doc.size() - kFrameLen);
    first = false;
  }
  out += kTraceJsonClose;
  return out;
}

std::vector<CriticalPathEntry> critical_path(
    const std::vector<TraceSpan>& spans) {
  // Children intervals per parent, for the self-time subtraction.
  std::map<SpanId, std::vector<std::pair<Micros, Micros>>> child_intervals;
  for (const TraceSpan& s : spans) {
    if (s.finished && s.parent != 0) {
      child_intervals[s.parent].emplace_back(s.start, s.end);
    }
  }

  std::map<std::string, CriticalPathEntry> by_name;
  for (const TraceSpan& s : spans) {
    if (!s.finished) continue;
    const Micros duration = s.end > s.start ? s.end - s.start : 0;

    // Union of children intervals clipped to [start, end]: the time this
    // span spent waiting on instrumented sub-work.
    Micros covered = 0;
    auto it = child_intervals.find(s.id);
    if (it != child_intervals.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      Micros cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start);
        hi = std::min(hi, s.end);
        if (lo >= hi) continue;
        if (!open) {
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        } else if (lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        }
      }
      if (open) covered += cur_hi - cur_lo;
    }

    CriticalPathEntry& entry = by_name[s.name];
    if (entry.count == 0) {
      entry.name = s.name;
      entry.component = s.component;
    }
    ++entry.count;
    entry.total_us += duration;
    entry.self_us += duration > covered ? duration - covered : 0;
  }

  std::vector<CriticalPathEntry> out;
  out.reserve(by_name.size());
  for (auto& [name, entry] : by_name) out.push_back(std::move(entry));
  std::sort(out.begin(), out.end(),
            [](const CriticalPathEntry& a, const CriticalPathEntry& b) {
              return a.self_us != b.self_us ? a.self_us > b.self_us
                                           : a.name < b.name;
            });
  return out;
}

}  // namespace amnesia::obs
