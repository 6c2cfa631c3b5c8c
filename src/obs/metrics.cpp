#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>

#include "common/error.h"

namespace amnesia::obs {

// ------------------------------------------------------------- histogram

const std::vector<Micros>& default_latency_bounds() {
  static const std::vector<Micros> kBounds = {
      100,        200,        500,        1'000,      2'000,      5'000,
      10'000,     20'000,     50'000,     100'000,    200'000,    300'000,
      500'000,    700'000,    1'000'000,  1'500'000,  2'000'000,  5'000'000,
      10'000'000, 30'000'000, 60'000'000,
  };
  return kBounds;
}

const std::vector<Micros>& fine_latency_bounds() {
  static const std::vector<Micros> kBounds = {
      1,      2,      5,      10,      20,      50,      100,
      200,    500,    1'000,  2'000,   5'000,   10'000,  20'000,
      50'000, 100'000, 200'000, 500'000, 1'000'000,
  };
  return kBounds;
}

Histogram::Histogram(std::vector<Micros> bounds) {
  if (bounds.empty()) throw Error("Histogram: needs at least one bound");
  if (!std::is_sorted(bounds.begin(), bounds.end()) ||
      std::adjacent_find(bounds.begin(), bounds.end()) != bounds.end()) {
    throw Error("Histogram: bounds must be strictly ascending");
  }
  data_.bounds = std::move(bounds);
  data_.counts.assign(data_.bounds.size() + 1, 0);
}

void Histogram::record(Micros value, const TraceContext& ctx,
                       std::string attr) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it =
      std::lower_bound(data_.bounds.begin(), data_.bounds.end(), value);
  const auto bucket = static_cast<std::size_t>(it - data_.bounds.begin());
  ++data_.counts[bucket];
  if (data_.count == 0) {
    data_.min = value;
    data_.max = value;
  } else {
    data_.min = std::min(data_.min, value);
    data_.max = std::max(data_.max, value);
  }
  ++data_.count;
  data_.sum += value;
  if (ctx.trace_id.valid() && ctx.sampled) {
    for (char& c : attr) {
      if (std::isspace(static_cast<unsigned char>(c))) c = '_';
    }
    // At most one exemplar per bucket; within a process the latest
    // recording wins (freshness), across processes merge_snapshot keeps
    // the larger value (tail bias).
    Exemplar ex{bucket, ctx.trace_id, value, std::move(attr)};
    auto pos = std::lower_bound(
        data_.exemplars.begin(), data_.exemplars.end(), bucket,
        [](const Exemplar& e, std::size_t b) { return e.bucket < b; });
    if (pos != data_.exemplars.end() && pos->bucket == bucket) {
      *pos = std::move(ex);
    } else {
      data_.exemplars.insert(pos, std::move(ex));
    }
  }
}

double Histogram::mean() const {
  const HistogramSnapshot snap = locked();
  return snap.count == 0
             ? 0.0
             : static_cast<double>(snap.sum) /
                   static_cast<double>(snap.count);
}

void Histogram::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  std::fill(data_.counts.begin(), data_.counts.end(), 0);
  data_.count = 0;
  data_.sum = 0;
  data_.min = 0;
  data_.max = 0;
  data_.exemplars.clear();
}

Micros quantile(const HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample (1-based), as in nearest-rank quantiles.
  const auto rank = static_cast<std::uint64_t>(std::max(
      1.0, std::ceil(q * static_cast<double>(h.count))));
  std::uint64_t cumulative = 0;
  Micros value = h.max;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    cumulative += h.counts[i];
    if (cumulative >= rank) {
      value = i < h.bounds.size() ? h.bounds[i] : h.max;
      break;
    }
  }
  return std::clamp(value, h.min, h.max);
}

// -------------------------------------------------------------- registry

void MetricsRegistry::check_name(const std::string& name) {
  if (name.empty()) throw Error("metric name must not be empty");
  for (const char c : name) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      throw Error("metric name must not contain whitespace: '" + name + "'");
    }
  }
}

Counter& MetricsRegistry::counter(const std::string& name) {
  check_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  check_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return histogram(name, default_latency_bounds());
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<Micros> bounds) {
  check_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) snap.histograms[name] = h->data();
  return snap;
}

void MetricsRegistry::reset_values() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, c] : counters_) c->reset();
    for (auto& [name, g] : gauges_) g->reset();
    for (auto& [name, h] : histograms_) h->reset();
  }
  tracer_.clear();
  events_.clear();
}

// ------------------------------------------------------------- exporters

namespace {

constexpr const char kTextHeader[] = "# amnesia metrics v1";

}  // namespace

namespace {

/// Folds `src`'s exemplars into `dst` (same bounds): per bucket the
/// larger-valued exemplar wins, ties keep `dst`'s. Buckets past `dst`'s
/// range (a torn or hostile snapshot) are dropped.
void merge_exemplars(HistogramSnapshot& dst, const HistogramSnapshot& src) {
  for (const Exemplar& ex : src.exemplars) {
    if (ex.bucket >= dst.counts.size()) continue;
    auto pos = std::lower_bound(
        dst.exemplars.begin(), dst.exemplars.end(), ex.bucket,
        [](const Exemplar& e, std::size_t b) { return e.bucket < b; });
    if (pos != dst.exemplars.end() && pos->bucket == ex.bucket) {
      if (ex.value > pos->value) *pos = ex;
    } else {
      dst.exemplars.insert(pos, ex);
    }
  }
}

}  // namespace

void merge_snapshot(Snapshot& into, const Snapshot& other) {
  for (const auto& [name, v] : other.counters) into.counters[name] += v;
  for (const auto& [name, v] : other.gauges) into.gauges[name] += v;
  for (const auto& [name, h] : other.histograms) {
    auto [it, inserted] = into.histograms.emplace(name, h);
    if (inserted) continue;
    HistogramSnapshot& dst = it->second;
    if (dst.bounds == h.bounds) {
      for (std::size_t i = 0; i < dst.counts.size(); ++i) {
        dst.counts[i] += h.counts[i];
      }
      merge_exemplars(dst, h);
    }
    if (h.count > 0) {
      dst.min = dst.count == 0 ? h.min : std::min(dst.min, h.min);
      dst.max = dst.count == 0 ? h.max : std::max(dst.max, h.max);
    }
    dst.count += h.count;
    dst.sum += h.sum;
  }
}

std::string to_text(const Snapshot& snapshot) {
  std::ostringstream out;
  out << kTextHeader << '\n';
  for (const auto& [name, value] : snapshot.counters) {
    out << "counter " << name << ' ' << value << '\n';
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out << "gauge " << name << ' ' << value << '\n';
  }
  for (const auto& [name, h] : snapshot.histograms) {
    out << "hist " << name << " meta " << h.count << ' ' << h.sum << ' '
        << h.min << ' ' << h.max << '\n';
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      out << "hist " << name << " le ";
      if (i < h.bounds.size()) {
        out << h.bounds[i];
      } else {
        out << "+inf";
      }
      out << ' ' << h.counts[i] << '\n';
    }
    for (const Exemplar& ex : h.exemplars) {
      out << "hist " << name << " ex " << ex.bucket << ' '
          << trace_id_hex(ex.trace_id) << ' ' << ex.value << ' '
          << (ex.attr.empty() ? "-" : ex.attr) << '\n';
    }
  }
  return out.str();
}

Snapshot parse_text(const std::string& text) {
  std::istringstream in(text);
  std::string header;
  if (!std::getline(in, header) || header != kTextHeader) {
    throw FormatError("metrics text: missing '# amnesia metrics v1' header");
  }
  Snapshot snap;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string kind, name;
    if (!(fields >> kind >> name)) {
      throw FormatError("metrics text: malformed line: " + line);
    }
    try {
      if (kind == "counter") {
        std::string value;
        fields >> value;
        snap.counters[name] = std::stoull(value);
      } else if (kind == "gauge") {
        std::string value;
        fields >> value;
        snap.gauges[name] = std::stoll(value);
      } else if (kind == "hist") {
        std::string sub;
        fields >> sub;
        HistogramSnapshot& h = snap.histograms[name];
        if (sub == "meta") {
          std::string count, sum, min, max;
          fields >> count >> sum >> min >> max;
          h.count = std::stoull(count);
          h.sum = std::stoll(sum);
          h.min = std::stoll(min);
          h.max = std::stoll(max);
        } else if (sub == "le") {
          std::string bound, count;
          fields >> bound >> count;
          if (bound != "+inf") h.bounds.push_back(std::stoll(bound));
          h.counts.push_back(std::stoull(count));
        } else if (sub == "ex") {
          std::string bucket, trace, value, attr;
          fields >> bucket >> trace >> value >> attr;
          const auto id = parse_trace_id_hex(trace);
          if (!id) {
            throw FormatError("metrics text: bad exemplar trace: " + line);
          }
          Exemplar ex;
          ex.bucket = std::stoull(bucket);
          ex.trace_id = *id;
          ex.value = std::stoll(value);
          if (attr != "-") ex.attr = attr;
          h.exemplars.push_back(std::move(ex));
        } else {
          throw FormatError("metrics text: unknown hist line: " + line);
        }
      } else {
        throw FormatError("metrics text: unknown kind: " + kind);
      }
    } catch (const std::logic_error&) {  // stoull/stoll failures
      throw FormatError("metrics text: bad number in line: " + line);
    }
    if (fields.fail()) {
      throw FormatError("metrics text: truncated line: " + line);
    }
  }
  return snap;
}

namespace {

void json_string(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      default: out << c;
    }
  }
  out << '"';
}

}  // namespace

std::string to_json(const Snapshot& snapshot) {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out << (first ? "\n    " : ",\n    ");
    json_string(out, name);
    out << ": " << value;
    first = false;
  }
  out << (first ? "}" : "\n  }") << ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out << (first ? "\n    " : ",\n    ");
    json_string(out, name);
    out << ": " << value;
    first = false;
  }
  out << (first ? "}" : "\n  }") << ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    out << (first ? "\n    " : ",\n    ");
    json_string(out, name);
    out << ": {\"count\": " << h.count << ", \"sum\": " << h.sum
        << ", \"min\": " << h.min << ", \"max\": " << h.max
        << ", \"p50\": " << quantile(h, 0.50)
        << ", \"p95\": " << quantile(h, 0.95)
        << ", \"p99\": " << quantile(h, 0.99) << ", \"buckets\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out << ", ";
      out << "{\"le\": ";
      if (i < h.bounds.size()) {
        out << h.bounds[i];
      } else {
        out << "\"+inf\"";
      }
      out << ", \"count\": " << h.counts[i] << '}';
    }
    out << ']';
    if (!h.exemplars.empty()) {
      out << ", \"exemplars\": [";
      for (std::size_t i = 0; i < h.exemplars.size(); ++i) {
        const Exemplar& ex = h.exemplars[i];
        if (i > 0) out << ", ";
        out << "{\"le\": ";
        if (ex.bucket < h.bounds.size()) {
          out << h.bounds[ex.bucket];
        } else {
          out << "\"+inf\"";
        }
        out << ", \"bucket\": " << ex.bucket << ", \"trace_id\": \""
            << trace_id_hex(ex.trace_id) << "\", \"value\": " << ex.value
            << ", \"attr\": ";
        json_string(out, ex.attr);
        out << '}';
      }
      out << ']';
    }
    out << '}';
    first = false;
  }
  out << (first ? "}" : "\n  }") << "\n}\n";
  return out.str();
}

}  // namespace amnesia::obs
