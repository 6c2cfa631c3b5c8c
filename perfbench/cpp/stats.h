// Small measurement helpers: clocks, percentiles, the Zipf sampler, and
// the named-metric list every phase of the benchmark reports into.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall time in microseconds (steady_clock).
std::int64_t now_us();
/// CPU time of the calling thread / of the whole process, microseconds.
double thread_cpu_us();
double process_cpu_us();
/// Peak resident set size of the process so far, MiB.
double peak_rss_mb();

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Zipf(s) over ranks 0..n-1: rank r is drawn with weight 1/(r+1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t operator()(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

/// One reported number: name, value, unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ordered metric list; set() overwrites an existing name.
class MetricList {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// JSON number with full precision (non-finite values print as 0).
std::string json_number(double v);
std::string json_escape(const std::string& s);

}  // namespace perfbench
