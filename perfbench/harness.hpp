#pragma once

// Clocks, sample statistics and metric output shared by every workload.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Process CPU time (all threads: the executor's task pool and the plan
/// server's worker count too), in milliseconds.
inline double cpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

inline double wallMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Quantile (q in [0, 1]) of an unsorted sample, interpolating linearly
/// between order statistics; 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The metrics one run reports, in insertion order, with units.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!index_.contains(name)) order_.push_back(name);
    index_[name] = {value, unit};
  }

  /// One human-readable line per metric on stdout.
  void print(const char* heading) const {
    std::printf("== %s ==\n", heading);
    for (const std::string& name : order_) {
      const auto& [value, unit] = index_.at(name);
      std::printf("  %-44s %14.6g %s\n", name.c_str(), value, unit.c_str());
    }
  }

  /// The body of the result line's "metrics" object.
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[64];
    for (const std::string& name : order_) {
      const auto& [value, unit] = index_.at(name);
      if (out.size() > 1) out += ", ";
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
             "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> index_;
};

}  // namespace perfbench
