#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dpart {

/// Label set attached to a metric instance. Two metrics with the same name
/// but different labels are distinct time series (e.g.
/// errorsTotal{kind=TaskFailure} vs errorsTotal{kind=EvalFailure}).
using MetricLabels = std::map<std::string, std::string>;

/// Monotone integer counter. All mutators are lock-free and thread-safe.
class MetricCounter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins floating point gauge.
class MetricGauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0};
};

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds,
/// with an implicit +inf overflow bucket, so bucketCounts() has
/// bounds.size() + 1 entries. Observations are lock-free.
class MetricHistogram {
 public:
  explicit MetricHistogram(std::vector<double> bounds);

  void observe(double x);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] std::vector<std::uint64_t> bucketCounts() const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0};
};

/// Registry of named counters / gauges / histograms with labels, replacing
/// ad-hoc tally structs as the system-wide metrics surface (PerfCounters
/// publishes into it via PerfCounters::exportTo). Creation takes a lock;
/// returned references are stable for the registry's lifetime, so hot paths
/// look a metric up once and update it lock-free thereafter.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  MetricCounter& counter(const std::string& name,
                         const MetricLabels& labels = {});
  MetricGauge& gauge(const std::string& name, const MetricLabels& labels = {});
  /// Bounds must match on every lookup of the same (name, labels).
  MetricHistogram& histogram(const std::string& name,
                             std::vector<double> bounds,
                             const MetricLabels& labels = {});

  /// Point-in-time structured copy of every metric, ordered by
  /// (name, labels) so snapshots are deterministic and comparable.
  struct Snapshot {
    struct Entry {
      enum class Kind { Counter, Gauge, Histogram };
      Kind kind = Kind::Counter;
      std::string name;
      MetricLabels labels;
      std::uint64_t count = 0;  ///< counter value / histogram observation count
      double value = 0;         ///< gauge value / histogram sum
      std::vector<double> bounds;
      std::vector<std::uint64_t> buckets;

      bool operator==(const Entry&) const = default;
    };

    std::vector<Entry> entries;

    bool operator==(const Snapshot&) const = default;

    /// One JSON document: {"metrics":[{...},...]}.
    [[nodiscard]] std::string toJson() const;
  };

  [[nodiscard]] Snapshot snapshot() const;

  [[nodiscard]] std::string toJson() const { return snapshot().toJson(); }

  /// Writes toJson() to `path` (throws dpart::Error on I/O failure).
  void writeJson(const std::string& path) const;

 private:
  struct Metric {
    Snapshot::Entry::Kind kind;
    std::string name;
    MetricLabels labels;
    std::unique_ptr<MetricCounter> counter;
    std::unique_ptr<MetricGauge> gauge;
    std::unique_ptr<MetricHistogram> histogram;
  };

  static std::string key(const std::string& name, const MetricLabels& labels);

  mutable std::mutex mutex_;
  std::map<std::string, Metric> metrics_;
};

}  // namespace dpart
