#include "support/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "support/check.hpp"
#include "support/trace.hpp"  // jsonEscape

namespace dpart {

namespace {

void appendNumber(std::ostringstream& os, double v) {
  // Integral values (the common case for sums of counts) print without an
  // exponent; everything else keeps full round-trip precision.
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 1e15) {
    os << static_cast<long long>(v);
    return;
  }
  os.precision(17);
  os << v;
}

}  // namespace

MetricHistogram::MetricHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  DPART_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()),
              "histogram bounds must be ascending");
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void MetricHistogram::observe(double x) {
  const std::size_t idx = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), x) - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(x, std::memory_order_relaxed);
}

std::vector<std::uint64_t> MetricHistogram::bucketCounts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::string MetricsRegistry::key(const std::string& name,
                                 const MetricLabels& labels) {
  std::string k = name;
  for (const auto& [lk, lv] : labels) {
    k += '|';
    k += lk;
    k += '=';
    k += lv;
  }
  return k;
}

MetricCounter& MetricsRegistry::counter(const std::string& name,
                                        const MetricLabels& labels) {
  std::lock_guard lock(mutex_);
  Metric& m = metrics_[key(name, labels)];
  if (m.counter == nullptr) {
    DPART_CHECK(m.gauge == nullptr && m.histogram == nullptr,
                "metric '" + name + "' already registered with another type");
    m.kind = Snapshot::Entry::Kind::Counter;
    m.name = name;
    m.labels = labels;
    m.counter = std::make_unique<MetricCounter>();
  }
  return *m.counter;
}

MetricGauge& MetricsRegistry::gauge(const std::string& name,
                                    const MetricLabels& labels) {
  std::lock_guard lock(mutex_);
  Metric& m = metrics_[key(name, labels)];
  if (m.gauge == nullptr) {
    DPART_CHECK(m.counter == nullptr && m.histogram == nullptr,
                "metric '" + name + "' already registered with another type");
    m.kind = Snapshot::Entry::Kind::Gauge;
    m.name = name;
    m.labels = labels;
    m.gauge = std::make_unique<MetricGauge>();
  }
  return *m.gauge;
}

MetricHistogram& MetricsRegistry::histogram(const std::string& name,
                                            std::vector<double> bounds,
                                            const MetricLabels& labels) {
  std::lock_guard lock(mutex_);
  Metric& m = metrics_[key(name, labels)];
  if (m.histogram == nullptr) {
    DPART_CHECK(m.counter == nullptr && m.gauge == nullptr,
                "metric '" + name + "' already registered with another type");
    m.kind = Snapshot::Entry::Kind::Histogram;
    m.name = name;
    m.labels = labels;
    m.histogram = std::make_unique<MetricHistogram>(std::move(bounds));
  } else {
    DPART_CHECK(m.histogram->bounds() == bounds,
                "histogram '" + name + "' re-registered with other bounds");
  }
  return *m.histogram;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  Snapshot snap;
  snap.entries.reserve(metrics_.size());
  for (const auto& [k, m] : metrics_) {
    Snapshot::Entry e;
    e.kind = m.kind;
    e.name = m.name;
    e.labels = m.labels;
    switch (m.kind) {
      case Snapshot::Entry::Kind::Counter:
        e.count = m.counter->value();
        break;
      case Snapshot::Entry::Kind::Gauge:
        e.value = m.gauge->value();
        break;
      case Snapshot::Entry::Kind::Histogram:
        e.count = m.histogram->count();
        e.value = m.histogram->sum();
        e.bounds = m.histogram->bounds();
        e.buckets = m.histogram->bucketCounts();
        break;
    }
    snap.entries.push_back(std::move(e));
  }
  return snap;  // map iteration order == key order: deterministic
}

std::string MetricsRegistry::Snapshot::toJson() const {
  std::ostringstream os;
  os << "{\"metrics\":[";
  bool first = true;
  for (const Entry& e : entries) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << jsonEscape(e.name) << "\",\"type\":\"";
    switch (e.kind) {
      case Entry::Kind::Counter: os << "counter"; break;
      case Entry::Kind::Gauge: os << "gauge"; break;
      case Entry::Kind::Histogram: os << "histogram"; break;
    }
    os << '"';
    if (!e.labels.empty()) {
      os << ",\"labels\":{";
      bool firstLabel = true;
      for (const auto& [k, v] : e.labels) {
        if (!firstLabel) os << ',';
        firstLabel = false;
        os << '"' << jsonEscape(k) << "\":\"" << jsonEscape(v) << '"';
      }
      os << '}';
    }
    switch (e.kind) {
      case Entry::Kind::Counter:
        os << ",\"value\":" << e.count;
        break;
      case Entry::Kind::Gauge: {
        os << ",\"value\":";
        appendNumber(os, e.value);
        break;
      }
      case Entry::Kind::Histogram: {
        os << ",\"count\":" << e.count << ",\"sum\":";
        appendNumber(os, e.value);
        os << ",\"bounds\":[";
        for (std::size_t i = 0; i < e.bounds.size(); ++i) {
          if (i > 0) os << ',';
          appendNumber(os, e.bounds[i]);
        }
        os << "],\"buckets\":[";
        for (std::size_t i = 0; i < e.buckets.size(); ++i) {
          if (i > 0) os << ',';
          os << e.buckets[i];
        }
        os << ']';
        break;
      }
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

void MetricsRegistry::writeJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  DPART_CHECK(out.good(), "cannot open metrics file '" + path + "'");
  out << toJson();
  out.flush();
  DPART_CHECK(out.good(), "failed writing metrics file '" + path + "'");
}

}  // namespace dpart
