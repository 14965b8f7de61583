#include "support/metrics.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "support/json.hpp"
#include "support/perf_counters.hpp"

namespace dpart {
namespace {

TEST(Metrics, CounterGaugeHistogramBasics) {
  MetricsRegistry registry;
  registry.counter("requests").inc();
  registry.counter("requests").inc(4);
  EXPECT_EQ(registry.counter("requests").value(), 5u);

  registry.gauge("temperature").set(21.5);
  registry.gauge("temperature").add(0.5);
  EXPECT_DOUBLE_EQ(registry.gauge("temperature").value(), 22.0);

  MetricHistogram& h = registry.histogram("latencyMs", {1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(5000.0);  // overflow bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 5005.5);
  const std::vector<std::uint64_t> buckets = h.bucketCounts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[3], 1u);
}

TEST(Metrics, LabelsMakeDistinctSeries) {
  MetricsRegistry registry;
  registry.counter("errorsTotal", {{"kind", "TaskFailure"}}).inc(3);
  registry.counter("errorsTotal", {{"kind", "EvalFailure"}}).inc();
  EXPECT_EQ(registry.counter("errorsTotal", {{"kind", "TaskFailure"}}).value(),
            3u);
  EXPECT_EQ(registry.counter("errorsTotal", {{"kind", "EvalFailure"}}).value(),
            1u);
  // The unlabelled series is yet another metric.
  EXPECT_EQ(registry.counter("errorsTotal").value(), 0u);
}

TEST(Metrics, ReferencesAreStableAcrossLaterRegistrations) {
  MetricsRegistry registry;
  MetricCounter& c = registry.counter("first");
  for (int i = 0; i < 100; ++i) {
    registry.counter("other" + std::to_string(i));
  }
  c.inc(7);  // the early reference must still point at the live metric
  EXPECT_EQ(registry.counter("first").value(), 7u);
}

TEST(Metrics, SnapshotIsDeterministicallyOrdered) {
  MetricsRegistry a;
  a.counter("zeta").inc();
  a.counter("alpha").inc();
  MetricsRegistry b;
  b.counter("alpha").inc();
  b.counter("zeta").inc();
  // Registration order must not leak into the snapshot.
  EXPECT_EQ(a.snapshot(), b.snapshot());
}

TEST(Metrics, JsonExportParsesAndCarriesEverySeries) {
  MetricsRegistry registry;
  registry.counter("errorsTotal", {{"kind", "TaskFailure"}}).inc(2);
  registry.gauge("pieces").set(8);
  registry.histogram("latencyMs", {1.0}).observe(0.5);

  const json::Value doc = json::parse(registry.toJson());
  const json::Value& metrics = doc.at("metrics");
  ASSERT_TRUE(metrics.isArray());
  ASSERT_EQ(metrics.items.size(), 3u);
  bool sawCounter = false;
  for (const json::Value& m : metrics.items) {
    EXPECT_TRUE(m.at("name").isString());
    EXPECT_TRUE(m.at("type").isString());
    if (m.at("name").str == "errorsTotal") {
      sawCounter = true;
      EXPECT_EQ(m.at("type").str, "counter");
      EXPECT_EQ(m.at("labels").at("kind").str, "TaskFailure");
      EXPECT_EQ(m.at("value").number, 2);
    }
    if (m.at("name").str == "latencyMs") {
      EXPECT_EQ(m.at("type").str, "histogram");
      ASSERT_TRUE(m.at("buckets").isArray());
      EXPECT_EQ(m.at("buckets").items.size(), 2u);
      EXPECT_TRUE(m.at("count").isNumber());
      EXPECT_TRUE(m.at("sum").isNumber());
    }
  }
  EXPECT_TRUE(sawCounter);
}

TEST(Metrics, WriteJsonRoundTripsThroughAFile) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "dpart_metrics_test.json";
  MetricsRegistry registry;
  registry.counter("launches").inc(3);
  registry.writeJson(path.string());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const json::Value doc = json::parse(text);
  EXPECT_EQ(doc.at("metrics").items.size(), 1u);
  std::filesystem::remove(path);
}

TEST(Metrics, ConcurrentUpdatesLoseNothing) {
  MetricsRegistry registry;
  MetricCounter& c = registry.counter("hits");
  MetricHistogram& h = registry.histogram("obs", {0.5});
  std::vector<std::thread> threads;
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        c.inc();
        h.observe(1.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), std::uint64_t(kThreads) * kIters);
  EXPECT_EQ(h.count(), std::uint64_t(kThreads) * kIters);
  EXPECT_EQ(h.bucketCounts()[1], std::uint64_t(kThreads) * kIters);
}

TEST(Metrics, PerfCountersExportPublishesFixedSchema) {
  PerfCounters counters;
  counters.ops[PerfCounters::kImage].record(0.002, 100, 7);
  counters.cacheHits = 5;
  counters.injectedStallMicros = 1234;

  MetricsRegistry registry;
  counters.exportTo(registry);
  // Every declared operator appears, even the ones never invoked.
  for (std::size_t i = 0; i < PerfCounters::kNumOps; ++i) {
    const MetricLabels labels{{"op", PerfCounters::opName(i)}};
    EXPECT_GE(registry.gauge("dpl.op.calls", labels).value(), 0.0);
  }
  EXPECT_DOUBLE_EQ(
      registry.gauge("dpl.op.calls", {{"op", "image"}}).value(), 1.0);
  EXPECT_DOUBLE_EQ(
      registry.gauge("dpl.op.elements", {{"op", "image"}}).value(), 100.0);
  EXPECT_DOUBLE_EQ(registry.gauge("dpl.cache.hits").value(), 5.0);
  EXPECT_DOUBLE_EQ(registry.gauge("dpl.injected_stall_us").value(), 1234.0);

  // toJson carries the same fixed schema (satellite of the bench fix).
  const json::Value doc = json::parse(counters.toJson());
  EXPECT_EQ(doc.at("injected_stall_us").number, 1234);
  for (std::size_t i = 0; i < PerfCounters::kNumOps; ++i) {
    EXPECT_TRUE(doc.at("ops").has(PerfCounters::opName(i)));
  }
}

}  // namespace
}  // namespace dpart
