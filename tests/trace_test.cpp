#include "support/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <thread>
#include <vector>

#include "support/check.hpp"
#include "support/json.hpp"

// Global allocation counter for the overhead-guard test: every path through
// operator new bumps it, so "tracing disabled allocates nothing" is checked
// directly rather than inferred from timings.
namespace {
std::atomic<std::uint64_t> gAllocs{0};
}  // namespace

// GCC cannot see that the replaced operator new hands malloc-compatible
// pointers to the replaced operator delete below.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  gAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  gAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dpart {
namespace {

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.beginSpan("t", "never"), 0u);
  tracer.instant("t", "never");
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(Trace, SpansNestAndBalance) {
  Tracer tracer;
  tracer.enable();
  {
    TraceSpan outer(&tracer, "test", "outer");
    ASSERT_TRUE(outer.active());
    {
      TraceSpan inner(&tracer, "test", "inner");
      EXPECT_NE(inner.id(), outer.id());
      EXPECT_EQ(currentTraceSpanId(), inner.id());
    }
    EXPECT_EQ(currentTraceSpanId(), outer.id());
  }
  EXPECT_EQ(currentTraceSpanId(), 0u);

  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::Begin);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  // End names are backfilled from the matching Begin at export time.
  EXPECT_EQ(events[2].phase, TraceEvent::Phase::End);
  EXPECT_EQ(events[2].name, "inner");
  EXPECT_EQ(events[3].name, "outer");
  // seq is chronological.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].seq, events[i - 1].seq);
  }
}

TEST(Trace, EndIsIdempotentAndAnnotateLandsOnEndEvent) {
  Tracer tracer;
  tracer.enable();
  TraceSpan span(&tracer, "test", "work");
  span.annotate("\"elements\":42");
  span.end();
  span.end();  // second end must be a no-op
  EXPECT_FALSE(span.active());

  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].phase, TraceEvent::Phase::End);
  EXPECT_EQ(events[1].args, "\"elements\":42");
}

TEST(Trace, ChromeJsonSchema) {
  Tracer tracer;
  tracer.enable();
  {
    TraceSpan span(&tracer, "compile", "phase.solve", "\"vars\":3");
    tracer.instant("executor", "task.replay", "\"site\":\"task:x:1\"");
  }

  const json::Value doc = json::parse(tracer.toChromeJson());
  ASSERT_TRUE(doc.isObject());
  const json::Value& events = doc.at("traceEvents");
  ASSERT_TRUE(events.isArray());
  ASSERT_EQ(events.items.size(), 3u);  // B, i, E
  for (const json::Value& e : events.items) {
    ASSERT_TRUE(e.isObject());
    EXPECT_TRUE(e.at("ph").isString());
    EXPECT_TRUE(e.at("ts").isNumber());
    EXPECT_TRUE(e.at("pid").isNumber());
    EXPECT_TRUE(e.at("tid").isNumber());
    EXPECT_TRUE(e.at("cat").isString());
  }
  EXPECT_EQ(events.items[0].at("ph").str, "B");
  EXPECT_EQ(events.items[0].at("name").str, "phase.solve");
  EXPECT_EQ(events.items[0].at("args").at("vars").number, 3);
  EXPECT_EQ(events.items[1].at("ph").str, "i");
  EXPECT_EQ(events.items[2].at("ph").str, "E");
}

TEST(Trace, OverflowDropsButExportStaysBalanced) {
  Tracer tracer(/*capacity=*/4);
  tracer.enable();
  const std::uint64_t outer = tracer.beginSpan("t", "outer");
  const std::uint64_t inner = tracer.beginSpan("t", "inner");
  for (int i = 0; i < 16; ++i) tracer.instant("t", "filler");
  tracer.endSpan(inner);  // dropped: ring is full
  tracer.endSpan(outer);  // dropped: ring is full
  EXPECT_GT(tracer.droppedEvents(), 0u);

  // The exporter synthesizes the missing Ends, so per-thread B/E balance.
  int depth = 0;
  for (const TraceEvent& e : tracer.events()) {
    if (e.phase == TraceEvent::Phase::Begin) ++depth;
    if (e.phase == TraceEvent::Phase::End) --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NO_THROW(json::parse(tracer.toChromeJson()));
}

TEST(Trace, SpanTotalsReconstructPhaseBreakdown) {
  Tracer tracer;
  tracer.enable();
  for (int i = 0; i < 3; ++i) {
    TraceSpan span(&tracer, "compile", "phase.infer");
  }
  { TraceSpan span(&tracer, "compile", "phase.solve"); }
  const std::map<std::string, double> totals = tracer.spanTotalsMs();
  ASSERT_TRUE(totals.contains("phase.infer"));
  ASSERT_TRUE(totals.contains("phase.solve"));
  EXPECT_GE(totals.at("phase.infer"), 0.0);
}

TEST(Trace, ThreadedRecordingKeepsPerThreadBalance) {
  Tracer tracer;
  tracer.enable();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < 64; ++i) {
        TraceSpan span(&tracer, "test", "worker" + std::to_string(t));
        tracer.instant("test", "tick");
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::map<std::uint32_t, int> depth;
  for (const TraceEvent& e : tracer.events()) {
    if (e.phase == TraceEvent::Phase::Begin) ++depth[e.tid];
    if (e.phase == TraceEvent::Phase::End) {
      --depth[e.tid];
      EXPECT_GE(depth[e.tid], 0);
    }
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "tid " << tid;
}

TEST(Trace, WriteChromeTraceRoundTripsThroughAFile) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "dpart_trace_test.json";
  Tracer tracer;
  tracer.enable();
  { TraceSpan span(&tracer, "test", "file \"quoted\"\nname"); }
  tracer.writeChromeTrace(path.string());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const json::Value doc = json::parse(text);
  EXPECT_EQ(doc.at("traceEvents").items[0].at("name").str,
            "file \"quoted\"\nname");
  std::filesystem::remove(path);
}

// The overhead guard of the API redesign: with tracing disabled (null or
// disabled tracer), DPART_TRACE_SPAN must not allocate — the name expression
// is never evaluated and the span object stays empty.
TEST(Trace, DisabledSpanMacroDoesNotAllocate) {
  Tracer tracer;  // never enabled
  const std::string component = "a long component name defeating SSO";

  auto hotPath = [&](Tracer* t) {
    for (int i = 0; i < 1000; ++i) {
      DPART_TRACE_SPAN(t, "hot",
                       component + ".op" + std::to_string(i));  // deferred
    }
  };

  hotPath(nullptr);  // warm up lazy runtime allocations
  const std::uint64_t before = gAllocs.load(std::memory_order_relaxed);
  hotPath(nullptr);
  hotPath(&tracer);
  const std::uint64_t after = gAllocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);

  // Sanity: the same loop with the tracer enabled does evaluate names.
  tracer.enable();
  hotPath(&tracer);
  EXPECT_GT(gAllocs.load(std::memory_order_relaxed), after);
  EXPECT_GT(tracer.size(), 0u);
}

TEST(Trace, ErrorContextCapturesTheOpenSpan) {
  Tracer tracer;
  tracer.enable();
  TraceSpan span(&tracer, "test", "failing.phase");
  ASSERT_NE(span.id(), 0u);
  // ErrorContext's spanId defaults to the innermost open span, so every
  // taxonomy error thrown under a span can be located on the timeline.
  ErrorContext ctx;
  ctx.site = "task:x:1";
  const TaskFailure err("task died", ctx);
  const std::string what = err.what();
  EXPECT_NE(what.find("span=" + std::to_string(span.id())), std::string::npos)
      << what;
  EXPECT_EQ(err.context().spanId, span.id());

  span.end();
  const TaskFailure bare("task died", ErrorContext{});
  EXPECT_EQ(bare.context().spanId, 0u);
}

}  // namespace
}  // namespace dpart
