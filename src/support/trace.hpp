#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace dpart {

/// Span id of the innermost trace span open on the calling thread, across
/// all tracers, or 0 when none is open. Declared here (and defined in
/// trace.cpp) so error-taxonomy code can stamp a span id without depending
/// on the tracer headers' full surface.
[[nodiscard]] std::uint64_t currentTraceSpanId() noexcept;

/// Escapes a string for embedding inside a JSON string literal (quotes,
/// backslashes, control characters). Shared by the trace and metrics
/// exporters.
[[nodiscard]] std::string jsonEscape(std::string_view s);

/// One recorded trace event. `seq` is the event's slot in the ring buffer,
/// which is also its global chronological order (slots are allocated by a
/// single atomic counter); `seq + 1` doubles as the span id for Begin
/// events.
struct TraceEvent {
  enum class Phase : char {
    Begin = 'B',
    End = 'E',
    Instant = 'i',
  };

  Phase phase = Phase::Instant;
  std::uint32_t tid = 0;       ///< process-wide small thread index
  std::uint64_t seq = 0;       ///< ring slot == chronological order
  std::uint64_t tsMicros = 0;  ///< microseconds since the tracer's epoch
  const char* cat = "";        ///< static category string
  std::string name;            ///< event name (empty on End; filled at export)
  std::string args;            ///< preformatted JSON object body, may be empty
};

/// Low-overhead span/instant tracer backed by a preallocated ring
/// of events. Thread-safe: slots are claimed with one atomic fetch_add and
/// written without locks (distinct slots), timestamps come from one
/// steady clock (monotonic per thread), and the enabled flag is a relaxed
/// atomic so disabled call sites cost a load and a branch — no clock read,
/// no allocation (see DPART_TRACE_SPAN, which also defers evaluating the
/// name expression).
///
/// When the ring fills, further events are dropped (counted, never
/// overwritten): a trace is a prefix of the run, and the exporter keeps it
/// well-formed by synthesizing End events for spans whose End was dropped
/// or still open at export time.
///
/// Exporting (events() / toChromeJson() / spanTotalsMs()) must happen at a
/// quiescent point — after the thread pools that recorded events have
/// joined — which every call site in this repo guarantees (PlanExecutor
/// joins its pool before returning from run()).
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Starts recording. The first enable() fixes the trace epoch (ts 0).
  void enable();
  /// Stops recording; already-recorded events are kept for export.
  void disable();
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Records a Begin event and pushes it on the calling thread's span
  /// stack. Returns the span id (pass to endSpan), or 0 when disabled or
  /// the ring is full — a 0 from beginSpan means the matching endSpan is a
  /// no-op.
  std::uint64_t beginSpan(const char* cat, std::string name,
                          std::string args = {});

  /// Records the End event for `spanId` (from beginSpan) and pops the span
  /// stack. No-op when spanId == 0.
  void endSpan(std::uint64_t spanId, std::string args = {});

  /// Records an Instant event.
  void instant(const char* cat, std::string name, std::string args = {});

  /// Events recorded so far (quiescent read).
  [[nodiscard]] std::size_t size() const;
  /// Events lost to ring overflow.
  [[nodiscard]] std::uint64_t droppedEvents() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Chronological copy of the recorded events, with End events' names
  /// backfilled from their Begin and missing Ends synthesized, so the
  /// result is always balanced per thread.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// The full trace as a Chrome trace_event JSON document (load in
  /// chrome://tracing or https://ui.perfetto.dev).
  [[nodiscard]] std::string toChromeJson() const;

  /// Writes toChromeJson() to `path` (throws dpart::Error on I/O failure).
  void writeChromeTrace(const std::string& path) const;

  /// Total inclusive wall time per span name, in milliseconds — the
  /// aggregation that reconstructs the paper's Table 1 phase breakdown
  /// from a trace (spans still open at export count up to the latest
  /// recorded timestamp).
  [[nodiscard]] std::map<std::string, double> spanTotalsMs() const;

 private:
  std::uint64_t nowMicros() const;
  /// Claims a slot; returns nullptr (and counts a drop) when full.
  TraceEvent* claim(std::uint64_t* seqOut);

  std::vector<TraceEvent> buf_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_{};
  std::atomic<bool> epochSet_{false};
};

/// RAII scope for one trace span. Inactive (all no-ops) when constructed
/// with a null/disabled tracer or when the ring was full at begin time.
class TraceSpan {
 public:
  TraceSpan() = default;

  TraceSpan(Tracer* tracer, const char* cat, std::string name,
            std::string args = {}) {
    if (tracer != nullptr && tracer->enabled()) open(tracer, cat,
                                                     std::move(name),
                                                     std::move(args));
  }

  /// Defers evaluating the name expression until the tracer is known to be
  /// recording — the form DPART_TRACE_SPAN expands to, so disabled tracing
  /// never pays for string building. Constrained to callables so string
  /// literals still pick the eager std::string constructor above.
  template <typename NameFn>
    requires std::is_invocable_r_v<std::string, NameFn>
  TraceSpan(Tracer* tracer, const char* cat, NameFn&& nameFn) {
    if (tracer != nullptr && tracer->enabled()) {
      open(tracer, cat, std::forward<NameFn>(nameFn)(), {});
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() { end(); }

  /// Ends the span now instead of at scope exit (idempotent; the destructor
  /// becomes a no-op). For phases that finish mid-function.
  void end() {
    if (tracer_ != nullptr) {
      tracer_->endSpan(id_, std::move(endArgs_));
      tracer_ = nullptr;
      id_ = 0;
    }
  }

  /// Attaches a preformatted JSON object body (e.g. "\"elements\":42") to
  /// the span's End event. No-op on an inactive span.
  void annotate(std::string argsJsonBody) {
    if (tracer_ != nullptr) endArgs_ = std::move(argsJsonBody);
  }

  /// Span id for correlation (ErrorContext::spanId), 0 when inactive.
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] bool active() const { return tracer_ != nullptr; }

 private:
  void open(Tracer* tracer, const char* cat, std::string name,
            std::string args) {
    id_ = tracer->beginSpan(cat, std::move(name), std::move(args));
    if (id_ != 0) tracer_ = tracer;  // ring full -> stay inactive
  }

  Tracer* tracer_ = nullptr;
  std::uint64_t id_ = 0;
  std::string endArgs_;
};

}  // namespace dpart

#define DPART_TRACE_CONCAT_IMPL(a, b) a##b
#define DPART_TRACE_CONCAT(a, b) DPART_TRACE_CONCAT_IMPL(a, b)

/// Opens a scoped trace span named by evaluating the expression(s) in
/// __VA_ARGS__ — but only when `tracer` (a Tracer*) is non-null and
/// enabled, so hot paths with tracing off pay one branch and build no
/// strings.
#define DPART_TRACE_SPAN(tracer, cat, ...)                          \
  ::dpart::TraceSpan DPART_TRACE_CONCAT(dpartTraceSpan_, __LINE__)( \
      (tracer), (cat), [&]() -> ::std::string { return (__VA_ARGS__); })

/// Like DPART_TRACE_SPAN but binds the span to a named variable so the
/// call site can annotate() it or read its id().
#define DPART_TRACE_SPAN_NAMED(var, tracer, cat, ...) \
  ::dpart::TraceSpan var(                             \
      (tracer), (cat), [&]() -> ::std::string { return (__VA_ARGS__); })
