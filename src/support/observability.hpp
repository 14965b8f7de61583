#pragma once

#include <string>

#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace dpart {

/// Observability wiring shared by every layer (analysis phases, DPL
/// evaluator, plan executor) and owned at the top by dpart::Session.
///
/// The tracer/metrics pointers are borrowed. Point them at caller-owned
/// objects to aggregate several components into one timeline, or leave them
/// null: Session then owns a metrics registry, and a tracer only when
/// `traceFile` is set. A caller who wants an in-memory trace or a different
/// ring capacity passes its own enabled Tracer. A null tracer disables
/// tracing at a cost of one branch per site.
struct ObservabilityOptions {
  /// Span/instant sink; null disables tracing at every site.
  Tracer* tracer = nullptr;
  /// Metrics sink (errorsTotal, replaysTotal, DPL op gauges, ...); null
  /// disables metric updates.
  MetricsRegistry* metrics = nullptr;
  /// Chrome trace_event JSON written at the end of Session::run()
  /// (loadable in chrome://tracing or Perfetto). Empty = not written. When
  /// set, Session enables `tracer`, creating and owning a default-capacity
  /// one if it is null.
  std::string traceFile;
  /// Metrics snapshot JSON written at the end of Session::run().
  std::string metricsFile;
};

}  // namespace dpart
