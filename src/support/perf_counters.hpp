#pragma once

#include <array>
#include <cstdint>
#include <sstream>
#include <string>

#include "support/metrics.hpp"

namespace dpart {

/// Per-operator tallies for one class of DPL operator (see PerfCounters).
struct OpCounter {
  std::uint64_t invocations = 0;
  double seconds = 0;            ///< wall time spent materializing
  std::uint64_t elements = 0;    ///< elements touched (inputs scanned)
  std::uint64_t runs = 0;        ///< runs produced across result subregions

  void record(double sec, std::uint64_t elems, std::uint64_t runsProduced) {
    ++invocations;
    seconds += sec;
    elements += elems;
    runs += runsProduced;
  }
};

/// Observability for the partition-materialization pipeline: where the
/// evaluator spends its time, how much data each operator class touches, how
/// fragmented the results are, and how often the expression memo cache short-
/// circuits re-evaluation. Surfaced by dpl::Evaluator / runtime::PlanExecutor
/// and printed by the benchmarks as one JSON line per run.
struct PerfCounters {
  enum Op : std::size_t {
    kEqual = 0,
    kImage,
    kPreimage,
    kUnion,
    kIntersect,
    kSubtract,
    kNumOps,
  };

  static const char* opName(std::size_t op) {
    static constexpr const char* kNames[kNumOps] = {
        "equal", "image", "preimage", "union", "intersect", "subtract"};
    return op < kNumOps ? kNames[op] : "?";
  }

  std::array<OpCounter, kNumOps> ops{};
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  /// Stall time injected by FaultKind::Straggler, attributed here instead of
  /// the stalled operator's wall time so per-op timings stay comparable
  /// between faulty and fault-free runs.
  std::uint64_t injectedStallMicros = 0;
  /// Hybrid IndexSet activity attributable to the evaluator's kernel calls,
  /// harvested as deltas of region::IndexSet::stats(): containers converted
  /// between run and bitmap form, and 64-bit words processed by the
  /// word-at-a-time bitmap op loops.
  std::uint64_t containerSwitches = 0;
  std::uint64_t bitmapOpWords = 0;

  void merge(const PerfCounters& other) {
    for (std::size_t i = 0; i < kNumOps; ++i) {
      ops[i].invocations += other.ops[i].invocations;
      ops[i].seconds += other.ops[i].seconds;
      ops[i].elements += other.ops[i].elements;
      ops[i].runs += other.ops[i].runs;
    }
    cacheHits += other.cacheHits;
    cacheMisses += other.cacheMisses;
    injectedStallMicros += other.injectedStallMicros;
    containerSwitches += other.containerSwitches;
    bitmapOpWords += other.bitmapOpWords;
  }

  [[nodiscard]] double totalSeconds() const {
    double s = 0;
    for (const OpCounter& c : ops) s += c.seconds;
    return s;
  }

  /// One machine-readable JSON object (no trailing newline). Every declared
  /// operator appears even with zero invocations, so downstream consumers
  /// (bench JSON scrapers, the metrics export) see a fixed schema.
  [[nodiscard]] std::string toJson() const {
    std::ostringstream os;
    os << "{\"cache_hits\":" << cacheHits
       << ",\"cache_misses\":" << cacheMisses
       << ",\"injected_stall_us\":" << injectedStallMicros
       << ",\"container_switches\":" << containerSwitches
       << ",\"bitmap_op_words\":" << bitmapOpWords << ",\"ops\":{";
    for (std::size_t i = 0; i < kNumOps; ++i) {
      const OpCounter& c = ops[i];
      if (i > 0) os << ',';
      os << '"' << opName(i) << "\":{\"calls\":" << c.invocations
         << ",\"ms\":" << c.seconds * 1e3 << ",\"elements\":" << c.elements
         << ",\"runs\":" << c.runs << '}';
    }
    os << "}}";
    return os.str();
  }

  /// Publishes every tally into `registry` as dpl.* metrics, one labelled
  /// series per operator. Each call sets the running totals (gauge semantics
  /// for the counts too), so publishing again after more work overwrites
  /// rather than double-counts.
  void exportTo(MetricsRegistry& registry) const {
    for (std::size_t i = 0; i < kNumOps; ++i) {
      const MetricLabels labels{{"op", opName(i)}};
      registry.gauge("dpl.op.calls", labels)
          .set(static_cast<double>(ops[i].invocations));
      registry.gauge("dpl.op.ms", labels).set(ops[i].seconds * 1e3);
      registry.gauge("dpl.op.elements", labels)
          .set(static_cast<double>(ops[i].elements));
      registry.gauge("dpl.op.runs", labels)
          .set(static_cast<double>(ops[i].runs));
    }
    registry.gauge("dpl.cache.hits").set(static_cast<double>(cacheHits));
    registry.gauge("dpl.cache.misses").set(static_cast<double>(cacheMisses));
    registry.gauge("dpl.injected_stall_us")
        .set(static_cast<double>(injectedStallMicros));
    registry.gauge("dpl.indexset.container_switches")
        .set(static_cast<double>(containerSwitches));
    registry.gauge("dpl.indexset.bitmap_op_words")
        .set(static_cast<double>(bitmapOpWords));
  }
};

}  // namespace dpart
