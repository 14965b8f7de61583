#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "region/partition.hpp"
#include "region/world.hpp"
#include "runtime/options.hpp"
#include "support/metrics.hpp"

namespace dpart::runtime {

/// The metrics schema the executor publishes per-piece task CPU times
/// under (thread CPU seconds — see ThreadCpuTimer for why not wall time),
/// shared with the Rebalancer's harvesting side so the two cannot drift.
/// One gauge per (loop, piece) accumulates total task seconds; one counter
/// per loop counts completed launches; their ratio is the mean task time
/// the imbalance estimate is built from.
MetricGauge& taskSecondsGauge(MetricsRegistry& metrics,
                              const std::string& loop, std::size_t piece);
MetricCounter& launchCounter(MetricsRegistry& metrics, const std::string& loop);

/// Skew-aware adaptive repartitioning (DESIGN.md §11).
///
/// The solver always synthesizes *unweighted* `equal` base partitions
/// (Algorithm 2), optimal only when work per index point is uniform. The
/// Rebalancer closes the loop at runtime: it harvests per-piece task wall
/// CPU times from the MetricsRegistry the executor publishes into, estimates a
/// per-index weight vector from them, and builds a replacement base
/// partition with region::equalWeighted. The executor routes that partition
/// through the external-binding path of Section 3.3 — derived
/// image/preimage partitions are re-evaluated against the new base, never
/// re-solved, exactly like the elastic-shrink machinery.
///
/// Stability controls (RebalancePolicy): a launch-count warmup before the
/// signal is trusted, a trigger threshold on the window imbalance
/// (max piece time / mean piece time), a hysteresis band widening the
/// threshold for repeat triggers on the same loop, a cooldown of launches
/// under the new partition before the loop may trigger again, and a cap on
/// total rebalances. Uniform workloads must never trigger.
///
/// Not thread-safe: the executor drives it from the launch thread, between
/// launches.
class Rebalancer {
 public:
  Rebalancer(RebalancePolicy policy, MetricsRegistry& metrics)
      : policy_(policy), metrics_(&metrics) {}

  /// Folds the metrics published since the loop's window began into the
  /// loop's observation window. Called once per completed launch. The first
  /// call for a loop (re)baselines the window at the current metric values,
  /// so that launch is never counted. A piece count change (elastic shrink)
  /// discards the window — times measured on a different machine shape
  /// carry no signal for this one.
  void observe(const std::string& loop, std::size_t pieces);

  /// True when the loop's window says a rebalance is warranted under the
  /// policy (warmup served, imbalance past the (hysteresis-widened)
  /// trigger, cooldown expired, cap not reached).
  [[nodiscard]] bool shouldRebalance(const std::string& loop) const;

  /// Builds the weighted replacement for `iter` (the loop's current
  /// iteration partition over `regionName`) from the window's mean per-piece
  /// seconds, and resets the loop's window so the new partition is judged
  /// only on launches it actually served. Call only after shouldRebalance().
  [[nodiscard]] region::Partition rebuild(const region::World& world,
                                          const std::string& regionName,
                                          const region::Partition& iter,
                                          const std::string& loop);

  /// Per-index weights implied by per-piece times: every index of piece j
  /// gets weight seconds[j] / |piece j|, and indices no piece covers get the
  /// mean covered weight (no opinion, average cost). Exposed for the sim's
  /// 256-node projection and for direct unit testing.
  [[nodiscard]] static std::vector<double> estimateWeights(
      const region::Partition& iter, const std::vector<double>& pieceSeconds,
      region::Index regionSize);

  /// Imbalance of the loop's current window (max piece time / mean piece
  /// time; 0 until a launch lands in the window). Exposed for gauges and
  /// tests.
  [[nodiscard]] double imbalance(const std::string& loop) const;

  /// Rebalances performed so far (counts toward RebalancePolicy::maxRebalances).
  [[nodiscard]] std::size_t rebalances() const { return rebalances_; }

  /// Drops every observation window (checkpoint restore / elastic shrink:
  /// the measured times no longer describe the machine). The rebalance
  /// count — and with it the maxRebalances cap — persists.
  void reset() { windows_.clear(); }

 private:
  /// Per-loop observation window. Gauges/counters are monotone
  /// accumulators, so a window is a baseline snapshot plus deltas.
  struct Window {
    std::size_t pieces = 0;
    std::uint64_t baseLaunches = 0;     ///< launch counter at window start
    std::vector<double> baseSeconds;    ///< per-piece gauge at window start
    std::uint64_t launches = 0;         ///< launches inside the window
    std::vector<double> meanSeconds;    ///< per-piece mean over the window
    double imbalance = 0;
    bool rebalanced = false;  ///< this loop already triggered at least once
  };

  /// Re-baselines the window at the metrics' current values.
  void restartWindow(Window& w, const std::string& loop, std::size_t pieces);

  RebalancePolicy policy_;
  MetricsRegistry* metrics_;
  std::map<std::string, Window> windows_;
  std::size_t rebalances_ = 0;
};

}  // namespace dpart::runtime
