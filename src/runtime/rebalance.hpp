#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "region/partition.hpp"
#include "region/world.hpp"

namespace dpart::runtime {

/// Skew-aware adaptive repartitioning (DESIGN.md §11).
///
/// The solver always synthesizes *unweighted* `equal` base partitions
/// (Algorithm 2), optimal only when work per index point is uniform. The
/// Rebalancer closes the loop at runtime: the executor hands it each
/// launch's per-piece task CPU seconds, it estimates a per-index weight
/// vector from them, and builds a replacement base partition with
/// region::equalWeighted. The executor routes that partition through the
/// external-binding path of Section 3.3 — derived image/preimage partitions
/// are re-evaluated against the new base, never re-solved, exactly like the
/// elastic-shrink machinery.
///
/// Each launch enters a loop's observation window as *shares*: piece times
/// divided by that launch's mean piece time. The window imbalance is the
/// largest mean share, and the window's noise floor is the widest range any
/// one piece's share spans across the window's launches. A window triggers
/// only once it holds enough launches, when its imbalance less its noise
/// floor still reaches the trigger (widened by a hysteresis band for a loop
/// already rebalanced), and while the rebalance cap is not reached.
/// Scheduler noise on a uniform workload must never trigger. The thresholds
/// are fixed constants (rebalance.cpp); the noise floor is measured.
///
/// Not thread-safe: the executor drives it from the launch thread, between
/// launches.
class Rebalancer {
 public:
  /// Folds one completed launch of `loop` into the loop's observation
  /// window; taskSeconds[j] is piece j's task CPU seconds. Called once per
  /// launch. A piece count change (elastic shrink) restarts the window —
  /// times measured on a different machine shape carry no signal for this
  /// one.
  void observe(const std::string& loop, const std::vector<double>& taskSeconds);

  /// True when the loop's window says a rebalance is warranted: enough
  /// launches observed, imbalance less the window's own noise floor past
  /// the (hysteresis-widened) trigger, cap not reached.
  [[nodiscard]] bool shouldRebalance(const std::string& loop) const;

  /// Builds the weighted replacement for `iter` (the loop's current
  /// iteration partition over `regionName`) from the window's mean
  /// per-piece shares, and restarts the loop's window so the new partition
  /// is judged only on launches it actually served. Call only after
  /// shouldRebalance().
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

  /// Imbalance of the loop's current window (largest mean share / mean
  /// share; 0 until a launch lands in the window). Exposed for the trace
  /// and tests.
  [[nodiscard]] double imbalance(const std::string& loop) const;

  /// Rebalances performed so far (counts toward the rebalance cap).
  [[nodiscard]] std::size_t rebalances() const { return rebalances_; }

  /// Drops every observation window (checkpoint restore / elastic shrink:
  /// the measured times no longer describe the machine). The rebalance
  /// count — and with it the cap — persists.
  void reset() { windows_.clear(); }

 private:
  /// Per-loop observation window, per piece over the window's launches.
  struct Window {
    std::uint64_t launches = 0;
    std::vector<double> shareSum;
    std::vector<double> shareMin;
    std::vector<double> shareMax;
    bool rebalanced = false;  ///< this loop already triggered at least once

    void restart(std::size_t pieces);
    [[nodiscard]] double imbalance() const;
    [[nodiscard]] double noise() const;
  };

  std::map<std::string, Window> windows_;
  std::size_t rebalances_ = 0;
};

}  // namespace dpart::runtime
