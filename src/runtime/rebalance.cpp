#include "runtime/rebalance.hpp"

#include <algorithm>

#include "region/dpl_ops.hpp"
#include "support/check.hpp"

namespace dpart::runtime {

using region::Index;
using region::Partition;

MetricGauge& taskSecondsGauge(MetricsRegistry& metrics,
                              const std::string& loop, std::size_t piece) {
  return metrics.gauge("executor.task.secondsTotal",
                       {{"loop", loop}, {"piece", std::to_string(piece)}});
}

MetricCounter& launchCounter(MetricsRegistry& metrics,
                             const std::string& loop) {
  return metrics.counter("executor.task.launches", {{"loop", loop}});
}

void Rebalancer::restartWindow(Window& w, const std::string& loop,
                               std::size_t pieces) {
  w.pieces = pieces;
  w.baseLaunches = launchCounter(*metrics_, loop).value();
  w.baseSeconds.resize(pieces);
  for (std::size_t j = 0; j < pieces; ++j) {
    w.baseSeconds[j] = taskSecondsGauge(*metrics_, loop, j).value();
  }
  w.launches = 0;
  w.meanSeconds.clear();
  w.imbalance = 0;
}

void Rebalancer::observe(const std::string& loop, std::size_t pieces) {
  Window& w = windows_[loop];
  if (w.pieces != pieces) restartWindow(w, loop, pieces);
  w.launches = launchCounter(*metrics_, loop).value() - w.baseLaunches;
  if (w.launches == 0) {
    w.meanSeconds.clear();
    w.imbalance = 0;
    return;
  }
  w.meanSeconds.resize(pieces);
  double total = 0;
  double worst = 0;
  for (std::size_t j = 0; j < pieces; ++j) {
    const double delta =
        taskSecondsGauge(*metrics_, loop, j).value() - w.baseSeconds[j];
    const double mean = delta / static_cast<double>(w.launches);
    w.meanSeconds[j] = mean;
    total += mean;
    worst = std::max(worst, mean);
  }
  // Sub-threshold launches are scheduler noise, not a balance signal: hold
  // the window at "no opinion" rather than trigger on microsecond jitter.
  if (worst < policy_.minTaskSeconds) {
    w.imbalance = 0;
    return;
  }
  const double mean = total / static_cast<double>(pieces);
  w.imbalance = mean > 0 ? worst / mean : 0;
}

bool Rebalancer::shouldRebalance(const std::string& loop) const {
  if (!policy_.enabled) return false;
  if (rebalances_ >= static_cast<std::size_t>(
                         std::max(0, policy_.maxRebalances))) {
    return false;
  }
  auto it = windows_.find(loop);
  if (it == windows_.end()) return false;
  const Window& w = it->second;
  // Warmup before the first trigger; after a rebalance the window restarts,
  // so the same bound doubles as the cooldown under the new partition.
  const int need = w.rebalanced
                       ? std::max(policy_.warmupLaunches,
                                  policy_.cooldownLaunches)
                       : policy_.warmupLaunches;
  if (w.launches < static_cast<std::uint64_t>(std::max(1, need))) return false;
  double threshold = policy_.triggerImbalance;
  if (w.rebalanced) threshold *= 1.0 + policy_.hysteresis;
  return w.imbalance >= threshold;
}

double Rebalancer::imbalance(const std::string& loop) const {
  auto it = windows_.find(loop);
  return it == windows_.end() ? 0 : it->second.imbalance;
}

std::vector<double> Rebalancer::estimateWeights(
    const Partition& iter, const std::vector<double>& pieceSeconds,
    Index regionSize) {
  DPART_CHECK(pieceSeconds.size() == iter.count(),
              "estimateWeights: one time per piece required");
  std::vector<double> weights(static_cast<std::size_t>(regionSize), -1.0);
  double coveredSum = 0;
  Index covered = 0;
  for (std::size_t j = 0; j < iter.count(); ++j) {
    const region::IndexSet& sub = iter.sub(j);
    if (sub.empty()) continue;
    const double perIndex = std::max(0.0, pieceSeconds[j]) /
                            static_cast<double>(sub.size());
    sub.forEach([&](Index i) {
      if (i < 0 || i >= regionSize) return;
      // Aliased iteration partitions may cover an index twice; keep the
      // larger estimate (the index is at least that expensive somewhere).
      double& slot = weights[static_cast<std::size_t>(i)];
      if (slot < 0) {
        slot = perIndex;
        coveredSum += perIndex;
        ++covered;
      } else if (perIndex > slot) {
        coveredSum += perIndex - slot;
        slot = perIndex;
      }
    });
  }
  // Uncovered indices get the mean covered weight: no measurement means no
  // opinion, and an average-cost guess keeps the split near-neutral there.
  const double fill = covered > 0 ? coveredSum / static_cast<double>(covered)
                                  : 1.0;
  for (double& w : weights) {
    if (w < 0) w = fill;
  }
  return weights;
}

Partition Rebalancer::rebuild(const region::World& world,
                              const std::string& regionName,
                              const Partition& iter, const std::string& loop) {
  Window& w = windows_.at(loop);
  DPART_CHECK(!w.meanSeconds.empty(),
              "rebuild() without an observed window for loop '" + loop + "'");
  const std::vector<double> weights =
      estimateWeights(iter, w.meanSeconds, world.region(regionName).size());
  Partition replacement =
      region::equalWeighted(world, regionName, weights, iter.count());
  ++rebalances_;
  w.rebalanced = true;
  restartWindow(w, loop, w.pieces);
  return replacement;
}

}  // namespace dpart::runtime
