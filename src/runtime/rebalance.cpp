#include "runtime/rebalance.hpp"

#include <algorithm>
#include <limits>

#include "region/dpl_ops.hpp"
#include "support/check.hpp"

namespace dpart::runtime {

using region::Index;
using region::Partition;

namespace {

/// Window imbalance that triggers a rebalance. 1.0 is perfect balance; 1.3
/// tolerates 30% critical-path slack.
constexpr double kTriggerImbalance = 1.3;
/// A loop already rebalanced triggers again only past
/// kTriggerImbalance * (1 + kHysteresis), so two states straddling the bare
/// trigger cannot oscillate.
constexpr double kHysteresis = 0.1;
/// Launches a window holds before it is trusted, counting its first: the
/// warmup before a loop's first trigger and the cooldown under each new
/// partition alike (every rebalance restarts the window). Three launches
/// give the noise floor a spread to measure.
constexpr std::uint64_t kWindowLaunches = 3;
/// Rebalances allowed per executor, across all loops.
constexpr std::size_t kMaxRebalances = 4;

}  // namespace

void Rebalancer::Window::restart(std::size_t pieces) {
  launches = 0;
  shareSum.assign(pieces, 0.0);
  shareMin.assign(pieces, std::numeric_limits<double>::infinity());
  shareMax.assign(pieces, 0.0);
}

double Rebalancer::Window::imbalance() const {
  if (launches == 0) return 0;
  // Every launch's shares average 1, so the largest mean share is the
  // window's max / mean.
  return *std::max_element(shareSum.begin(), shareSum.end()) /
         static_cast<double>(launches);
}

double Rebalancer::Window::noise() const {
  double widest = 0;
  for (std::size_t j = 0; j < shareSum.size(); ++j) {
    widest = std::max(widest, shareMax[j] - shareMin[j]);
  }
  return widest;
}

void Rebalancer::observe(const std::string& loop,
                         const std::vector<double>& taskSeconds) {
  DPART_CHECK(!taskSeconds.empty(), "observe(): a launch without task times");
  Window& w = windows_[loop];
  const std::size_t pieces = taskSeconds.size();
  if (w.shareSum.size() != pieces) w.restart(pieces);
  double total = 0;
  for (const double t : taskSeconds) total += t;
  const double mean = total / static_cast<double>(pieces);
  for (std::size_t j = 0; j < pieces; ++j) {
    // Shares, not seconds: a launch that slows every piece alike (a busy
    // machine) moves no share. A launch that measured nothing is even.
    const double share = mean > 0 ? taskSeconds[j] / mean : 1.0;
    w.shareSum[j] += share;
    w.shareMin[j] = std::min(w.shareMin[j], share);
    w.shareMax[j] = std::max(w.shareMax[j], share);
  }
  ++w.launches;
}

bool Rebalancer::shouldRebalance(const std::string& loop) const {
  if (rebalances_ >= kMaxRebalances) return false;
  auto it = windows_.find(loop);
  if (it == windows_.end()) return false;
  const Window& w = it->second;
  if (w.launches < kWindowLaunches) return false;
  const double trigger =
      w.rebalanced ? kTriggerImbalance * (1.0 + kHysteresis)
                   : kTriggerImbalance;
  // The imbalance must pass the trigger even after the launch-to-launch
  // spread the window itself shows is taken off it: a piece whose share
  // moved that far between launches could have drawn that much by chance.
  return w.imbalance() - w.noise() >= trigger;
}

double Rebalancer::imbalance(const std::string& loop) const {
  auto it = windows_.find(loop);
  return it == windows_.end() ? 0 : it->second.imbalance();
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
  DPART_CHECK(w.launches > 0,
              "rebuild() without an observed window for loop '" + loop + "'");
  // Weights are relative, so the share sums serve as well as their means.
  const std::vector<double> weights =
      estimateWeights(iter, w.shareSum, world.region(regionName).size());
  Partition replacement =
      region::equalWeighted(world, regionName, weights, iter.count());
  ++rebalances_;
  w.rebalanced = true;
  w.restart(w.shareSum.size());
  return replacement;
}

}  // namespace dpart::runtime
