#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "parallelize/parallelize.hpp"
#include "region/partition.hpp"
#include "region/world.hpp"
#include "sim/cluster.hpp"

namespace dpart::apps {

/// A fully configured execution/simulation setup for one app variant
/// (Auto, Auto+Hint, Manual): the plan, the concrete partitions it
/// evaluated to, and the data-placement map the cluster simulator uses.
struct SimSetup {
  parallelize::ParallelPlan plan;
  std::map<std::string, region::Partition> partitions;
  std::map<std::string, std::string> owners;  ///< region -> owner partition
};

/// Evaluates a plan's DPL program against a world with the given external
/// partitions bound, returning the full partition environment.
std::map<std::string, region::Partition> evaluatePlan(
    const region::World& world, const parallelize::ParallelPlan& plan,
    std::size_t pieces,
    const std::map<std::string, region::Partition>& externals);

/// Helper for building hand-optimized baseline plans: wraps a ParallelPlan
/// under construction and assigns access partitions positionally (in the
/// order the loop's region-accessing statements appear).
class ManualPlanBuilder {
 public:
  explicit ManualPlanBuilder(const ir::Program& program);

  /// Adds a DPL definition to the manual plan.
  ManualPlanBuilder& define(const std::string& name, dpl::ExprPtr expr);

  /// Declares an externally bound partition name (constructed by the app's
  /// generator, not by DPL).
  ManualPlanBuilder& external(const std::string& name);

  /// Configures loop `loopIdx`: iteration partition plus one partition name
  /// per region-accessing statement, in statement order.
  ManualPlanBuilder& assign(std::size_t loopIdx,
                            const std::string& iterPartition,
                            const std::vector<std::string>& accessPartitions);

  /// Overrides the reduction strategy of the loop's reduce statement that
  /// targets `region` (nth occurrence = which).
  ManualPlanBuilder& reduce(std::size_t loopIdx, const std::string& region,
                            optimize::ReducePlan plan, int which = 0);

  [[nodiscard]] parallelize::ParallelPlan build();

 private:
  parallelize::ParallelPlan plan_;
  const ir::Program& program_;
};

/// One point of a weak-scaling curve.
struct ScalingPoint {
  int nodes = 0;
  double stepSeconds = 0;
  double throughputPerNode = 0;  ///< work units / s / node
};

/// A named weak-scaling series (one line of a Figure 14 plot).
struct ScalingSeries {
  std::string name;
  std::vector<ScalingPoint> points;
};

/// Renders series as the per-figure table the benchmarks print.
std::string renderScaling(const std::string& title,
                          const std::string& unitLabel,
                          const std::vector<ScalingSeries>& series);

}  // namespace dpart::apps
