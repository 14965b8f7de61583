#pragma once

#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "apps/app_common.hpp"
#include "runtime/session.hpp"
#include "sim/cluster.hpp"

namespace dpart::bench {

/// The file a Figure 14 bench was asked to write with `--proof <out.dprf>`,
/// or nullptr when argv asks for something else.
inline const char* proofFile(int argc, char** argv) {
  return argc == 3 && std::strcmp(argv[1], "--proof") == 0 ? argv[2] : nullptr;
}

/// `--proof` handler shared by the Figure 14 benches: compile the app's
/// program once at a small scale with proof-certificate emission
/// (docs/solver.md). CI replays each certificate through tools/proof_check
/// and archives it as a build artifact.
template <typename App>
int emitProof(const typename App::Params& params, const char* file) {
  App app(params);
  Plan plan = Session::parallelize(app.program())
                  .pieces(params.pieces)
                  .proof(file)
                  .compile(app.world());
  std::cout << "proof certificate written to " << file
            << " (events=" << plan.stats().proofEvents
            << ", bytes=" << plan.stats().proofBytes << ")\n";
  return plan.stats().proofEvents > 0 ? 0 : 1;
}

/// What a variant's step time includes on top of the fault-free model.
enum class FailureMode {
  None,        ///< fault-free step time
  Replay,      ///< task snapshot + expected in-place replay
  Checkpoint,  ///< Young/Daly-interval checkpointing + expected restarts
};

/// One series of a weak-scaling panel.
template <typename App>
struct Variant {
  std::string name;
  /// Builds the app at a node count (weak scaling: per-node size fixed).
  std::function<std::unique_ptr<App>(int nodes)> make;
  /// The setup to simulate: the auto-parallelized plan, the hand-written
  /// baseline, or a hinted plan.
  apps::SimSetup (App::*setup)();
  sim::MachineConfig cfg{};
  FailureMode mode = FailureMode::None;
};

/// Simulates every variant at 1, 2, 4, ..., 256 nodes (the paper's x-axis)
/// and prints the panel's table of work/s/node. Each point's app is built,
/// simulated and freed before the next one, so memory peaks at the largest
/// app instead of growing with the point count.
template <typename App>
std::vector<apps::ScalingSeries> runPanel(
    const std::string& title, const std::string& unit,
    const std::vector<Variant<App>>& variants) {
  std::vector<apps::ScalingSeries> panel;
  for (const Variant<App>& v : variants) {
    apps::ScalingSeries& series = panel.emplace_back();
    series.name = v.name;
    for (int n = 1; n <= 256; n *= 2) {
      const std::unique_ptr<App> app = v.make(n);
      const apps::SimSetup setup = std::invoke(v.setup, *app);
      sim::ClusterSim sim(app->world(), v.cfg);
      for (const auto& [r, o] : setup.owners) sim.setOwner(r, o);
      const sim::StepSimResult step =
          sim.simulateStepResilient(setup.plan, setup.partitions);
      double sec = step.seconds;
      if (v.mode == FailureMode::Replay) sec = step.resilientSeconds;
      if (v.mode == FailureMode::Checkpoint) {
        // Checkpoint/restart replaces in-place replay (a restore rolls the
        // whole machine back past any per-task recovery), so the waste
        // fraction applies to the plain step time.
        sec = sim.checkpointCost(n, step.seconds).checkpointedSeconds;
      }
      series.points.push_back(
          apps::ScalingPoint{n, sec, app->workPerPiece() / sec});
    }
  }
  std::cout << apps::renderScaling(title, unit, panel) << std::endl;
  return panel;
}

}  // namespace dpart::bench
