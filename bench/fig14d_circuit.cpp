// Figure 14d: Circuit weak scaling — Manual vs Auto+Hint vs Auto. Without
// the user constraint, equal(rn) puts every shared node in one subregion
// and the auto version collapses past 8 nodes. With the constraint the
// auto-parallelized code stays within 5% of Manual and beats it up to ~64
// nodes thanks to tight private sub-partitions (Manual buffers the whole
// reachable shared block).

#include "scaling_common.hpp"

#include "apps/circuit.hpp"

int main(int argc, char** argv) {
  using namespace dpart;
  using apps::CircuitApp;
  auto params = [](int nodes, region::Index nodesPerCluster) {
    CircuitApp::Params p;
    p.pieces = static_cast<std::size_t>(nodes);
    p.nodesPerCluster = nodesPerCluster;
    p.wiresPerCluster = 4 * nodesPerCluster;
    return p;
  };
  if (const char* file = bench::proofFile(argc, argv)) {
    return bench::emitProof<CircuitApp>(params(4, 64), file);
  }
  // workPerPiece: wires per node.
  auto make = [&](int nodes) {
    return std::make_unique<CircuitApp>(params(nodes, 2048));
  };
  const auto panel = bench::runPanel<CircuitApp>(
      "Figure 14d: Circuit weak scaling", "wires/s",
      {{"Manual", make, &CircuitApp::manualSetup},
       {"Auto+Hint", make, &CircuitApp::hintSetup},
       {"Auto", make, &CircuitApp::autoSetup}});

  const std::vector<apps::ScalingPoint>& autoS = panel[2].points;
  std::cout << "Auto collapse factor at " << autoS.back().nodes << " nodes: "
            << autoS.front().throughputPerNode / autoS.back().throughputPerNode
            << "x below its 1-node throughput\n";
  return 0;
}
