// Figure 14c: MiniAero weak scaling, Manual vs Auto. Both achieve ~98%
// parallel efficiency in the paper; the auto version is ~2% slower because
// its face subregions are non-contiguously indexed (the sequential mesh),
// while the hand-optimized mesh generator duplicates slab-boundary faces to
// keep each piece's faces contiguous.

#include "scaling_common.hpp"

#include "apps/miniaero.hpp"

int main(int argc, char** argv) {
  using namespace dpart;
  using apps::MiniAeroApp;
  auto params = [](int nodes, region::Index side) {
    MiniAeroApp::Params p;
    p.nx = side;
    p.ny = side;
    p.nzPerPiece = side;
    p.pieces = static_cast<std::size_t>(nodes);
    return p;
  };
  if (const char* file = bench::proofFile(argc, argv)) {
    return bench::emitProof<MiniAeroApp>(params(4, 6), file);
  }
  // workPerPiece: cells per node.
  auto manualMesh = [&](int nodes) {
    return std::make_unique<MiniAeroApp>(params(nodes, 24),
                                         /*duplicatedFaces=*/true);
  };
  auto sequentialMesh = [&](int nodes) {
    return std::make_unique<MiniAeroApp>(params(nodes, 24));
  };
  const auto panel = bench::runPanel<MiniAeroApp>(
      "Figure 14c: MiniAero weak scaling", "cells/s",
      {{"Manual", manualMesh, &MiniAeroApp::manualSetup},
       {"Auto", sequentialMesh, &MiniAeroApp::autoSetup}});

  const apps::ScalingPoint& manual = panel[0].points.back();
  const apps::ScalingPoint& autoS = panel[1].points.back();
  const double gap = 1.0 - autoS.throughputPerNode / manual.throughputPerNode;
  std::cout << "auto vs manual at " << autoS.nodes << " nodes: " << gap * 100
            << "% slower (paper: ~2%)\n";
  return 0;
}
