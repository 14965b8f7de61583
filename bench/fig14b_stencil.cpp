// Figure 14b: Stencil weak scaling, Manual vs Auto. The paper reports 98%
// vs 93% parallel efficiency at 256 nodes with the auto version ~3% slower
// on average, caused by the manual halo consolidation (one transfer per
// direction instead of two).

#include "scaling_common.hpp"

#include "apps/stencil.hpp"

int main(int argc, char** argv) {
  using namespace dpart;
  using apps::StencilApp;
  auto params = [](int nodes, region::Index side) {
    StencilApp::Params p;
    p.rowsPerPiece = side;
    p.cols = side;
    p.pieces = static_cast<std::size_t>(nodes);
    return p;
  };
  if (const char* file = bench::proofFile(argc, argv)) {
    return bench::emitProof<StencilApp>(params(4, 32), file);
  }
  // workPerPiece: grid points per node.
  auto make = [&](int nodes) {
    return std::make_unique<StencilApp>(params(nodes, 128));
  };
  const auto panel = bench::runPanel<StencilApp>(
      "Figure 14b: Stencil weak scaling", "points/s",
      {{"Manual", make, &StencilApp::manualSetup},
       {"Auto", make, &StencilApp::autoSetup}});

  const apps::ScalingPoint& manual = panel[0].points.back();
  const apps::ScalingPoint& autoS = panel[1].points.back();
  const double gap = 1.0 - autoS.throughputPerNode / manual.throughputPerNode;
  std::cout << "auto vs manual at " << autoS.nodes << " nodes: " << gap * 100
            << "% slower (paper: ~3%)\n";
  return 0;
}
