// Figure 14e: PENNANT weak scaling — Manual vs Auto+Hint2 vs Auto+Hint1 vs
// Auto. Auto keeps up only to ~4 nodes (shared-points-first layout under
// equal(rp)); Hint1 fixes placement but its deeply derived partitions incur
// runtime handling costs past ~32-64 nodes; Hint2 additionally reuses the
// generator's side/zone partitions and private-point partition and matches
// Manual.

#include "scaling_common.hpp"

#include "apps/pennant.hpp"

int main(int argc, char** argv) {
  using namespace dpart;
  using apps::PennantApp;
  auto params = [](int nodes, region::Index side) {
    PennantApp::Params p;
    p.zx = side;
    p.zyPerPiece = side;
    p.pieces = static_cast<std::size_t>(nodes);
    return p;
  };
  if (const char* file = bench::proofFile(argc, argv)) {
    return bench::emitProof<PennantApp>(params(4, 8), file);
  }
  // workPerPiece: zones per node.
  auto make = [&](int nodes) {
    return std::make_unique<PennantApp>(params(nodes, 48));
  };
  bench::runPanel<PennantApp>("Figure 14e: PENNANT weak scaling", "zones/s",
                              {{"Manual", make, &PennantApp::manualSetup},
                               {"Auto+Hint2", make, &PennantApp::hint2Setup},
                               {"Auto+Hint1", make, &PennantApp::hint1Setup},
                               {"Auto", make, &PennantApp::autoSetup}});
  return 0;
}
