// Adaptive repartitioning demo: a power-law SpMV whose auto-parallelized
// `equal` partition puts ~80% of the non-zeros in piece 0, run twice —
// once as solved, once with Session::adaptive(), where the executor hands
// each launch's per-piece task times to the Rebalancer, which swaps in a
// weighted partition once the skew stands out of the launches' own noise
// (DESIGN.md §11). Adaptive mode takes no settings. Prints the per-launch
// imbalance trajectory of both runs (read from the exported
// executor.task.* metrics) and cross-checks the adaptive result against the
// serial reference.
//
// Build & run:  ./build/examples/adaptive_spmv

#include <cmath>
#include <cstdio>
#include <iostream>

#include "apps/spmv.hpp"
#include "ir/interp.hpp"
#include "runtime/executor.hpp"
#include "runtime/session.hpp"

using namespace dpart;

namespace {

apps::SpmvApp::Params skewedParams() {
  apps::SpmvApp::Params p;
  p.rowsPerPiece = 8192;
  p.nnzPerRow = 8;
  p.pieces = 8;
  p.skew = 1.0;  // row r holds ~C/(r+1) non-zeros: a heavy prefix
  return p;
}

// Runs `launches` timesteps and reports each launch's imbalance
// (max piece CPU time / mean) read from the session's metrics registry.
void runSeries(const char* label, Session& session, const std::string& loop,
               std::size_t pieces, int launches) {
  std::printf("%-9s", label);
  std::vector<double> before(pieces, 0.0);
  for (int l = 0; l < launches; ++l) {
    session.run();
    double total = 0;
    double worst = 0;
    for (std::size_t j = 0; j < pieces; ++j) {
      const double now =
          runtime::taskSecondsGauge(session.metrics(), loop, j).value();
      const double delta = now - before[j];
      before[j] = now;
      total += delta;
      worst = std::max(worst, delta);
    }
    const double mean = total / static_cast<double>(pieces);
    std::printf("  %.2f", mean > 0 ? worst / mean : 1.0);
  }
  std::printf("   (%zu rebalance%s)\n", session.rebalances(),
              session.rebalances() == 1 ? "" : "s");
}

}  // namespace

int main() {
  const apps::SpmvApp::Params params = skewedParams();
  constexpr int kLaunches = 8;

  std::cout << "Power-law SpMV, " << params.pieces
            << " pieces, skew=" << params.skew
            << " — per-launch imbalance (max/mean piece time):\n";

  apps::SpmvApp solved(params);
  Session plain = Session::parallelize(solved.program())
                      .pieces(params.pieces)
                      .build(solved.world());
  runSeries("solved", plain, "spmv", params.pieces, kLaunches);

  apps::SpmvApp rebalanced(params);
  runtime::ExecOptions opts;
  opts.verifyPartitions = true;  // re-verify legality after every swap
  Session adaptive = Session::parallelize(rebalanced.program())
                         .pieces(params.pieces)
                         .options(opts)
                         .adaptive()
                         .build(rebalanced.world());
  runSeries("adaptive", adaptive, "spmv", params.pieces, kLaunches);

  // The rebalance moves work between tasks but never changes results.
  apps::SpmvApp reference(params);
  for (int l = 0; l < kLaunches; ++l) {
    ir::runSerial(reference.world(), reference.program());
  }
  auto want = reference.world().region("Y").f64("val");
  auto got = rebalanced.world().region("Y").f64("val");
  double maxErr = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    maxErr = std::max(maxErr, std::abs(want[i] - got[i]));
  }
  std::cout << "adaptive vs serial max |error| on Y.val: " << maxErr
            << (maxErr == 0 ? "  (OK)" : "  (MISMATCH!)") << '\n';
  return maxErr == 0 && adaptive.rebalances() > 0 ? 0 : 1;
}
