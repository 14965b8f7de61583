// Table 1: compilation-time breakdown of the auto-parallelizer on the five
// benchmark programs — constraint inference, unification, constraint
// solving, and the parallel-code rewrite — plus the number of
// auto-parallelized loops. The paper's "binary generation" row has no analog
// here (we emit execution plans, not CUDA binaries); the key claim this
// table reproduces is that inference + solving + rewriting stay small in
// absolute terms (milliseconds) and grow with program size.
//
// Each app is built once and compiled kCompiles times; every column is the
// median over those compiles, and app construction is never timed (the same
// sizes and split as perfbench's `compile` workload).
//
// Paper reference (Piz Daint, Regent compiler):
//            SpMV   Stencil  Circuit  MiniAero  PENNANT
//   infer    1.7ms  5.0ms    28.4ms   58.5ms    110.7ms
//   solver   1.7ms  4.0ms    4.3ms    5.8ms     13.1ms
//   rewrite  49ms   0.3s     0.3s     1.6s      1.9s
//   loops    1      2        3        26        37

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <vector>

#include "apps/circuit.hpp"
#include "apps/miniaero.hpp"
#include "apps/pennant.hpp"
#include "apps/spmv.hpp"
#include "apps/stencil.hpp"
#include "parallelize/parallelize.hpp"
#include "support/timer.hpp"

namespace {

using namespace dpart;

constexpr int kCompiles = 21;  // odd: each median is one measured compile

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

struct Row {
  const char* name;
  double inferMs, unifyMs, solveMs, rewriteMs, planMs;
  int loops;
};

template <typename App>
Row measure(const char* name, const typename App::Params& params) {
  App app(params);
  std::vector<double> infer, unify, solve, rewrite, plan;
  int loops = 0;
  for (int i = 0; i < kCompiles; ++i) {
    Timer timer;
    parallelize::AutoParallelizer ap(app.world());
    const parallelize::ParallelPlan p = ap.plan(app.program());
    plan.push_back(timer.millis());
    infer.push_back(p.stats.inferMs);
    unify.push_back(p.stats.unifyMs);
    solve.push_back(p.stats.solveMs);
    rewrite.push_back(p.stats.rewriteMs);
    loops = p.stats.parallelLoops;
  }
  return Row{name, median(infer), median(unify), median(solve),
             median(rewrite), median(plan), loops};
}

}  // namespace

int main() {
  apps::SpmvApp::Params spmv;
  spmv.rowsPerPiece = 1024;
  apps::MiniAeroApp::Params miniaero;
  miniaero.nx = 8;
  miniaero.ny = 8;
  miniaero.nzPerPiece = 8;
  const Row rows[] = {
      measure<apps::SpmvApp>("SpMV", spmv),
      measure<apps::StencilApp>("Stencil", {}),
      measure<apps::CircuitApp>("Circuit", {}),
      measure<apps::MiniAeroApp>("MiniAero", miniaero),
      measure<apps::PennantApp>("PENNANT", {}),
  };

  std::cout << "== Table 1: compilation time breakdown (this repro) ==\n"
            << "median ms of " << kCompiles
            << " compiles per app, app construction excluded; 4 pieces\n"
            << std::left << std::setw(10) << "app" << std::right;
  for (const char* col : {"infer", "unify", "solve", "rewrite", "plan"}) {
    std::cout << std::setw(10) << col;
  }
  std::cout << std::setw(8) << "loops" << '\n' << std::fixed
            << std::setprecision(3);
  for (const Row& r : rows) {
    std::cout << std::left << std::setw(10) << r.name << std::right;
    for (double ms : {r.inferMs, r.unifyMs, r.solveMs, r.rewriteMs, r.planMs}) {
      std::cout << std::setw(10) << ms;
    }
    std::cout << std::setw(8) << r.loops << '\n';
  }
  return 0;
}
