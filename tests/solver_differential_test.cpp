// The solver's plans for every application program, pinned by hash, and
// infeasible vocabularies surfacing as InfeasibleError with first-conflict
// provenance.

#include <cstdint>

#include <gtest/gtest.h>

#include "apps/circuit.hpp"
#include "apps/miniaero.hpp"
#include "apps/pennant.hpp"
#include "apps/spmv.hpp"
#include "apps/stencil.hpp"
#include "parallelize/parallelize.hpp"
#include "runtime/checkpoint.hpp"

namespace dpart::parallelize {
namespace {

/// Plans `program` with default options and requires the full rendered plan
/// (DPL program, loop plans, reduce handling) to hash to `golden`
/// (CheckpointManager::hashPlan, FNV-1a-64 of ParallelPlan::toString), so
/// any change in what the solver synthesizes shows. With no vocabulary, no
/// rule runs and nothing is pruned.
void expectPinnedPlan(const region::World& world, const ir::Program& program,
                      std::uint64_t golden, const char* what) {
  const ParallelPlan plan = AutoParallelizer(world).plan(program);
  EXPECT_EQ(runtime::CheckpointManager::hashPlan(plan), golden)
      << what << "\n" << plan.toString();
  EXPECT_EQ(plan.stats.solve.prunes, 0u) << what;
  EXPECT_EQ(plan.stats.solve.propagations, 0u) << what;
}

TEST(SolverDifferential, Spmv) {
  apps::SpmvApp::Params p;
  p.rowsPerPiece = 32;
  p.pieces = 4;
  apps::SpmvApp app(p);
  expectPinnedPlan(app.world(), app.program(), 0x084c14d873b178f0ULL,
                   "spmv");
}

TEST(SolverDifferential, Stencil) {
  apps::StencilApp::Params p;
  p.rowsPerPiece = 8;
  p.cols = 16;
  p.pieces = 4;
  apps::StencilApp app(p);
  expectPinnedPlan(app.world(), app.program(), 0xac13704b8ea45a10ULL,
                   "stencil");
}

TEST(SolverDifferential, MiniAero) {
  apps::MiniAeroApp::Params p;
  p.nx = 4;
  p.ny = 4;
  p.nzPerPiece = 4;
  p.pieces = 2;
  apps::MiniAeroApp app(p);
  expectPinnedPlan(app.world(), app.program(), 0xe3d59d66d501f07bULL,
                   "miniaero");
}

TEST(SolverDifferential, Circuit) {
  apps::CircuitApp::Params p;
  p.pieces = 4;
  p.nodesPerCluster = 32;
  p.wiresPerCluster = 128;
  apps::CircuitApp app(p);
  expectPinnedPlan(app.world(), app.program(), 0x4922fa57bba6523bULL,
                   "circuit");
}

TEST(SolverDifferential, Pennant) {
  apps::PennantApp::Params p;
  p.zx = 4;
  p.zyPerPiece = 4;
  p.pieces = 2;
  apps::PennantApp app(p);
  expectPinnedPlan(app.world(), app.program(), 0x701b58d1a39de0c7ULL,
                   "pennant");
}

// ---- Infeasible vocabularies --------------------------------------------

TEST(SolverDifferential, CapacityPigeonholeThrowsInfeasible) {
  apps::SpmvApp::Params p;
  p.rowsPerPiece = 32;
  p.pieces = 4;
  apps::SpmvApp app(p);
  Options opts;
  opts.pieces = p.pieces;
  // 128 rows over 4 pieces force a 32-row piece; a 1-row budget is a
  // pigeonhole contradiction the capacity rule refutes at the root.
  opts.vocab.capacities.push_back({"Y", 1});
  try {
    (void)AutoParallelizer(app.world(), opts).plan(app.program());
    FAIL() << "expected InfeasibleError";
  } catch (const constraint::InfeasibleError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("capacity-comp"), std::string::npos) << what;
    EXPECT_NE(what.find("cap=1"), std::string::npos) << what;
    EXPECT_EQ(e.errorCode(), ErrorCode::Infeasible);
  }
}

TEST(SolverDifferential, SelfAntiAffinityThrowsInfeasible) {
  apps::SpmvApp::Params p;
  p.rowsPerPiece = 32;
  p.pieces = 4;
  apps::SpmvApp app(p);
  Options opts;
  // Y.val's access partition must cover all rows; demanding it be disjoint
  // from itself is unsatisfiable, with the originating field in the trace.
  opts.vocab.affinities.push_back({"Y.val", "Y.val", /*together=*/false});
  try {
    (void)AutoParallelizer(app.world(), opts).plan(app.program());
    FAIL() << "expected InfeasibleError";
  } catch (const constraint::InfeasibleError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("anti-self"), std::string::npos) << what;
    EXPECT_NE(what.find("Y.val"), std::string::npos) << what;
  }
}

TEST(SolverDifferential, FeasibleVocabularyStillMatchesReferencePlan) {
  // A satisfiable vocabulary that never prunes the chosen candidates must
  // leave the synthesized plan identical to the unconstrained one.
  apps::SpmvApp::Params p;
  p.rowsPerPiece = 32;
  p.pieces = 4;
  apps::SpmvApp app(p);

  ParallelPlan b = AutoParallelizer(app.world()).plan(app.program());

  Options opts;
  opts.pieces = p.pieces;
  opts.vocab.capacities.push_back({"Y", 32});  // exactly ceil(128/4)
  ParallelPlan a = AutoParallelizer(app.world(), opts).plan(app.program());
  EXPECT_EQ(a.dpl.toString(), b.dpl.toString());
}

}  // namespace
}  // namespace dpart::parallelize
