// Proof-certificate emission: successful and infeasible compiles write DPRF
// certificates (consumed by tools/proof_check), the compile stats surface
// their size, and proof-emitting compiles bypass the solve cache. Pinned
// certificate hashes hold the search trails themselves, and a vocabulary
// compile's trail shows how many times the rules ran.

#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/circuit.hpp"
#include "apps/miniaero.hpp"
#include "apps/pennant.hpp"
#include "apps/spmv.hpp"
#include "apps/stencil.hpp"
#include "parallelize/solve_cache.hpp"
#include "runtime/session.hpp"
#include "support/hash.hpp"

namespace dpart {
namespace {

std::vector<std::string> readLines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

bool hasLineStarting(const std::vector<std::string>& lines,
                     const std::string& prefix) {
  for (const std::string& l : lines) {
    if (l.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

std::size_t countLinesStarting(const std::vector<std::string>& lines,
                               const std::string& prefix) {
  std::size_t n = 0;
  for (const std::string& l : lines) {
    if (l.rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

apps::SpmvApp::Params smallParams() {
  apps::SpmvApp::Params p;
  p.rowsPerPiece = 16;
  p.pieces = 4;
  return p;
}

TEST(ProofEmission, SuccessfulCompileWritesCheckableCertificate) {
  apps::SpmvApp app(smallParams());
  const std::string path = ::testing::TempDir() + "proof_ok.dprf";
  Plan plan = Session::parallelize(app.program())
                  .pieces(4)
                  .proof(path)
                  .compile(app.world());
  EXPECT_GT(plan.stats().proofEvents, 0u);
  EXPECT_GT(plan.stats().proofBytes, 0u);

  const std::vector<std::string> lines = readLines(path);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.front(), "cert DPRF 1");
  // The trailer declares the certificate's own length: `end N`.
  std::istringstream tail(lines.back());
  std::string word;
  std::size_t declared = 0;
  tail >> word >> declared;
  EXPECT_EQ(word, "end");
  EXPECT_EQ(declared, lines.size());
  EXPECT_TRUE(hasLineStarting(lines, "begin search"));
  EXPECT_TRUE(hasLineStarting(lines, "solution"));
  EXPECT_TRUE(hasLineStarting(lines, "assign "));
  EXPECT_TRUE(hasLineStarting(lines, "expect "));
  EXPECT_FALSE(hasLineStarting(lines, "infeasible"));
}

TEST(ProofEmission, InfeasibleCompileWritesCertificateBeforeThrowing) {
  apps::SpmvApp app(smallParams());
  const std::string path = ::testing::TempDir() + "proof_infeasible.dprf";
  bool threw = false;
  try {
    (void)Session::parallelize(app.program())
        .pieces(4)
        .capacity("Y", 1)  // pigeonhole: ceil(64/4) = 16 > 1
        .proof(path)
        .compile(app.world());
  } catch (const constraint::InfeasibleError& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find("capacity"), std::string::npos);
  }
  ASSERT_TRUE(threw);

  const std::vector<std::string> lines = readLines(path);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.front(), "cert DPRF 1");
  EXPECT_TRUE(hasLineStarting(lines, "vocab capacity "));
  EXPECT_TRUE(hasLineStarting(lines, "infeasible "));
  EXPECT_FALSE(hasLineStarting(lines, "solution"));
}

TEST(ProofEmission, VocabularyCertificateEchoesAllConstraintKinds) {
  apps::SpmvApp app(smallParams());
  const std::string path = ::testing::TempDir() + "proof_vocab.dprf";
  Plan plan = Session::parallelize(app.program())
                  .pieces(4)
                  .capacity("Y", 16)
                  .replication("Y", 0.0, 4.0)
                  .proof(path)
                  .compile(app.world());
  EXPECT_GT(plan.stats().proofEvents, 0u);
  const std::vector<std::string> lines = readLines(path);
  EXPECT_TRUE(hasLineStarting(lines, "vocab capacity "));
  EXPECT_TRUE(hasLineStarting(lines, "vocab replicate "));
  EXPECT_TRUE(hasLineStarting(lines, "solution"));
}

TEST(ProofEmission, ProofCompilesBypassTheSolveCache) {
  apps::SpmvApp app(smallParams());
  parallelize::SolveCache cache;

  parallelize::Options warm;
  warm.solveCache = &cache;
  parallelize::ParallelPlan first =
      parallelize::AutoParallelizer(app.world(), warm).plan(app.program());
  EXPECT_FALSE(first.stats.cacheHit);

  // Same program again: served from the cache...
  parallelize::ParallelPlan again =
      parallelize::AutoParallelizer(app.world(), warm).plan(app.program());
  EXPECT_TRUE(again.stats.cacheHit);

  // ...but a proof-emitting compile must rerun the real solve (a cached
  // solution has no search trail to certify).
  parallelize::Options proving = warm;
  proving.proofFile = ::testing::TempDir() + "proof_nocache.dprf";
  parallelize::ParallelPlan proved =
      parallelize::AutoParallelizer(app.world(), proving).plan(app.program());
  EXPECT_FALSE(proved.stats.cacheHit);
  EXPECT_GT(proved.stats.proofEvents, 0u);
  EXPECT_EQ(proved.dpl.toString(), first.dpl.toString());
}

// An uncentered reduction through a range-valued fn: no preimage of a
// disjoint target partition exists for it (Rule 1 takes point fns only), so
// the Section 5.1 attempt to demand a disjoint target fails, the plain
// system is solved next, and the reduction is buffered.
ir::Program rangeScatter(region::World& world) {
  auto& rows = world.addRegion("Rows", 8);
  world.addRegion("Cols", 17).addField("acc", region::FieldType::F64);
  rows.addField("span", region::FieldType::Range);
  rows.addField("val", region::FieldType::F64);
  world.defineRangeFn("Rows", "span", "Cols");
  auto span = rows.range("span");
  for (region::Index r = 0; r < 8; ++r) {
    // Overlapping spans of three columns.
    span[static_cast<std::size_t>(r)] = region::Run{2 * r, 2 * r + 3};
  }
  ir::Program prog;
  ir::LoopBuilder b("scatter", "i", "Rows");
  b.loadF64("x", "Rows", "val", "i");
  b.loadRange("rg", "Rows", "span", "i");
  b.beginInner("k", "rg");
  b.reduce("Cols", "acc", "k", "x");
  b.endInner();
  prog.loops.push_back(b.build());
  return prog;
}

parallelize::Options fallbackOptions(std::string proofFile) {
  parallelize::Options opts;
  opts.enableRelaxation = false;
  opts.pieces = 4;
  opts.proofFile = std::move(proofFile);
  return opts;
}

// Each solve starts the certificate afresh, so a compile whose
// disjoint-reduction attempt fails holds one model and one trail — the
// plain system's — and none of the failed attempt.
TEST(ProofEmission, FallbackSolveWritesOnlyTheDecidingTrail) {
  region::World world;
  const ir::Program prog = rangeScatter(world);
  const parallelize::Options opts =
      fallbackOptions(::testing::TempDir() + "proof_fallback.dprf");
  const parallelize::ParallelPlan plan =
      parallelize::AutoParallelizer(world, opts).plan(prog);
  ASSERT_EQ(plan.loops.size(), 1u);
  for (const auto& [stmt, rp] : plan.loops[0].reduces) {
    EXPECT_NE(rp.strategy, optimize::ReduceStrategy::Direct)
        << "the disjoint-reduction attempt was expected to fail";
  }

  const std::vector<std::string> lines = readLines(opts.proofFile);
  EXPECT_EQ(countLinesStarting(lines, "cert DPRF 1"), 1u);
  EXPECT_EQ(countLinesStarting(lines, "begin search"), 1u);
  EXPECT_EQ(countLinesStarting(lines, "solution"), 1u);
  EXPECT_EQ(countLinesStarting(lines, "infeasible"), 0u);
}

// The search counters, unlike the certificate, cover every solve of the
// compile: the failed attempt's branches and backtracks add to the plain
// solve's. Without the attempt (enableDisjointReduction off) the compile
// solves only the plain system, with the same search.
TEST(ProofEmission, FallbackCountersCoverTheFailedAttempt) {
  region::World world;
  const ir::Program prog = rangeScatter(world);
  const constraint::SolveStats both =
      parallelize::AutoParallelizer(world, fallbackOptions(""))
          .plan(prog)
          .stats.solve;
  parallelize::Options plainOnly = fallbackOptions("");
  plainOnly.enableDisjointReduction = false;
  const constraint::SolveStats plain =
      parallelize::AutoParallelizer(world, plainOnly).plan(prog).stats.solve;

  EXPECT_EQ(plain.branches, 2u);
  EXPECT_EQ(plain.backtracks, 0u);
  // The attempt: 5 branches, all 5 backtracked.
  EXPECT_EQ(both.branches, plain.branches + 5u);
  EXPECT_EQ(both.backtracks, plain.backtracks + 5u);
}

// FNV-1a-64 of a file's bytes.
std::uint64_t fileHash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  return fnv1a64(bytes);
}

// FNV-1a-64 of the certificate a 4-piece compile of `program` writes.
std::uint64_t certificateHash(const region::World& world,
                              const ir::Program& program,
                              const std::string& name) {
  parallelize::Options opts;
  opts.pieces = 4;
  opts.proofFile = ::testing::TempDir() + "trail_" + name + ".dprf";
  (void)parallelize::AutoParallelizer(world, opts).plan(program);
  return fileHash(opts.proofFile);
}

// A certificate logs every node, candidate, dedup, branch and leaf of the
// decisive solve, so pinning its bytes pins the search trail itself, not
// only the plan it ends in (the golden plan hashes pin that). The apps run
// at the SolveCacheFig14 sizes.
TEST(ProofEmission, SearchTrailsOfTheFiveAppsArePinned) {
  apps::SpmvApp spmv({.rowsPerPiece = 64, .nnzPerRow = 3, .pieces = 4});
  EXPECT_EQ(certificateHash(spmv.world(), spmv.program(), "spmv"),
            0xae021533763d8ee3ULL);
  apps::StencilApp stencil({.rowsPerPiece = 8, .cols = 8, .pieces = 4});
  EXPECT_EQ(certificateHash(stencil.world(), stencil.program(), "stencil"),
            0x8bc55cd9e8e23260ULL);
  apps::MiniAeroApp miniaero({.nx = 4, .ny = 4, .nzPerPiece = 4,
                              .pieces = 4});
  EXPECT_EQ(certificateHash(miniaero.world(), miniaero.program(), "miniaero"),
            0x12c17a273fd5e730ULL);
  apps::CircuitApp circuit({.pieces = 4, .nodesPerCluster = 32,
                            .wiresPerCluster = 64});
  EXPECT_EQ(certificateHash(circuit.world(), circuit.program(), "circuit"),
            0x81c7e232fea3cc50ULL);
  apps::PennantApp pennant({.zx = 4, .zyPerPiece = 4, .pieces = 4});
  EXPECT_EQ(certificateHash(pennant.world(), pennant.program(), "pennant"),
            0xee66eb0195909d65ULL);
}

// ---- The vocabulary path ---------------------------------------------------

// The world, program and feasible vocabulary of examples/constraints_demo:
// particles reading their cell's velocity, cells updating their own.
void buildDemoWorld(region::World& world) {
  constexpr region::Index kParticles = 60;
  constexpr region::Index kCells = 20;
  auto& particles = world.addRegion("Particles", kParticles);
  auto& cells = world.addRegion("Cells", kCells);
  particles.addField("cell", region::FieldType::Idx);
  particles.addField("pos", region::FieldType::F64);
  cells.addField("vel", region::FieldType::F64);
  cells.addField("acc", region::FieldType::F64);
  auto cell = particles.idx("cell");
  for (region::Index p = 0; p < kParticles; ++p) {
    cell[static_cast<std::size_t>(p)] = p % kCells;
  }
  auto vel = cells.f64("vel");
  auto acc = cells.f64("acc");
  for (region::Index c = 0; c < kCells; ++c) {
    vel[static_cast<std::size_t>(c)] = 0.01 * double(c);
    acc[static_cast<std::size_t>(c)] = 0.001 * double(c % 7);
  }
  world.defineFieldFn("Particles", "cell", "Cells");
}

ir::Program demoProgram() {
  ir::Program prog;
  prog.name = "constraints_demo";
  {
    ir::LoopBuilder b("update_particles", "p", "Particles");
    b.loadIdx("c", "Particles", "cell", "p");
    b.loadF64("v1", "Cells", "vel", "c");
    b.compute("dp", {"v1"}, [](auto v) { return 0.5 * v[0]; });
    b.reduce("Particles", "pos", "p", "dp");
    prog.loops.push_back(b.build());
  }
  {
    ir::LoopBuilder b("update_cells", "c", "Cells");
    b.loadF64("a1", "Cells", "acc", "c");
    b.compute("dv", {"a1"}, [](auto v) { return v[0]; });
    b.reduce("Cells", "vel", "c", "dv");
    prog.loops.push_back(b.build());
  }
  return prog;
}

Plan compileDemo(region::World& world, const std::string& proofPath) {
  const ir::Program prog = demoProgram();
  return Session::parallelize(prog)
      .pieces(4)
      .capacity("Particles", 15)  // = ceil(60/4)
      .capacity("Cells", 20)
      .replication("Cells", 0.0, 8.0)
      .colocate("Cells.vel", "Cells.acc")
      .proof(proofPath)
      .compile(world);
}

// The vocabulary rules' prune and refutation lines are part of the trail,
// and tools/proof_check does not re-derive the prunes of a solution
// certificate (it checks the solution itself), so these pins are what
// catches a changed prune line.
TEST(ProofEmission, VocabularySearchTrailsArePinned) {
  region::World world;
  buildDemoWorld(world);
  const std::string feasible = ::testing::TempDir() + "trail_demo.dprf";
  Plan plan = compileDemo(world, feasible);
  EXPECT_EQ(plan.stats().solve.prunes, 4u);
  EXPECT_EQ(plan.stats().solve.branches, 11u);
  EXPECT_TRUE(hasLineStarting(readLines(feasible), "prune "));
  EXPECT_EQ(fileHash(feasible), 0xb5d1d21f81e83229ULL);

  // The capacity-infeasible certificate of
  // InfeasibleCompileWritesCertificateBeforeThrowing.
  apps::SpmvApp app(smallParams());
  const std::string infeasible =
      ::testing::TempDir() + "trail_infeasible.dprf";
  EXPECT_THROW((void)Session::parallelize(app.program())
                   .pieces(4)
                   .capacity("Y", 1)
                   .proof(infeasible)
                   .compile(app.world()),
               constraint::InfeasibleError);
  EXPECT_TRUE(hasLineStarting(readLines(infeasible), "refute "));
  EXPECT_EQ(fileHash(infeasible), 0x7334f62b603ae523ULL);
}

// One pass per node: in a compile that refutes nothing, every vocabulary
// rule runs exactly once at each search node with open symbols. A leaf has
// none and only checks its conjuncts, so the certificate's `node` lines
// minus its `leaf` lines count the nodes that propagate.
TEST(PropagationCount, OneRunPerRulePerSearchNode) {
  region::World world;
  buildDemoWorld(world);
  const std::string path = ::testing::TempDir() + "count_demo.dprf";
  Plan plan = compileDemo(world, path);
  const std::vector<std::string> lines = readLines(path);
  ASSERT_FALSE(hasLineStarting(lines, "refute "));
  const std::size_t nodes = countLinesStarting(lines, "node ");
  const std::size_t leaves = countLinesStarting(lines, "leaf ");
  const constraint::SolveStats& stats = plan.stats().solve;
  EXPECT_EQ(nodes, stats.branches + 1);
  const constraint::SolverVocabulary& v = plan.parallelPlan().solverVocab;
  const std::size_t rules = v.capacity.size() + v.replication.size() +
                            v.colocated.size() + v.antiAffine.size();
  EXPECT_EQ(rules, 6u);
  EXPECT_EQ(stats.propagations, rules * (nodes - leaves));
}

}  // namespace
}  // namespace dpart
