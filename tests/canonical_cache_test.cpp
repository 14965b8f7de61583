// The canonical plan-cache key (constraint/canonical + parallelize/solve_cache):
//
//  - isomorphic programs — renamed regions / fields / fns / partitions,
//    reordered statements and loops — produce the same canonical hash and
//    rendering, and the second compile is served from the cache;
//  - structurally distinct programs produce different keys;
//  - a cache-served plan is bitwise-identical to a fresh solve, on a
//    hand-built program and on all five Fig. 14 apps, and both match the
//    plan hash and cache key recorded before the compile pipeline was
//    split into stages (golden values).

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "apps/circuit.hpp"
#include "apps/miniaero.hpp"
#include "apps/pennant.hpp"
#include "apps/spmv.hpp"
#include "apps/stencil.hpp"
#include "constraint/canonical.hpp"
#include "parallelize/parallelize.hpp"
#include "parallelize/solve_cache.hpp"
#include "runtime/checkpoint.hpp"

namespace dpart {
namespace {

using constraint::CanonicalForm;
using constraint::CanonicalLoop;
using constraint::NameMaps;
using constraint::System;
using parallelize::AutoParallelizer;
using parallelize::ParallelPlan;
using parallelize::SolveCache;

// Everything observable about a compiled plan except timings: the loop
// plans, the DPL program, the resolved system and the external symbols.
std::string fingerprint(const ParallelPlan& plan) {
  std::ostringstream os;
  os << plan.toString();
  os << "=== dpl ===\n" << plan.dpl.toString();
  os << "=== system ===\n" << plan.system.toString();
  os << "=== externals ===\n";
  for (const std::string& s : plan.externalSymbols) os << s << '\n';
  return os.str();
}

// ---------------------------------------------------------------------------
// canonicalize() unit behavior
// ---------------------------------------------------------------------------

TEST(Canonicalize, RenamedSystemsShareHashAndRendering) {
  System a;
  a.declareSymbol("P1", "Particles");
  a.declareSymbol("P2", "Cells");
  a.addDisj(dpl::symbol("P1"));
  a.addComp(dpl::symbol("P1"), "Particles");
  a.addSubset(dpl::image(dpl::symbol("P1"), "cell", "Cells"),
              dpl::symbol("P2"));

  System b;  // same shape, every name different, conjuncts reordered
  b.declareSymbol("Qc", "Boxes");
  b.declareSymbol("Qa", "Atoms");
  b.addSubset(dpl::image(dpl::symbol("Qa"), "box", "Boxes"),
              dpl::symbol("Qc"));
  b.addComp(dpl::symbol("Qa"), "Atoms");
  b.addDisj(dpl::symbol("Qa"));

  CanonicalForm fa = constraint::canonicalize(
      {CanonicalLoop{&a, false, {}}}, {}, {}, 0);
  CanonicalForm fb = constraint::canonicalize(
      {CanonicalLoop{&b, false, {}}}, {}, {}, 0);
  EXPECT_EQ(fa.hash, fb.hash);
  EXPECT_EQ(fa.rendering, fb.rendering);
  // The two labelings map corresponding symbols to the same canonical name.
  EXPECT_EQ(fa.toCanonical.symbol("P1"), fb.toCanonical.symbol("Qa"));
  EXPECT_EQ(fa.toCanonical.symbol("P2"), fb.toCanonical.symbol("Qc"));
  EXPECT_EQ(fa.toCanonical.region("Particles"), fb.toCanonical.region("Atoms"));
  EXPECT_EQ(fa.toCanonical.fn("cell"), fb.toCanonical.fn("box"));
}

TEST(Canonicalize, StructurallyDistinctSystemsDiffer) {
  System a;
  a.declareSymbol("P1", "R");
  a.addDisj(dpl::symbol("P1"));

  System b;
  b.declareSymbol("P1", "R");
  b.addComp(dpl::symbol("P1"), "R");  // COMP instead of DISJ

  CanonicalForm fa =
      constraint::canonicalize({CanonicalLoop{&a, false, {}}}, {}, {}, 0);
  CanonicalForm fb =
      constraint::canonicalize({CanonicalLoop{&b, false, {}}}, {}, {}, 0);
  EXPECT_NE(fa.rendering, fb.rendering);
  EXPECT_NE(fa.hash, fb.hash);
}

TEST(Canonicalize, LoopAttributesArePartOfTheKey) {
  System a;
  a.declareSymbol("P1", "R");
  CanonicalForm plain =
      constraint::canonicalize({CanonicalLoop{&a, false, {}}}, {}, {}, 0);
  CanonicalForm relaxed =
      constraint::canonicalize({CanonicalLoop{&a, true, {}}}, {}, {}, 0);
  CanonicalForm reducing =
      constraint::canonicalize({CanonicalLoop{&a, false, {"P1"}}}, {}, {}, 0);
  CanonicalForm options =
      constraint::canonicalize({CanonicalLoop{&a, false, {}}}, {}, {}, 7);
  EXPECT_NE(plain.hash, relaxed.hash);
  EXPECT_NE(plain.hash, reducing.hash);
  EXPECT_NE(plain.hash, options.hash);
}

TEST(Canonicalize, SymmetricSymbolsGetDistinctCanonicalNames) {
  // Two fully interchangeable symbols: refinement alone cannot split them,
  // so individualization must — and both orderings canonicalize identically.
  System a;
  a.declareSymbol("P1", "R");
  a.declareSymbol("P2", "R");
  a.addDisj(dpl::symbol("P1"));
  a.addDisj(dpl::symbol("P2"));

  System b;
  b.declareSymbol("Q9", "S");
  b.declareSymbol("Q0", "S");
  b.addDisj(dpl::symbol("Q0"));
  b.addDisj(dpl::symbol("Q9"));

  CanonicalForm fa =
      constraint::canonicalize({CanonicalLoop{&a, false, {}}}, {}, {}, 0);
  CanonicalForm fb =
      constraint::canonicalize({CanonicalLoop{&b, false, {}}}, {}, {}, 0);
  EXPECT_EQ(fa.hash, fb.hash);
  EXPECT_EQ(fa.rendering, fb.rendering);
  EXPECT_NE(fa.toCanonical.symbol("P1"), fa.toCanonical.symbol("P2"));
}

TEST(NameMapsTest, MapExprAndInvertRoundTrip) {
  NameMaps m;
  m.symbols = {{"P1", "s0"}};
  m.regions = {{"R", "r0"}, {"S", "r1"}};
  m.fns = {{"f", "f0"}};
  dpl::ExprPtr e = dpl::unionOf(
      dpl::image(dpl::symbol("P1"), "f", "S"),
      dpl::preimage("R", "f", dpl::equalOf("S")));
  dpl::ExprPtr mapped = constraint::mapExpr(e, m);
  EXPECT_EQ(mapped->toString(),
            "(image(s0, f0, r1) u preimage(r0, f0, equal(r1)))");
  dpl::ExprPtr back = constraint::mapExpr(mapped, m.inverted());
  EXPECT_TRUE(dpl::exprEq(e, back));
  // f_ID passes through unrenamed.
  dpl::ExprPtr id = dpl::image(dpl::symbol("P1"), "f_ID", "R");
  EXPECT_EQ(constraint::mapExpr(id, m)->toString(), "image(s0, f_ID, r0)");
}

// ---------------------------------------------------------------------------
// End-to-end: isomorphic programs share one solve
// ---------------------------------------------------------------------------

// The quickstart particles/cells world under arbitrary names, with the
// independent statements of the first loop optionally reordered.
struct Names {
  std::string particles, cells, cellField, pos, vel, acc, h;
};

void buildWorld(region::World& world, const Names& n) {
  constexpr region::Index kParticles = 100;
  constexpr region::Index kCells = 10;
  auto& particles = world.addRegion(n.particles, kParticles);
  auto& cells = world.addRegion(n.cells, kCells);
  particles.addField(n.cellField, region::FieldType::Idx);
  particles.addField(n.pos, region::FieldType::F64);
  cells.addField(n.vel, region::FieldType::F64);
  cells.addField(n.acc, region::FieldType::F64);
  auto cell = particles.idx(n.cellField);
  for (region::Index p = 0; p < kParticles; ++p) {
    cell[static_cast<std::size_t>(p)] = p % kCells;
  }
  world.defineFieldFn(n.particles, n.cellField, n.cells);
  world.defineAffineFn(n.h, n.cells, n.cells,
                       [](region::Index c) { return (c + 1) % 10; });
}

// With `reordered`, the two field loads through `c` swap (fields do not
// appear in constraint systems, and both loads chain through the same
// rebound variable, so the inferred systems are isomorphic) and the two
// loops swap program order. Note that NOT every statement reorder preserves
// the key: Algorithm 1's access rebinding is order-sensitive, so moving an
// access before the one it chains through changes the constraint structure
// itself — such programs genuinely need their own solve.
ir::Program figureProgram(const Names& n, bool reordered) {
  ir::Program prog;
  prog.name = "figure1";
  ir::Loop particlesLoop, cellsLoop;
  {
    ir::LoopBuilder b("update_particles", "p", n.particles);
    b.loadIdx("c", n.particles, n.cellField, "p");
    if (reordered) {
      b.loadF64("v2", n.cells, n.acc, "c");
      b.loadF64("v1", n.cells, n.vel, "c");
    } else {
      b.loadF64("v1", n.cells, n.vel, "c");
      b.loadF64("v2", n.cells, n.acc, "c");
    }
    b.compute("dp", {"v1", "v2"},
              [](auto v) { return 0.5 * v[0] + 0.25 * v[1]; });
    b.reduce(n.particles, n.pos, "p", "dp");
    particlesLoop = b.build();
  }
  {
    ir::LoopBuilder b("update_cells", "c", n.cells);
    b.loadF64("a1", n.cells, n.acc, "c");
    b.apply("c2", n.h, "c");
    b.loadF64("a2", n.cells, n.acc, "c2");
    b.compute("dv", {"a1", "a2"},
              [](auto v) { return v[0] + 0.5 * v[1]; });
    b.reduce(n.cells, n.vel, "c", "dv");
    cellsLoop = b.build();
  }
  if (reordered) {
    prog.loops.push_back(std::move(cellsLoop));
    prog.loops.push_back(std::move(particlesLoop));
  } else {
    prog.loops.push_back(std::move(particlesLoop));
    prog.loops.push_back(std::move(cellsLoop));
  }
  return prog;
}

const Names kNamesA{"Particles", "Cells", "cell", "pos", "vel", "acc", "h"};
const Names kNamesB{"Atoms", "Boxes", "box", "q", "w", "a", "nbr"};

TEST(SolveCacheTest, IsomorphicProgramsCollideAndShareOneSolve) {
  SolveCache cache;
  parallelize::Options opts;
  opts.solveCache = &cache;

  region::World worldA;
  buildWorld(worldA, kNamesA);
  AutoParallelizer apA(worldA, opts);
  ParallelPlan planA = apA.plan(figureProgram(kNamesA, false));
  EXPECT_FALSE(planA.stats.cacheHit);

  // Renamed everything + reordered statements: same canonical key, served
  // from the cache.
  region::World worldB;
  buildWorld(worldB, kNamesB);
  AutoParallelizer apB(worldB, opts);
  ParallelPlan planB = apB.plan(figureProgram(kNamesB, true));
  EXPECT_EQ(planA.stats.cacheKey, planB.stats.cacheKey);
  EXPECT_TRUE(planB.stats.cacheHit);

  // The cache-served plan matches a fresh solve of the renamed program up
  // to DPL statement order: the cached entry replays the first program's
  // assignment order, the fresh solve assigns in this program's loop order.
  // (Exact bitwise identity holds when the *same* program is resubmitted —
  // see the Fig. 14 cases below.)
  AutoParallelizer apFresh(worldB);
  ParallelPlan planFresh = apFresh.plan(figureProgram(kNamesB, true));
  EXPECT_FALSE(planFresh.stats.cacheHit);
  auto sortedLines = [](const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);) lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  EXPECT_EQ(sortedLines(fingerprint(planB)), sortedLines(fingerprint(planFresh)));

  SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.renderingConflicts, 0u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(SolveCacheTest, StructurallyDistinctProgramsDoNotCollide) {
  SolveCache cache;
  parallelize::Options opts;
  opts.solveCache = &cache;

  region::World worldA;
  buildWorld(worldA, kNamesA);
  AutoParallelizer apA(worldA, opts);
  ParallelPlan planA = apA.plan(figureProgram(kNamesA, false));

  // Same world, structurally different program: the second loop reads vel
  // through the neighbor map instead of reducing into it.
  region::World worldC;
  buildWorld(worldC, kNamesA);
  ir::Program prog = figureProgram(kNamesA, false);
  {
    ir::LoopBuilder b("smooth", "c", "Cells");
    b.loadF64("a1", "Cells", "acc", "c");
    b.compute("dv", {"a1"}, [](auto v) { return v[0]; });
    b.reduce("Cells", "vel", "c", "dv");
    prog.loops[1] = b.build();
  }
  AutoParallelizer apC(worldC, opts);
  ParallelPlan planC = apC.plan(prog);
  EXPECT_NE(planA.stats.cacheKey, planC.stats.cacheKey);
  EXPECT_FALSE(planC.stats.cacheHit);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(SolveCacheTest, OptionsArePartOfTheKey) {
  SolveCache cache;
  parallelize::Options opts;
  opts.solveCache = &cache;

  region::World world;
  buildWorld(world, kNamesA);
  AutoParallelizer ap(world, opts);
  ParallelPlan p1 = ap.plan(figureProgram(kNamesA, false));

  parallelize::Options noUnify = opts;
  noUnify.enableUnification = false;
  AutoParallelizer ap2(world, noUnify);
  ParallelPlan p2 = ap2.plan(figureProgram(kNamesA, false));
  EXPECT_NE(p1.stats.cacheKey, p2.stats.cacheKey);
  EXPECT_FALSE(p2.stats.cacheHit);
}

// Vocabulary and proof compiles bypass the cache, so they neither compute
// the canonical key nor touch the cache's counters.
TEST(SolveCacheTest, VocabularyAndProofCompilesNeverTouchTheCache) {
  SolveCache cache;
  parallelize::Options warm;
  warm.solveCache = &cache;
  region::World world;
  buildWorld(world, kNamesA);
  (void)AutoParallelizer(world, warm).plan(figureProgram(kNamesA, false));
  const SolveCache::Stats before = cache.stats();

  parallelize::Options constrained = warm;
  constrained.vocab.capacities.push_back({kNamesA.cells, 100});
  constrained.pieces = 4;
  parallelize::Options proving = warm;
  proving.proofFile = ::testing::TempDir() + "cache_bypass.dprf";
  for (const parallelize::Options& opts : {constrained, proving}) {
    const ParallelPlan plan =
        AutoParallelizer(world, opts).plan(figureProgram(kNamesA, false));
    EXPECT_FALSE(plan.stats.cacheHit);
    EXPECT_EQ(plan.stats.cacheKey, 0u);
    EXPECT_EQ(plan.stats.canonMs, 0.0);
  }
  const SolveCache::Stats after = cache.stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.entries, before.entries);
}

TEST(SolveCacheTest, LruEvictionBoundsEntries) {
  SolveCache cache(1);
  parallelize::Options opts;
  opts.solveCache = &cache;

  region::World world;
  buildWorld(world, kNamesA);
  AutoParallelizer ap(world, opts);
  (void)ap.plan(figureProgram(kNamesA, false));

  parallelize::Options noRelax = opts;
  noRelax.enableRelaxation = false;
  AutoParallelizer ap2(world, noRelax);
  (void)ap2.plan(figureProgram(kNamesA, false));
  EXPECT_EQ(cache.stats().entries, 1u);

  // First entry was evicted: compiling the original again misses.
  ParallelPlan p3 = ap.plan(figureProgram(kNamesA, false));
  EXPECT_FALSE(p3.stats.cacheHit);
}

// ---------------------------------------------------------------------------
// All five Fig. 14 apps: cache-served == fresh, bit for bit
// ---------------------------------------------------------------------------

// A plan pinned by value: FNV-1a-64 of ParallelPlan::toString() and the
// canonical cache key of a compile with a SolveCache attached.
struct Golden {
  std::uint64_t planHash;
  std::uint64_t cacheKey;
};

void expectCachedPlanIdentical(region::World& world,
                               const ir::Program& program,
                               const Golden& golden) {
  SolveCache cache;
  parallelize::Options opts;
  opts.solveCache = &cache;

  AutoParallelizer cold(world, opts);
  ParallelPlan fresh = cold.plan(program);
  EXPECT_FALSE(fresh.stats.cacheHit);
  EXPECT_EQ(runtime::CheckpointManager::hashPlan(fresh), golden.planHash)
      << fresh.toString();
  EXPECT_EQ(fresh.stats.cacheKey, golden.cacheKey);

  AutoParallelizer warm(world, opts);
  ParallelPlan served = warm.plan(program);
  ASSERT_TRUE(served.stats.cacheHit);
  EXPECT_EQ(served.stats.cacheKey, fresh.stats.cacheKey);
  EXPECT_EQ(fingerprint(served), fingerprint(fresh));
}

TEST(SolveCacheFig14, Spmv) {
  apps::SpmvApp app({.rowsPerPiece = 64, .nnzPerRow = 3, .pieces = 4});
  expectCachedPlanIdentical(app.world(), app.program(),
                            {0x084c14d873b178f0ULL, 0x99a97d6bf2eec50bULL});
}

TEST(SolveCacheFig14, Stencil) {
  apps::StencilApp app({.rowsPerPiece = 8, .cols = 8, .pieces = 4});
  expectCachedPlanIdentical(app.world(), app.program(),
                            {0xac13704b8ea45a10ULL, 0x67f2064efd34fb96ULL});
}

TEST(SolveCacheFig14, MiniAero) {
  apps::MiniAeroApp app({.nx = 4, .ny = 4, .nzPerPiece = 4, .pieces = 4});
  expectCachedPlanIdentical(app.world(), app.program(),
                            {0xe3d59d66d501f07bULL, 0xdf5950ff5ea29f37ULL});
}

TEST(SolveCacheFig14, Circuit) {
  apps::CircuitApp app({.pieces = 4, .nodesPerCluster = 32,
                        .wiresPerCluster = 64});
  expectCachedPlanIdentical(app.world(), app.program(),
                            {0x4922fa57bba6523bULL, 0x9a0e5c5156b773bdULL});
}

TEST(SolveCacheFig14, Pennant) {
  apps::PennantApp app({.zx = 4, .zyPerPiece = 4, .pieces = 4});
  expectCachedPlanIdentical(app.world(), app.program(),
                            {0x701b58d1a39de0c7ULL, 0x87e021349113fae0ULL});
}

}  // namespace
}  // namespace dpart
