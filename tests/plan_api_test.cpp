// The compile/execute split: SessionBuilder::compile() -> dpart::Plan,
// Session::execute(plan, world) — the API the plan service builds on. The
// fluent run()/build() path is a thin wrapper over the same two steps, so
// the split must be invisible to it (session_test covers that side).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "parallelize/solve_cache.hpp"
#include "runtime/plan.hpp"
#include "runtime/session.hpp"

namespace dpart {
namespace {

constexpr region::Index kParticles = 400;
constexpr region::Index kCells = 40;

void buildWorld(region::World& world) {
  auto& particles = world.addRegion("Particles", kParticles);
  auto& cells = world.addRegion("Cells", kCells);
  particles.addField("cell", region::FieldType::Idx);
  particles.addField("pos", region::FieldType::F64);
  cells.addField("vel", region::FieldType::F64);
  auto cell = particles.idx("cell");
  for (region::Index p = 0; p < kParticles; ++p) {
    cell[static_cast<std::size_t>(p)] = (p * 7) % kCells;
  }
  auto vel = cells.f64("vel");
  for (region::Index c = 0; c < kCells; ++c) {
    vel[static_cast<std::size_t>(c)] = 0.5 * double(c % 4);
  }
  world.defineFieldFn("Particles", "cell", "Cells");
}

ir::Program makeProgram() {
  ir::Program prog;
  prog.name = "plan_api_test";
  ir::LoopBuilder b("update", "p", "Particles");
  b.loadIdx("c", "Particles", "cell", "p");
  b.loadF64("v", "Cells", "vel", "c");
  b.compute("dp", {"v"}, [](auto v) { return 2.0 * v[0]; });
  b.reduce("Particles", "pos", "p", "dp");
  prog.loops.push_back(b.build());
  return prog;
}

bool bitwiseEqual(region::World& a, region::World& b) {
  auto x = a.region("Particles").f64("pos");
  auto y = b.region("Particles").f64("pos");
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(x[i]) !=
        std::bit_cast<std::uint64_t>(y[i])) {
      return false;
    }
  }
  return true;
}

TEST(PlanApi, CompileProducesAValidImmutablePlan) {
  region::World world;
  buildWorld(world);
  const Plan plan =
      Session::parallelize(makeProgram()).pieces(4).compile(world);
  EXPECT_TRUE(plan.valid());
  EXPECT_EQ(plan.pieces(), 4u);
  // No solve cache configured: no key computed, no hit.
  EXPECT_EQ(plan.cacheKey(), 0u);
  EXPECT_FALSE(plan.cacheHit());
  EXPECT_EQ(plan.stats().parallelLoops, 1);
  EXPECT_FALSE(plan.parallelPlan().dpl.toString().empty());
}

TEST(PlanApi, EmptyPlanIsInvalidAndRefusesEverything) {
  const Plan empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW((void)empty.parallelPlan(), Error);
  EXPECT_THROW((void)empty.pieces(), Error);
  region::World world;
  buildWorld(world);
  EXPECT_THROW((void)Session::execute(empty, world), Error);
}

TEST(PlanApi, CompileRequiresPieces) {
  region::World world;
  buildWorld(world);
  EXPECT_THROW((void)Session::parallelize(makeProgram()).compile(world),
               Error);
}

// Compile-then-execute must be bitwise identical to the fluent one-shot
// path (which is now a thin wrapper over it).
TEST(PlanApi, ExecuteMatchesFluentRunBitwise) {
  const ir::Program prog = makeProgram();

  region::World fluentWorld;
  buildWorld(fluentWorld);
  Session fluent = Session::parallelize(prog).pieces(4).run(fluentWorld);
  fluent.run();

  region::World splitWorld;
  buildWorld(splitWorld);
  const Plan plan = Session::parallelize(prog).pieces(4).compile(splitWorld);
  Session split = Session::execute(plan, splitWorld);
  split.run();
  split.run();

  EXPECT_TRUE(bitwiseEqual(fluentWorld, splitWorld));
  EXPECT_EQ(fluent.plan().dpl.toString(), split.plan().dpl.toString());
}

// One Plan, many Sessions: copies share a single payload, so every session
// executes the very same ParallelPlan object — the multi-tenant sharing the
// plan service relies on.
TEST(PlanApi, OnePlanIsSharedByManySessions) {
  region::World worldA;
  buildWorld(worldA);
  const Plan plan =
      Session::parallelize(makeProgram()).pieces(4).compile(worldA);

  region::World worldB;
  buildWorld(worldB);
  Session a = Session::execute(plan, worldA);
  Session b = Session::execute(plan, worldB);
  a.run();
  b.run();

  EXPECT_EQ(&a.plan(), &b.plan()) << "sessions must share one ParallelPlan";
  EXPECT_EQ(&a.plan(), &plan.parallelPlan());
  EXPECT_TRUE(bitwiseEqual(worldA, worldB));
}

// The plan handle outlives the builder and the world it was compiled
// against can differ from the one it executes in (same shapes).
TEST(PlanApi, FluentSessionExposesItsPlanForFurtherExecutes) {
  region::World worldA;
  buildWorld(worldA);
  Session first = Session::parallelize(makeProgram()).pieces(4).run(worldA);

  region::World worldB;
  buildWorld(worldB);
  Session second = Session::execute(first.compiledPlan(), worldB);
  second.run();

  EXPECT_EQ(&first.plan(), &second.plan());
  EXPECT_TRUE(bitwiseEqual(worldA, worldB));
}

// Wiring a SolveCache through compile(): the second compile of an
// isomorphic program skips the solve and says so in the plan's stats.
TEST(PlanApi, CompileUsesTheConfiguredSolveCache) {
  parallelize::SolveCache cache;
  parallelize::Options copts;
  copts.solveCache = &cache;

  region::World world;
  buildWorld(world);
  const Plan cold = Session::parallelize(makeProgram())
                        .pieces(4)
                        .compileOptions(copts)
                        .compile(world);
  const Plan warm = Session::parallelize(makeProgram())
                        .pieces(4)
                        .compileOptions(copts)
                        .compile(world);
  EXPECT_FALSE(cold.cacheHit());
  ASSERT_TRUE(warm.cacheHit());
  EXPECT_EQ(cold.cacheKey(), warm.cacheKey());
  EXPECT_EQ(cold.parallelPlan().dpl.toString(),
            warm.parallelPlan().dpl.toString());

  // Cached and fresh plans execute to bitwise-identical state.
  region::World worldCold;
  buildWorld(worldCold);
  region::World worldWarm;
  buildWorld(worldWarm);
  Session a = Session::execute(cold, worldCold);
  Session b = Session::execute(warm, worldWarm);
  a.run();
  b.run();
  EXPECT_TRUE(bitwiseEqual(worldCold, worldWarm));
}

}  // namespace
}  // namespace dpart
