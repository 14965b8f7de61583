// Cross-product coverage: every reduction operator (Sum/Min/Max) through
// every execution strategy the optimizer can pick (Direct via disjoint
// reduction partitions, Guarded via relaxation, Buffered, PrivateSplit),
// always validated against serial execution.

#include <gtest/gtest.h>

#include "ir/interp.hpp"
#include "parallelize/parallelize.hpp"
#include "runtime/executor.hpp"

namespace dpart {
namespace {

using optimize::ReduceStrategy;
using region::FieldType;
using region::Index;
using region::World;

void buildWorld(World& w) {
  w.addRegion("R", 48).addField("val", FieldType::F64);
  w.addRegion("S", 16).addField("acc", FieldType::F64);
  w.defineAffineFn("f", "R", "S", [](Index i) { return i / 3; });
  w.defineAffineFn("g", "R", "S", [](Index i) { return (i / 3 + 5) % 16; });
  auto val = w.region("R").f64("val");
  for (Index i = 0; i < 48; ++i) {
    val[static_cast<std::size_t>(i)] = double((i * 13) % 29) - 14.0;
  }
  auto acc = w.region("S").f64("acc");
  for (Index i = 0; i < 16; ++i) {
    acc[static_cast<std::size_t>(i)] = double(i % 3);
  }
}

// One uncentered reduction; optionally a centered store in the same loop to
// block relaxation (forcing Direct via disjointification), optionally a
// second reduction through g to force Buffered/PrivateSplit.
ir::Program makeProgram(ir::ReduceOp op, bool blockRelaxation,
                        bool twoReductions) {
  ir::Program prog;
  prog.name = "reduce";
  ir::LoopBuilder b("scatter", "i", "R");
  b.loadF64("x", "R", "val", "i");
  b.apply("j", "f", "i");
  b.reduce("S", "acc", "j", "x", op);
  if (twoReductions) {
    b.apply("j2", "g", "i");
    b.reduce("S", "acc", "j2", "x", op);
  }
  if (blockRelaxation) {
    b.store("R", "val", "i", "x");  // idempotent, but blocks relaxation
  }
  prog.loops.push_back(b.build());
  return prog;
}

struct Config {
  ir::ReduceOp op;
  bool blockRelaxation;
  bool twoReductions;
  ReduceStrategy expected;
};

// gtest names each case after a byte dump of its Config, padding included.
// A static table is zero-initialized, padding too, so the names are the same
// in every build; temporaries built on the stack would carry stack garbage.
constexpr Config kConfigs[] = {
    // Single reduction, relaxable loop -> Guarded.
    {ir::ReduceOp::Sum, false, false, ReduceStrategy::Guarded},
    {ir::ReduceOp::Min, false, false, ReduceStrategy::Guarded},
    {ir::ReduceOp::Max, false, false, ReduceStrategy::Guarded},
    // Single reduction, relaxation blocked -> Direct (disjointified).
    {ir::ReduceOp::Sum, true, false, ReduceStrategy::Direct},
    {ir::ReduceOp::Max, true, false, ReduceStrategy::Direct},
    // Two reductions, relaxable -> Guarded on both.
    {ir::ReduceOp::Sum, false, true, ReduceStrategy::Guarded},
    // Two reductions, blocked -> PrivateSplit (Theorem 5.1).
    {ir::ReduceOp::Sum, true, true, ReduceStrategy::PrivateSplit},
    {ir::ReduceOp::Min, true, true, ReduceStrategy::PrivateSplit},
};

class ReduceStrategyTest : public ::testing::TestWithParam<Config> {};

TEST_P(ReduceStrategyTest, MatchesSerialUnderEveryStrategy) {
  const Config& cfg = GetParam();
  ir::Program prog =
      makeProgram(cfg.op, cfg.blockRelaxation, cfg.twoReductions);

  World serial;
  buildWorld(serial);
  ir::runSerial(serial, prog);

  World parallel;
  buildWorld(parallel);
  parallelize::AutoParallelizer ap(parallel);
  parallelize::ParallelPlan plan = ap.plan(prog);
  ASSERT_FALSE(plan.loops[0].reduces.empty());
  for (const auto& [_, rp] : plan.loops[0].reduces) {
    EXPECT_EQ(rp.strategy, cfg.expected)
        << "got " << optimize::toString(rp.strategy);
  }

  runtime::ExecOptions opts;
  opts.validateAccesses = true;
  runtime::PlanExecutor exec(parallel, plan, 4, opts);
  exec.run();

  auto want = serial.region("S").f64("acc");
  auto got = parallel.region("S").f64("acc");
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(want[i], got[i], 1e-12) << "S.acc[" << i << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ReduceStrategyTest,
                         ::testing::ValuesIn(kConfigs));

TEST(ReduceStrategies, BufferedFallbackWithoutOptimizations) {
  // With every Section 5 optimization disabled, uncentered reductions fall
  // back to plain per-task buffers — and still match serial.
  ir::Program prog = makeProgram(ir::ReduceOp::Sum, true, true);
  World serial;
  buildWorld(serial);
  ir::runSerial(serial, prog);

  World parallel;
  buildWorld(parallel);
  parallelize::Options options;
  options.enableRelaxation = false;
  options.enableDisjointReduction = false;
  options.enablePrivateSubPartitions = false;
  parallelize::AutoParallelizer ap(parallel, options);
  parallelize::ParallelPlan plan = ap.plan(prog);
  for (const auto& [_, rp] : plan.loops[0].reduces) {
    EXPECT_EQ(rp.strategy, ReduceStrategy::Buffered);
  }
  runtime::PlanExecutor exec(parallel, plan, 4);
  exec.run();
  EXPECT_GT(exec.bufferedElements(), 0u);
  auto want = serial.region("S").f64("acc");
  auto got = parallel.region("S").f64("acc");
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(want[i], got[i], 1e-12);
  }
}

}  // namespace
}  // namespace dpart
