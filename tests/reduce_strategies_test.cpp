// Cross-product coverage: every reduction operator (Sum/Min/Max) through
// every execution strategy the optimizer can pick (Direct via disjoint
// reduction partitions, Guarded via relaxation, Buffered, PrivateSplit),
// always validated against serial execution, plus the ownership guards
// that keep duplicated centered writes single.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "constraint/system.hpp"
#include "dpl/expr.hpp"
#include "ir/interp.hpp"
#include "parallelize/parallelize.hpp"
#include "runtime/executor.hpp"

namespace dpart {
namespace {

using optimize::ReduceStrategy;
using region::FieldType;
using region::Index;
using region::World;

void expectFieldsBitwiseEqual(World& want, World& got) {
  for (const std::string& rn : want.regionNames()) {
    for (const std::string& fn : want.region(rn).fieldNames()) {
      if (want.region(rn).fieldType(fn) != FieldType::F64) continue;
      auto a = want.region(rn).f64(fn);
      auto b = got.region(rn).f64(fn);
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
                  std::bit_cast<std::uint64_t>(b[i]))
            << rn << "." << fn << "[" << i << "] " << a[i] << " != " << b[i];
      }
    }
  }
}

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

  // The unvalidated path, the one users run, computes the same bits.
  World unchecked;
  buildWorld(unchecked);
  runtime::PlanExecutor fast(unchecked, plan, 4);
  fast.run();
  expectFieldsBitwiseEqual(parallel, unchecked);
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

// The Section 5.1 fallback end to end: an uncentered reduction through a
// range-valued fn admits no disjoint target partition (Rule 1 takes point
// fns only), so the disjoint-reduction attempt fails and the plain system
// is solved next. The resulting plan must still run legally and match the
// serial oracle. Integer-valued inputs keep the buffered sums exact, so the
// comparison is bitwise.
TEST(ReduceStrategies, FallbackAfterFailedDisjointAttemptMatchesSerial) {
  auto makeWorld = [](World& w) {
    auto& rows = w.addRegion("Rows", 8);
    w.addRegion("Cols", 17).addField("acc", FieldType::F64);
    rows.addField("span", FieldType::Range);
    rows.addField("val", FieldType::F64);
    w.defineRangeFn("Rows", "span", "Cols");
    auto span = rows.range("span");
    auto val = rows.f64("val");
    for (Index r = 0; r < 8; ++r) {
      // Overlapping spans of three columns.
      span[static_cast<std::size_t>(r)] = region::Run{2 * r, 2 * r + 3};
      val[static_cast<std::size_t>(r)] = double(r + 1);
    }
  };
  ir::Program prog;
  ir::LoopBuilder b("scatter", "i", "Rows");
  b.loadF64("x", "Rows", "val", "i");
  b.loadRange("rg", "Rows", "span", "i");
  b.beginInner("k", "rg");
  b.reduce("Cols", "acc", "k", "x");
  b.endInner();
  prog.loops.push_back(b.build());

  World serial;
  makeWorld(serial);
  ir::runSerial(serial, prog);

  World parallel;
  makeWorld(parallel);
  parallelize::Options options;
  options.enableRelaxation = false;
  options.pieces = 4;
  const parallelize::ParallelPlan plan =
      parallelize::AutoParallelizer(parallel, options).plan(prog);
  ASSERT_EQ(plan.loops.size(), 1u);
  ASSERT_FALSE(plan.loops[0].reduces.empty());
  for (const auto& [_, rp] : plan.loops[0].reduces) {
    EXPECT_NE(rp.strategy, ReduceStrategy::Direct)
        << "the disjoint-reduction attempt was expected to fail";
  }
  runtime::ExecOptions opts;
  opts.validateAccesses = true;
  opts.verifyPartitions = true;
  runtime::PlanExecutor exec(parallel, plan, 4, opts);
  exec.run();
  EXPECT_GT(exec.bufferedElements(), 0u);
  expectFieldsBitwiseEqual(serial, parallel);
}

TEST(ReduceStrategies, OwnershipGuardsApplyDuplicatedCenteredWritesOnce) {
  // A centered store and a centered reduce planned against an external pR
  // that is asserted complete but not disjoint, then bound to overlapping
  // blocks: the loop iterates pR, duplicated iterations and all, and each
  // write must land once, in the piece that claims the index first. The
  // loop reads only `val`, which it never writes, so the duplicated
  // iterations race with nothing.
  ir::Program prog;
  prog.name = "centered";
  ir::LoopBuilder b("centered", "i", "R");
  b.loadF64("x", "R", "val", "i");
  b.compute("y", {"x"}, [](auto v) { return v[0] * 2.0 + 1.0; });
  b.store("R", "out", "i", "y");
  b.reduce("R", "sum", "i", "x");
  prog.loops.push_back(b.build());
  auto makeWorld = [](World& w) {
    buildWorld(w);
    w.region("R").addField("out", FieldType::F64);
    w.region("R").addField("sum", FieldType::F64);
  };

  World serial;
  makeWorld(serial);
  ir::runSerial(serial, prog);

  std::vector<region::IndexSet> blocks;
  for (Index j = 0; j < 4; ++j) {
    blocks.push_back(region::IndexSet::interval(std::max<Index>(0, 12 * j - 4),
                                                std::min<Index>(48, 12 * j + 16)));
  }
  const region::Partition overlapping("R", blocks);
  ASSERT_FALSE(overlapping.isDisjoint());

  for (const bool validate : {false, true}) {
    World parallel;
    makeWorld(parallel);
    constraint::System ext;
    ext.declareSymbol("pR", "R", /*fixed=*/true);
    ext.addComp(dpl::symbol("pR"), "R");
    parallelize::AutoParallelizer ap(parallel);
    ap.addExternalConstraint(ext);
    const parallelize::ParallelPlan plan = ap.plan(prog);
    ASSERT_TRUE(plan.loops[0].reduces.empty()) << "the reduce is centered";
    // verifyPartitions stays off: the verifier expects every iteration
    // partition to be disjoint and would reject pR (NotDisjoint).
    runtime::ExecOptions opts;
    opts.validateAccesses = validate;
    runtime::PlanExecutor exec(parallel, plan, 4, opts);
    exec.bindExternal("pR", overlapping);
    exec.run();
    EXPECT_FALSE(exec.partition(plan.loops[0].iterPartition).isDisjoint())
        << "the loop should iterate the aliased pR";
    expectFieldsBitwiseEqual(serial, parallel);
  }
}

}  // namespace
}  // namespace dpart
