#include "ir/ir.hpp"

#include <gtest/gtest.h>

#include "ir/interp.hpp"
#include "support/check.hpp"

namespace dpart::ir {
namespace {

using region::FieldType;
using region::IndexSet;
using region::World;

TEST(ReduceOps, Semantics) {
  EXPECT_EQ(applyReduce(ReduceOp::Sum, 2.0, 3.0), 5.0);
  EXPECT_EQ(applyReduce(ReduceOp::Min, 2.0, 3.0), 2.0);
  EXPECT_EQ(applyReduce(ReduceOp::Max, 2.0, 3.0), 3.0);
  EXPECT_EQ(reduceIdentity(ReduceOp::Sum), 0.0);
  EXPECT_EQ(applyReduce(ReduceOp::Min, reduceIdentity(ReduceOp::Min), 7.0),
            7.0);
  EXPECT_EQ(applyReduce(ReduceOp::Max, reduceIdentity(ReduceOp::Max), -7.0),
            -7.0);
}

TEST(LoopBuilder, AssignsSequentialIds) {
  LoopBuilder b("l", "i", "R");
  b.loadF64("x", "R", "a", "i").compute("y", {"x"}, [](auto v) {
    return v[0] * 2;
  });
  b.store("R", "b", "i", "y");
  Loop loop = b.build();
  ASSERT_EQ(loop.body.size(), 3u);
  EXPECT_EQ(loop.body[0].id, 0);
  EXPECT_EQ(loop.body[1].id, 1);
  EXPECT_EQ(loop.body[2].id, 2);
  EXPECT_EQ(loop.stmtCount(), 3);
}

TEST(LoopBuilder, InnerLoopNesting) {
  LoopBuilder b("l", "i", "R");
  b.loadRange("rg", "R", "span", "i");
  b.beginInner("k", "rg");
  b.loadF64("v", "S", "val", "k");
  b.endInner();
  Loop loop = b.build();
  ASSERT_EQ(loop.body.size(), 2u);
  EXPECT_EQ(loop.body[1].kind, StmtKind::InnerLoop);
  ASSERT_EQ(loop.body[1].body.size(), 1u);
  EXPECT_EQ(loop.stmtCount(), 3);
}

TEST(LoopBuilder, UnclosedInnerThrows) {
  LoopBuilder b("l", "i", "R");
  b.loadRange("rg", "R", "span", "i");
  b.beginInner("k", "rg");
  EXPECT_THROW(b.build(), Error);
  EXPECT_THROW(b.beginInner("k2", "rg"), Error);
}

TEST(LoopPrinting, ReadableForms) {
  LoopBuilder b("upd", "p", "Particles");
  b.loadIdx("c", "Particles", "cell", "p");
  b.apply("c2", "h", "c");
  b.reduce("Particles", "pos", "p", "v");
  Loop loop = b.build();
  const std::string s = loop.toString();
  EXPECT_NE(s.find("for (p in Particles)"), std::string::npos);
  EXPECT_NE(s.find("c = Particles[p].cell"), std::string::npos);
  EXPECT_NE(s.find("c2 = h(c)"), std::string::npos);
  EXPECT_NE(s.find("Particles[p].pos += v"), std::string::npos);
}

// ---- Interpreter ----

class InterpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& r = world.addRegion("R", 8);
    r.addField("a", FieldType::F64);
    r.addField("b", FieldType::F64);
    auto a = r.f64("a");
    for (Index i = 0; i < 8; ++i) a[static_cast<std::size_t>(i)] = double(i);
  }
  World world;
};

TEST_F(InterpTest, CenteredCopyLoop) {
  LoopBuilder b("copy", "i", "R");
  b.loadF64("x", "R", "a", "i");
  b.compute("y", {"x"}, [](auto v) { return v[0] + 1.0; });
  b.store("R", "b", "i", "y");
  Loop loop = b.build();
  LoopRunner runner(world, loop);
  runner.runAll();
  auto bcol = world.region("R").f64("b");
  for (Index i = 0; i < 8; ++i) {
    EXPECT_EQ(bcol[static_cast<std::size_t>(i)], double(i) + 1.0);
  }
}

TEST_F(InterpTest, SubsetExecutionOnlyTouchesSubset) {
  LoopBuilder b("copy", "i", "R");
  b.loadF64("x", "R", "a", "i");
  b.store("R", "b", "i", "x");
  Loop loop = b.build();
  LoopRunner runner(world, loop);
  runner.run(IndexSet{1, 3});
  auto bcol = world.region("R").f64("b");
  EXPECT_EQ(bcol[1], 1.0);
  EXPECT_EQ(bcol[3], 3.0);
  EXPECT_EQ(bcol[0], 0.0);
  EXPECT_EQ(bcol[2], 0.0);
}

TEST_F(InterpTest, UncenteredReadThroughFn) {
  world.defineAffineFn("next", "R", "R",
                       [](Index i) { return (i + 1) % 8; });
  LoopBuilder b("shift", "i", "R");
  b.apply("j", "next", "i");
  b.loadF64("x", "R", "a", "j");
  b.store("R", "b", "i", "x");
  Loop loop = b.build();
  LoopRunner runner(world, loop);
  runner.runAll();
  auto bcol = world.region("R").f64("b");
  EXPECT_EQ(bcol[0], 1.0);
  EXPECT_EQ(bcol[7], 0.0);
}

TEST_F(InterpTest, UncenteredReductionAccumulates) {
  world.addRegion("S", 2).addField("sum", FieldType::F64);
  world.defineAffineFn("half", "R", "S",
                       [](Index i) { return i < 4 ? 0 : 1; });
  LoopBuilder b("acc", "i", "R");
  b.apply("j", "half", "i");
  b.loadF64("x", "R", "a", "i");
  b.reduce("S", "sum", "j", "x");
  Loop loop = b.build();
  LoopRunner runner(world, loop);
  runner.runAll();
  auto sum = world.region("S").f64("sum");
  EXPECT_EQ(sum[0], 0.0 + 1 + 2 + 3);
  EXPECT_EQ(sum[1], 4.0 + 5 + 6 + 7);
}

TEST_F(InterpTest, InnerLoopOverRanges) {
  // Sum a[lo..hi) per element, CSR-style.
  auto& rg = world.addRegion("Rows", 2);
  rg.addField("span", FieldType::Range);
  rg.addField("total", FieldType::F64);
  auto span = rg.range("span");
  span[0] = region::Run{0, 3};
  span[1] = region::Run{3, 8};
  LoopBuilder b("rowsum", "i", "Rows");
  b.loadRange("rg", "Rows", "span", "i");
  b.compute("acc0", {}, [](auto) { return 0.0; });
  b.beginInner("k", "rg");
  b.loadF64("v", "R", "a", "k");
  b.reduce("Rows", "total", "i", "v");
  b.endInner();
  Loop loop = b.build();
  LoopRunner runner(world, loop);
  runner.runAll();
  auto total = world.region("Rows").f64("total");
  EXPECT_EQ(total[0], 0.0 + 1 + 2);
  EXPECT_EQ(total[1], 3.0 + 4 + 5 + 6 + 7);
}

TEST_F(InterpTest, OutOfBoundsAccessThrows) {
  world.defineAffineFn("oob", "R", "R", [](Index i) { return i + 100; });
  LoopBuilder b("bad", "i", "R");
  b.apply("j", "oob", "i");
  b.loadF64("x", "R", "a", "j");
  b.store("R", "b", "i", "x");
  Loop loop = b.build();
  LoopRunner runner(world, loop);
  EXPECT_THROW(runner.runAll(), Error);
}

TEST_F(InterpTest, FnArgumentOutsideItsDomainThrows) {
  // A pointer loaded from a column feeds a field-backed fn: the fn must
  // check its argument the way a load checks its index.
  auto& r = world.region("R");
  r.addField("ptr", FieldType::Idx);
  r.addField("nbr", FieldType::Idx);
  r.idx("ptr")[3] = 1000000;
  world.defineFieldFn("R", "nbr", "R");
  Program prog;
  LoopBuilder b("chase", "i", "R");
  b.loadIdx("c", "R", "ptr", "i");
  b.apply("d", World::fieldFnId("R", "nbr"), "c");
  b.loadF64("x", "R", "a", "d");
  b.store("R", "b", "i", "x");
  prog.loops.push_back(b.build());
  EXPECT_THROW(runSerial(world, prog), Error);
}

TEST_F(InterpTest, RunSerialExecutesAllLoops) {
  Program prog;
  prog.name = "two-phase";
  {
    LoopBuilder b("phase1", "i", "R");
    b.loadF64("x", "R", "a", "i");
    b.store("R", "b", "i", "x");
    prog.loops.push_back(b.build());
  }
  {
    LoopBuilder b("phase2", "i", "R");
    b.loadF64("x", "R", "b", "i");
    b.compute("y", {"x"}, [](auto v) { return v[0] * 10; });
    b.store("R", "b", "i", "y");
    prog.loops.push_back(b.build());
  }
  runSerial(world, prog);
  EXPECT_EQ(world.region("R").f64("b")[4], 40.0);
}

}  // namespace
}  // namespace dpart::ir
