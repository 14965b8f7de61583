// Tests for the skew-aware adaptive repartitioning layer: the Rebalancer's
// rules (warmup, trigger, noise floor, hysteresis, cooldown, cap) driven by
// synthetic and recorded launches, the per-index weight estimator, the
// equal-base resolution on real plans, and an end-to-end skewed-SpMV Session
// run that must rebalance, stay legal, and compute bitwise-identical results
// to the serial reference.

#include "runtime/rebalance.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/spmv.hpp"
#include "dpl/expr.hpp"
#include "dpl/program.hpp"
#include "ir/interp.hpp"
#include "parallelize/parallelize.hpp"
#include "region/dpl_ops.hpp"
#include "runtime/session.hpp"

namespace dpart::runtime {
namespace {

using region::Index;
using region::IndexSet;
using region::Partition;
using region::World;

// Feeds launches to the Rebalancer one at a time, the way the executor does
// after each real launch, and returns the 1-based launch after which it
// first asked to rebalance (0: never).
int firstTrigger(Rebalancer& rb,
                 const std::vector<std::vector<double>>& launches) {
  for (std::size_t i = 0; i < launches.size(); ++i) {
    rb.observe("l", launches[i]);
    if (rb.shouldRebalance("l")) return static_cast<int>(i) + 1;
  }
  return 0;
}

// The rules run against the constants in rebalance.cpp: a window needs 3
// launches (its first counted) and triggers when its imbalance less its
// noise floor reaches 1.3 or, once the loop has rebalanced, 1.3 * 1.1 =
// 1.43; the cap is 4 rebalances.

TEST(Rebalancer, WarmupBlocksEarlyTrigger) {
  Rebalancer rb;
  rb.observe("l", {4.0, 1.0});  // shares 1.6 / 0.4, imbalance 1.6
  EXPECT_FALSE(rb.shouldRebalance("l")) << "one launch is inside warmup";
  rb.observe("l", {4.0, 1.0});
  EXPECT_FALSE(rb.shouldRebalance("l")) << "two launches are inside warmup";
  rb.observe("l", {4.0, 1.0});
  EXPECT_TRUE(rb.shouldRebalance("l"));
  EXPECT_NEAR(rb.imbalance("l"), 1.6, 1e-9);
}

TEST(Rebalancer, BalancedLoopNeverTriggers) {
  Rebalancer rb;
  for (int i = 0; i < 10; ++i) {
    rb.observe("l", {1.0, 1.05, 0.95, 1.0});
    EXPECT_FALSE(rb.shouldRebalance("l")) << "launch " << i;
  }
}

TEST(Rebalancer, CooldownAndHysteresisAfterFirstRebalance) {
  Rebalancer rb;
  World world;
  world.addRegion("R", 8);
  const Partition iter = region::equalPartition(world, "R", 2);

  // Imbalance 1.4 passes the bare trigger 1.3.
  ASSERT_EQ(firstTrigger(rb, {{1.4, 0.6}, {1.4, 0.6}, {1.4, 0.6}}), 3);
  const Partition weighted = rb.rebuild(world, "R", iter, "l");
  EXPECT_EQ(rb.rebalances(), 1u);
  // The heavy piece 0 shrinks below its unweighted half.
  EXPECT_LT(weighted.sub(0).size(), iter.sub(0).size());

  // rebuild() restarted the window, and the same 1.4 is now inside the
  // hysteresis band (< 1.43), however many launches confirm it.
  EXPECT_EQ(firstTrigger(rb, {{1.4, 0.6}, {1.4, 0.6}, {1.4, 0.6}}), 0)
      << "hysteresis band must hold";

  // A restore drops the windows (and with them the band) but not the count.
  rb.reset();
  ASSERT_EQ(firstTrigger(rb, {{1.4, 0.6}, {1.4, 0.6}, {1.4, 0.6}}), 3);
  static_cast<void>(rb.rebuild(world, "R", iter, "l"));
  EXPECT_EQ(rb.rebalances(), 2u);

  // A skew past the widened trigger (1.6) under the new partition waits
  // out the cooldown: the window restarted, so it needs three launches
  // again.
  EXPECT_EQ(firstTrigger(rb, {{4.0, 1.0}, {4.0, 1.0}, {4.0, 1.0}}), 3)
      << "cooldown must hold for two launches";
  static_cast<void>(rb.rebuild(world, "R", iter, "l"));
  ASSERT_EQ(firstTrigger(rb, {{4.0, 1.0}, {4.0, 1.0}, {4.0, 1.0}}), 3);
  static_cast<void>(rb.rebuild(world, "R", iter, "l"));
  EXPECT_EQ(rb.rebalances(), 4u);
  // The cap (4) now blocks any further trigger, however bad the skew.
  EXPECT_EQ(firstTrigger(rb, {{20.0, 1.0}, {20.0, 1.0}, {20.0, 1.0},
                              {20.0, 1.0}, {20.0, 1.0}}),
            0)
      << "rebalance cap must hold";
}

TEST(Rebalancer, PieceCountChangeDiscardsWindow) {
  Rebalancer rb;
  ASSERT_EQ(firstTrigger(rb, {{4.0, 1.0}, {4.0, 1.0}, {4.0, 1.0}}), 3);
  // Elastic shrink to 1 piece: the old times describe a different machine.
  rb.observe("l", {1.0});
  EXPECT_FALSE(rb.shouldRebalance("l"));
  EXPECT_EQ(rb.imbalance("l"), 1.0);
}

// The noise floor is the window's own spread: an imbalance that one noisy
// launch could have drawn does not trigger, while a launch that slows every
// piece alike adds no noise at all.
TEST(Rebalancer, NoiseFloorIsTheWindowsOwnSpread) {
  Rebalancer noisy;
  // Piece 0's mean share is 4.0 / 3 = 1.33 >= 1.3, but its share ranged
  // over 1.0 .. 2.0 between launches: 1.33 - 1.0 < 1.3.
  EXPECT_EQ(firstTrigger(noisy, {{1.0, 1.0}, {1.0, 1.0}, {2.0, 0.0}}), 0);
  EXPECT_GE(noisy.imbalance("l"), 1.3);
  Rebalancer steady;
  // A steadier window of the same mean share: spread 0.1, 1.33 - 0.1 < 1.3.
  EXPECT_EQ(firstTrigger(steady, {{1.3, 0.7}, {1.4, 0.6}, {1.3, 0.7}}), 0);
  Rebalancer clear;
  // Spread 0.2 under a mean share of 1.6: 1.4 >= 1.3.
  EXPECT_EQ(firstTrigger(clear, {{1.5, 0.5}, {1.7, 0.3}, {1.6, 0.4}}), 3);

  Rebalancer slowing;
  // Shares 1.5 / 0.5 in every launch, while the machine slows 2x and 4x.
  EXPECT_EQ(firstTrigger(slowing, {{3.0, 1.0}, {6.0, 2.0}, {12.0, 4.0}}), 3);
  EXPECT_NEAR(slowing.imbalance("l"), 1.5, 1e-12);
}

// Task times (ms) recorded from the uniform test's SpMV (4 pieces x 8192
// rows, 6 nnz/row), in order from the loop's first launch. The rule before
// the measured noise floor (window means from the second launch on, bare
// trigger 1.3) rebalanced both: A after its fourth launch at 1.38, B after
// its third at 1.33 (there the same piece is slow twice in a row).
TEST(Rebalancer, RecordedUniformNoiseNeverTriggers) {
  Rebalancer a;
  EXPECT_EQ(firstTrigger(a, {{0.792, 0.818, 0.766, 0.754},
                             {1.268, 0.806, 0.770, 0.790},
                             {0.892, 1.358, 1.093, 1.103},
                             {2.555, 0.775, 0.924, 1.333}}),
            0);
  Rebalancer b;
  EXPECT_EQ(firstTrigger(b, {{1.559, 1.405, 1.394, 1.282},
                             {1.820, 1.381, 1.381, 2.219},
                             {1.346, 1.511, 1.444, 2.220}}),
            0);
}

// Task times (ms) recorded from skewed SpMVs: the skewed test's (4 pieces)
// and fig14a's (8 pieces; in its third launch every piece ran ~2x slower).
// Both must trigger as soon as a window is complete.
TEST(Rebalancer, RecordedSkewTriggersByTheThirdLaunch) {
  Rebalancer four;
  EXPECT_EQ(firstTrigger(four, {{0.1716, 0.0331, 0.0240, 0.0216},
                                {0.1496, 0.0200, 0.0115, 0.0117},
                                {0.1484, 0.0323, 0.0118, 0.0118}}),
            3);
  Rebalancer eight;
  EXPECT_EQ(
      firstTrigger(eight,
                   {{6.438, 0.538, 0.315, 0.245, 0.174, 0.194, 0.176, 0.178},
                    {7.492, 0.502, 0.314, 0.272, 0.197, 0.198, 0.175, 0.175},
                    {12.547, 1.230, 0.697, 0.646, 0.564, 0.526, 0.498,
                     0.538}}),
      3);
}

TEST(Rebalancer, EstimateWeightsSpreadsPieceTimeOverIndices) {
  World world;
  world.addRegion("R", 10);
  const Partition iter(
      "R", {IndexSet::interval(0, 5), IndexSet::interval(5, 10)});
  const std::vector<double> weights =
      Rebalancer::estimateWeights(iter, {5.0, 1.0}, 10);
  ASSERT_EQ(weights.size(), 10u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(weights[i], 1.0, 1e-12);
  for (std::size_t i = 5; i < 10; ++i) EXPECT_NEAR(weights[i], 0.2, 1e-12);
}

TEST(Rebalancer, EstimateWeightsFillsUncoveredWithMean) {
  World world;
  world.addRegion("R", 10);
  // Pieces cover only [0, 6); the tail gets the mean covered weight.
  const Partition iter(
      "R", {IndexSet::interval(0, 2), IndexSet::interval(2, 6)});
  const std::vector<double> weights =
      Rebalancer::estimateWeights(iter, {4.0, 4.0}, 10);
  // Covered: 2 indices at 2.0, 4 indices at 1.0 -> mean 8/6.
  for (std::size_t i = 6; i < 10; ++i) {
    EXPECT_NEAR(weights[i], 8.0 / 6.0, 1e-12);
  }
}

TEST(EqualBase, ResolvedOnSpmvPlanAndMissingOnForeignSymbol) {
  apps::SpmvApp::Params p;
  p.rowsPerPiece = 64;
  p.pieces = 2;
  apps::SpmvApp app(p);
  parallelize::AutoParallelizer ap(app.world());
  const parallelize::ParallelPlan plan = ap.plan(app.program());
  ASSERT_FALSE(plan.loops.empty());

  const std::string base =
      parallelize::equalBaseSymbol(plan, plan.loops[0]);
  ASSERT_FALSE(base.empty());
  bool foundEqualDef = false;
  for (const dpl::Stmt& s : plan.dpl.stmts()) {
    if (s.lhs == base) {
      EXPECT_EQ(s.rhs->kind, dpl::ExprKind::Equal);
      EXPECT_EQ(s.rhs->region, plan.loops[0].loop->iterRegion);
      foundEqualDef = true;
    }
  }
  EXPECT_TRUE(foundEqualDef);

  parallelize::PlannedLoop foreign = plan.loops[0];
  foreign.iterPartition = "no_such_symbol";
  EXPECT_EQ(parallelize::equalBaseSymbol(plan, foreign), "");
}

TEST(ProgramSurgery, WithoutDefinitionsDropsOnlyNamedSymbols) {
  dpl::Program prog;
  prog.append("A", dpl::equalOf("R"));
  prog.append("B", dpl::image(dpl::symbol("A"), "f", "S"));
  prog.append("C", dpl::symbol("B"));
  const dpl::Program cut = prog.withoutDefinitions({"A"});
  ASSERT_EQ(cut.size(), 2u);
  EXPECT_EQ(cut.stmts()[0].lhs, "B");
  EXPECT_EQ(cut.stmts()[1].lhs, "C");
}

// End-to-end: a heavily skewed SpMV must trigger at least one rebalance,
// keep every partition legal (verifyPartitions is on, and rebalances verify
// unconditionally), and keep the computed vector bitwise identical to the
// serial reference — the rebalance only moves work, never changes it.
TEST(AdaptiveSession, SkewedSpmvRebalancesAndStaysCorrect) {
  apps::SpmvApp::Params p;
  p.rowsPerPiece = 512;
  p.nnzPerRow = 6;
  p.pieces = 4;
  p.skew = 1.0;
  constexpr int kLaunches = 6;

  apps::SpmvApp reference(p);
  for (int i = 0; i < kLaunches; ++i) {
    ir::runSerial(reference.world(), reference.program());
  }

  apps::SpmvApp app(p);
  runtime::ExecOptions opts;
  opts.verifyPartitions = true;
  Session session = Session::parallelize(app.program())
                        .pieces(p.pieces)
                        .options(opts)
                        .adaptive()
                        .build(app.world());
  for (int i = 0; i < kLaunches; ++i) session.run();

  EXPECT_GE(session.rebalances(), 1u);
  EXPECT_EQ(session.executor().rebalances(), session.rebalances());
  EXPECT_GE(session.metrics().gauge("executor.rebalances").value(), 1.0);

  auto want = reference.world().region("Y").f64("val");
  auto got = app.world().region("Y").f64("val");
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i], got[i]) << "Y.val diverges at " << i;
  }

  // The rebalanced iteration partition is weighted: the heavy prefix piece
  // must have shrunk below the unweighted share.
  const std::string iterSym = session.plan().loops[0].iterPartition;
  const Partition& iter = session.partition(iterSym);
  EXPECT_LT(static_cast<Index>(iter.sub(0).size()),
            app.rows() / static_cast<Index>(p.pieces));
}

// Uniform workloads must never rebalance: the measured noise floor has to
// reject scheduler noise, which at ~1 ms tasks reaches a single launch
// imbalance of 1.8.
TEST(AdaptiveSession, UniformSpmvNeverRebalances) {
  apps::SpmvApp::Params p;
  p.rowsPerPiece = 8192;
  p.nnzPerRow = 6;
  p.pieces = 4;
  p.skew = 0;

  apps::SpmvApp app(p);
  Session session = Session::parallelize(app.program())
                        .pieces(p.pieces)
                        .adaptive()
                        .build(app.world());
  for (int i = 0; i < 6; ++i) session.run();
  EXPECT_EQ(session.rebalances(), 0u);
}

// A direct PlanExecutor with adaptive mode but no metrics registry still
// rebalances: the Rebalancer takes each launch's times from the executor.
TEST(AdaptiveSession, BareExecutorRebalancesWithoutARegistry) {
  apps::SpmvApp::Params p;
  p.rowsPerPiece = 512;
  p.nnzPerRow = 6;
  p.pieces = 4;
  p.skew = 1.0;
  apps::SpmvApp app(p);
  parallelize::AutoParallelizer ap(app.world());
  const parallelize::ParallelPlan plan = ap.plan(app.program());
  ExecOptions opts;
  opts.adaptive = true;
  ASSERT_EQ(opts.observability.metrics, nullptr);
  PlanExecutor exec(app.world(), plan, p.pieces, opts);
  for (int i = 0; i < 6; ++i) exec.run();
  EXPECT_GE(exec.rebalances(), 1u);
}

}  // namespace
}  // namespace dpart::runtime
