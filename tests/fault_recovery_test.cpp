// The PR's acceptance test: randomized crash-recovery differential runs.
// Each generated program executes once fault-free and once under injected
// task faults (crashes mid-task, poisoned results, stragglers) with
// bounded-retry replay enabled; final region contents must be *bitwise*
// identical, across all four reduction strategies (Direct, Guarded,
// Buffered, PrivateSplit), and the partition legality verifier must pass
// after every replay.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <set>
#include <string>

#include "parallelize/parallelize.hpp"
#include "runtime/executor.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"

namespace dpart {
namespace {

using optimize::ReduceStrategy;
using region::FieldType;
using region::Index;
using region::World;

constexpr int kSteps = 2;

// Randomized sizes and field contents; region shapes keep f = i/3 exactly
// onto [0, |S|).
void buildWorld(World& w, std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const Index nS = 12 + static_cast<Index>(rng.below(9));
  const Index nR = 3 * nS;
  region::Region& r = w.addRegion("R", nR);
  r.addField("val", FieldType::F64);
  r.addField("tmp", FieldType::F64);
  region::Region& s = w.addRegion("S", nS);
  s.addField("acc", FieldType::F64);
  s.addField("acc2", FieldType::F64);
  w.defineAffineFn("f", "R", "S", [](Index i) { return i / 3; });
  w.defineAffineFn("g", "R", "S",
                   [nS](Index i) { return (i / 3 + 5) % nS; });
  for (const char* field : {"val", "tmp"}) {
    auto col = w.region("R").f64(field);
    for (std::size_t i = 0; i < col.size(); ++i) {
      col[i] = double(rng.range(-50, 50)) * 0.5;
    }
  }
  for (const char* field : {"acc", "acc2"}) {
    auto col = w.region("S").f64(field);
    for (std::size_t i = 0; i < col.size(); ++i) {
      col[i] = double(rng.range(-10, 10));
    }
  }
}

ir::ReduceOp opFor(std::uint64_t seed) {
  static constexpr ir::ReduceOp kOps[] = {ir::ReduceOp::Sum,
                                          ir::ReduceOp::Min,
                                          ir::ReduceOp::Max};
  return kOps[seed % 3];
}

// The single-loop shape from reduce_strategies_test, whose strategy the
// optimizer picks deterministically: one uncentered reduction (relaxable ->
// Guarded), optionally store-blocked (-> Direct), optionally through a
// second function (blocked -> PrivateSplit; with optimizations off ->
// Buffered).
ir::Program makeStrategyProgram(std::uint64_t seed, bool blockRelaxation,
                                bool twoReductions) {
  const ir::ReduceOp op = opFor(seed);
  ir::Program prog;
  prog.name = "strategy";
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

// A multi-loop integration program: a centered copy plus three scatter
// loops whose partition symbols unify across loops. Exercises replay with
// several loop launches per step. Every iteration partition it gets is
// disjoint, so no ownership guard runs here; ReduceStrategies.
// OwnershipGuardsApplyDuplicatedCenteredWritesOnce covers those.
ir::Program makeIntegrationProgram(std::uint64_t seed) {
  const ir::ReduceOp op1 = opFor(seed);
  const ir::ReduceOp op2 = opFor(seed / 3);
  ir::Program prog;
  prog.name = "resilience";
  {
    ir::LoopBuilder b("centered", "i", "R");
    b.loadF64("x", "R", "val", "i");
    b.store("R", "tmp", "i", "x");
    prog.loops.push_back(b.build());
  }
  {
    ir::LoopBuilder b("gather", "i", "R");
    b.loadF64("x", "R", "val", "i");
    b.apply("j", "g", "i");
    b.reduce("S", "acc", "j", "x", op1);
    prog.loops.push_back(b.build());
  }
  {
    ir::LoopBuilder b("blocked", "i", "R");
    b.loadF64("x", "R", "val", "i");
    b.apply("j", "f", "i");
    b.reduce("S", "acc2", "j", "x", op2);
    b.store("R", "val", "i", "x");
    prog.loops.push_back(b.build());
  }
  {
    ir::LoopBuilder b("psplit", "i", "R");
    b.loadF64("x", "R", "tmp", "i");
    b.apply("j", "f", "i");
    b.reduce("S", "acc2", "j", "x", op1);
    b.apply("j2", "g", "i");
    b.reduce("S", "acc2", "j2", "x", op1);
    b.store("R", "tmp", "i", "x");
    prog.loops.push_back(b.build());
  }
  return prog;
}

void expectBitwiseEqual(World& want, World& got, const std::string& region,
                        const char* field) {
  auto a = want.region(region).f64(field);
  auto b = got.region(region).f64(field);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << region << "." << field << "[" << i << "] " << a[i]
        << " != " << b[i];
  }
}

// Runs `prog` once fault-free and once under injected faults with replay
// enabled; asserts replays actually happened, partitions stay legal, and
// every field ends bitwise identical. `poisonLoop` pins one deterministic
// Poison fault so at least one replay is guaranteed.
void runDifferential(std::uint64_t seed, const ir::Program& prog,
                     const parallelize::Options& popts,
                     const std::string& poisonLoop,
                     ReduceStrategy expected) {
  const std::size_t pieces = 2 + seed % 5;

  // Reference: the same parallel plan, executed fault-free.
  World clean;
  buildWorld(clean, seed);
  parallelize::AutoParallelizer apClean(clean, popts);
  parallelize::ParallelPlan planClean = apClean.plan(prog);
  runtime::PlanExecutor cleanExec(clean, planClean, pieces);
  for (int s = 0; s < kSteps; ++s) cleanExec.run();

  // Subject: identical world, plan and piece count, but every task family
  // armed with faults and the resilient replay path enabled. maxFires=3
  // per site with maxTaskRetries=5 guarantees every task converges.
  World faulty;
  buildWorld(faulty, seed);
  parallelize::AutoParallelizer apFaulty(faulty, popts);
  parallelize::ParallelPlan plan = apFaulty.plan(prog);

  for (const auto& loop : plan.loops) {
    for (const auto& [_, rp] : loop.reduces) {
      EXPECT_EQ(rp.strategy, expected)
          << "loop '" << loop.loop->name << "' got "
          << optimize::toString(rp.strategy);
    }
  }

  FaultInjector inj(seed);
  FaultSpec crash;
  crash.kind = FaultKind::Crash;
  crash.probability = 0.5;
  crash.maxFires = 3;
  inj.arm("task:", crash);
  FaultSpec poison;  // deterministic: guarantees at least one replay
  poison.kind = FaultKind::Poison;
  poison.afterArrivals = 1;
  poison.maxFires = 1;
  inj.arm("task:" + poisonLoop + ":0", poison);
  FaultSpec slow;  // stragglers shuffle timing but must not change results
  slow.kind = FaultKind::Straggler;
  slow.probability = 0.25;
  slow.stragglerMicros = 50;
  inj.arm("task:" + poisonLoop + ":1", slow);

  std::atomic<std::uint64_t> slept{0};
  runtime::ExecOptions opts;
  opts.resilience.faultInjector = &inj;
  opts.resilience.taskReplay = true;
  opts.resilience.maxTaskRetries = 5;
  opts.resilience.retryBackoffMicros = 1;
  opts.resilience.sleepMicros = [&slept](std::uint64_t us) {
    slept.fetch_add(us, std::memory_order_relaxed);
  };
  opts.verifyPartitions = true;
  opts.validateAccesses = true;
  runtime::PlanExecutor exec(faulty, plan, pieces, opts);
  for (int s = 0; s < kSteps; ++s) exec.run();

  EXPECT_GT(inj.totalFires(), 0u);
  EXPECT_GE(exec.taskReplays(), 1u);  // the pinned poison site at least
  EXPECT_NO_THROW(exec.verifyPartitions());  // legality after all replays

  // Injected stalls are accounted separately from real work and every
  // stall/backoff went through the hook, so the test never truly sleeps.
  const std::uint64_t stalls = exec.injectedStallMicros();
  EXPECT_EQ(stalls, 50 * inj.firesAt("task:" + poisonLoop + ":1"));
  EXPECT_GE(slept.load(), stalls + exec.taskReplays());

  expectBitwiseEqual(clean, faulty, "R", "val");
  expectBitwiseEqual(clean, faulty, "R", "tmp");
  expectBitwiseEqual(clean, faulty, "S", "acc");
  expectBitwiseEqual(clean, faulty, "S", "acc2");
}

class CrashRecovery : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrashRecovery, BitwiseIdenticalUnderGuarded) {
  runDifferential(GetParam(), makeStrategyProgram(GetParam(), false, false),
                  parallelize::Options{}, "scatter",
                  ReduceStrategy::Guarded);
}

TEST_P(CrashRecovery, BitwiseIdenticalUnderDirect) {
  runDifferential(GetParam(), makeStrategyProgram(GetParam(), true, false),
                  parallelize::Options{}, "scatter", ReduceStrategy::Direct);
}

TEST_P(CrashRecovery, BitwiseIdenticalUnderPrivateSplit) {
  runDifferential(GetParam(), makeStrategyProgram(GetParam(), true, true),
                  parallelize::Options{}, "scatter",
                  ReduceStrategy::PrivateSplit);
}

TEST_P(CrashRecovery, BitwiseIdenticalUnderBuffered) {
  parallelize::Options popts;
  popts.enableRelaxation = false;
  popts.enableDisjointReduction = false;
  popts.enablePrivateSubPartitions = false;
  runDifferential(GetParam(), makeStrategyProgram(GetParam(), true, true),
                  popts, "scatter", ReduceStrategy::Buffered);
}

TEST_P(CrashRecovery, BitwiseIdenticalAcrossUnifiedLoops) {
  // Multi-loop integration: unification merges partition symbols across the
  // four loops, so the exact per-loop strategies are an optimizer decision;
  // the replay invariants must hold regardless.
  const std::uint64_t seed = GetParam();
  const ir::Program prog = makeIntegrationProgram(seed);
  const std::size_t pieces = 2 + seed % 5;

  World clean;
  buildWorld(clean, seed);
  parallelize::AutoParallelizer apClean(clean);
  parallelize::ParallelPlan planClean = apClean.plan(prog);
  runtime::PlanExecutor cleanExec(clean, planClean, pieces);
  for (int s = 0; s < kSteps; ++s) cleanExec.run();

  World faulty;
  buildWorld(faulty, seed);
  parallelize::AutoParallelizer apFaulty(faulty);
  parallelize::ParallelPlan plan = apFaulty.plan(prog);

  FaultInjector inj(seed);
  FaultSpec crash;
  crash.kind = FaultKind::Crash;
  crash.probability = 0.5;
  crash.maxFires = 3;
  inj.arm("task:", crash);
  FaultSpec poison;
  poison.kind = FaultKind::Poison;
  poison.afterArrivals = 1;
  poison.maxFires = 1;
  inj.arm("task:centered:0", poison);

  std::atomic<std::uint64_t> slept{0};
  runtime::ExecOptions opts;
  opts.resilience.faultInjector = &inj;
  opts.resilience.taskReplay = true;
  opts.resilience.maxTaskRetries = 5;
  opts.resilience.retryBackoffMicros = 1;
  opts.resilience.sleepMicros = [&slept](std::uint64_t us) {
    slept.fetch_add(us, std::memory_order_relaxed);
  };
  opts.verifyPartitions = true;
  opts.validateAccesses = true;
  runtime::PlanExecutor exec(faulty, plan, pieces, opts);
  for (int s = 0; s < kSteps; ++s) exec.run();

  EXPECT_GE(exec.taskReplays(), 1u);
  EXPECT_GE(slept.load(), exec.taskReplays());  // backoff used the hook
  EXPECT_NO_THROW(exec.verifyPartitions());
  expectBitwiseEqual(clean, faulty, "R", "val");
  expectBitwiseEqual(clean, faulty, "R", "tmp");
  expectBitwiseEqual(clean, faulty, "S", "acc");
  expectBitwiseEqual(clean, faulty, "S", "acc2");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRecovery,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace dpart
