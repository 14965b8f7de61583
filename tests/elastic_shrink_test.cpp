// Elastic-recovery acceptance tests: a node permanently lost mid-run makes
// the executor restore the latest checkpoint, shrink to the surviving piece
// count (re-evaluating the machine-size-agnostic constraint solution — no
// new solve), resume from the checkpointed launch index, and finish with
// fields *bitwise* identical to a fault-free run at the shrunken piece
// count. Bitwise comparability across piece counts requires ops whose
// application order per target is piece-count invariant: in-place Sum
// (Guarded/Direct apply ascending-i within the single owning task) and
// Min/Max anywhere (grouping-insensitive bitwise).

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "constraint/system.hpp"
#include "dpl/expr.hpp"
#include "parallelize/parallelize.hpp"
#include "runtime/executor.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"

namespace dpart {
namespace {

namespace fs = std::filesystem;

using optimize::ReduceStrategy;
using region::FieldType;
using region::Index;
using region::World;

constexpr int kSteps = 3;
constexpr std::size_t kPieces = 4;

struct TempDir {
  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("dpart_" + tag + "_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  [[nodiscard]] std::string str() const { return path.string(); }
  fs::path path;
};

// Same region shapes as fault_recovery_test: f = i/3 exactly onto [0, |S|).
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

// Single-loop scatter whose reduction strategy the optimizer picks
// deterministically (see fault_recovery_test).
ir::Program makeScatter(ir::ReduceOp op, bool blockRelaxation,
                        bool twoReductions) {
  ir::Program prog;
  prog.name = "shrink";
  ir::LoopBuilder b("scatter", "i", "R");
  b.loadF64("x", "R", "val", "i");
  b.apply("j", "f", "i");
  b.reduce("S", "acc", "j", "x", op);
  if (twoReductions) {
    b.apply("j2", "g", "i");
    b.reduce("S", "acc", "j2", "x", op);
  }
  if (blockRelaxation) {
    b.store("R", "val", "i", "x");
  }
  prog.loops.push_back(b.build());
  return prog;
}

// Multi-loop pipeline mixing all strategies with shrink-safe ops: centered
// copy, Guarded Sum, Direct Sum, PrivateSplit Min.
ir::Program makePipeline() {
  ir::Program prog;
  prog.name = "pipeline";
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
    b.reduce("S", "acc", "j", "x", ir::ReduceOp::Sum);
    prog.loops.push_back(b.build());
  }
  {
    ir::LoopBuilder b("blocked", "i", "R");
    b.loadF64("x", "R", "val", "i");
    b.apply("j", "f", "i");
    b.reduce("S", "acc2", "j", "x", ir::ReduceOp::Sum);
    b.store("R", "val", "i", "x");
    prog.loops.push_back(b.build());
  }
  {
    ir::LoopBuilder b("psplit", "i", "R");
    b.loadF64("x", "R", "tmp", "i");
    b.apply("j", "f", "i");
    b.reduce("S", "acc2", "j", "x", ir::ReduceOp::Min);
    b.apply("j2", "g", "i");
    b.reduce("S", "acc2", "j2", "x", ir::ReduceOp::Min);
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

void expectAllFieldsEqual(World& want, World& got) {
  expectBitwiseEqual(want, got, "R", "val");
  expectBitwiseEqual(want, got, "R", "tmp");
  expectBitwiseEqual(want, got, "S", "acc");
  expectBitwiseEqual(want, got, "S", "acc2");
}

/// Clean run at `pieces` pieces for kSteps steps.
void runClean(World& w, const ir::Program& prog,
              const parallelize::Options& popts, std::size_t pieces) {
  parallelize::AutoParallelizer ap(w, popts);
  parallelize::ParallelPlan plan = ap.plan(prog);
  runtime::PlanExecutor exec(w, plan, pieces);
  for (int s = 0; s < kSteps; ++s) exec.run();
}

/// Runs `prog` at kPieces with node 2 dying permanently on its second
/// launch; asserts exactly one restore + shrink and bitwise identity with a
/// fault-free run at kPieces - 1.
void runNodeLossDifferential(std::uint64_t seed, const ir::Program& prog,
                             const parallelize::Options& popts,
                             ReduceStrategy expected) {
  World clean;
  buildWorld(clean, seed);
  runClean(clean, prog, popts, kPieces - 1);

  World faulty;
  buildWorld(faulty, seed);
  parallelize::AutoParallelizer ap(faulty, popts);
  parallelize::ParallelPlan plan = ap.plan(prog);
  for (const auto& loop : plan.loops) {
    for (const auto& [_, rp] : loop.reduces) {
      EXPECT_EQ(rp.strategy, expected)
          << "loop '" << loop.loop->name << "' got "
          << optimize::toString(rp.strategy);
    }
  }

  FaultInjector inj(seed);
  FaultSpec loss;
  loss.kind = FaultKind::PermanentCrash;
  loss.afterArrivals = 2;  // node 2's second task attempt = second launch
  loss.maxFires = 1;
  inj.arm("node:2", loss);

  TempDir dir("shrink");
  runtime::ExecOptions opts;
  opts.resilience.faultInjector = &inj;
  opts.checkpoint.dir = dir.str();
  opts.checkpoint.everyNLaunches = 1;
  opts.verifyPartitions = true;
  opts.validateAccesses = true;
  runtime::PlanExecutor exec(faulty, plan, kPieces, opts);
  for (int s = 0; s < kSteps; ++s) exec.run();

  EXPECT_EQ(inj.firesAt("node:2"), 1u);
  EXPECT_EQ(exec.checkpointRestores(), 1u);
  EXPECT_EQ(exec.elasticShrinks(), 1u);
  EXPECT_EQ(exec.pieces(), kPieces - 1);
  EXPECT_EQ(exec.launchesDone(),
            static_cast<std::uint64_t>(kSteps * plan.loops.size()));
  EXPECT_NO_THROW(exec.verifyPartitions());  // legality after the shrink
  expectAllFieldsEqual(clean, faulty);
}

TEST(ElasticShrink, GuardedSumBitwiseAfterNodeLoss) {
  runNodeLossDifferential(3, makeScatter(ir::ReduceOp::Sum, false, false),
                          parallelize::Options{}, ReduceStrategy::Guarded);
}

TEST(ElasticShrink, DirectSumBitwiseAfterNodeLoss) {
  runNodeLossDifferential(4, makeScatter(ir::ReduceOp::Sum, true, false),
                          parallelize::Options{}, ReduceStrategy::Direct);
}

TEST(ElasticShrink, PrivateSplitMinBitwiseAfterNodeLoss) {
  runNodeLossDifferential(5, makeScatter(ir::ReduceOp::Min, true, true),
                          parallelize::Options{},
                          ReduceStrategy::PrivateSplit);
}

TEST(ElasticShrink, BufferedMaxBitwiseAfterNodeLoss) {
  parallelize::Options popts;
  popts.enableRelaxation = false;
  popts.enableDisjointReduction = false;
  popts.enablePrivateSubPartitions = false;
  runNodeLossDifferential(6, makeScatter(ir::ReduceOp::Max, true, true),
                          popts, ReduceStrategy::Buffered);
}

TEST(ElasticShrink, MultiLoopPipelineResumesMidStep) {
  const std::uint64_t seed = 11;
  const ir::Program prog = makePipeline();

  World clean;
  buildWorld(clean, seed);
  runClean(clean, prog, parallelize::Options{}, kPieces - 1);

  World faulty;
  buildWorld(faulty, seed);
  parallelize::AutoParallelizer ap(faulty);
  parallelize::ParallelPlan plan = ap.plan(prog);

  FaultInjector inj(seed);
  FaultSpec loss;
  loss.kind = FaultKind::PermanentCrash;
  // Node 2's 7th task attempt: launch 6 of 12 = loop 2 of step 1, so the
  // restore rewinds into the middle of a step and must resume with the
  // right loop of the right step.
  loss.afterArrivals = 7;
  loss.maxFires = 1;
  inj.arm("node:2", loss);

  TempDir dir("pipeline");
  runtime::ExecOptions opts;
  opts.resilience.faultInjector = &inj;
  opts.checkpoint.dir = dir.str();
  opts.checkpoint.everyNLaunches = 2;  // restore rolls back up to 2 launches
  opts.verifyPartitions = true;
  opts.validateAccesses = true;
  runtime::PlanExecutor exec(faulty, plan, kPieces, opts);
  for (int s = 0; s < kSteps; ++s) exec.run();

  EXPECT_EQ(inj.firesAt("node:2"), 1u);
  EXPECT_EQ(exec.checkpointRestores(), 1u);
  EXPECT_EQ(exec.elasticShrinks(), 1u);
  EXPECT_NO_THROW(exec.verifyPartitions());
  expectAllFieldsEqual(clean, faulty);
}

TEST(ElasticShrink, RetryExhaustionEscalatesToNodeLoss) {
  const std::uint64_t seed = 42;
  const ir::Program prog = makeScatter(ir::ReduceOp::Sum, false, false);

  World clean;
  buildWorld(clean, seed);
  runClean(clean, prog, parallelize::Options{}, kPieces - 1);

  World faulty;
  buildWorld(faulty, seed);
  parallelize::AutoParallelizer ap(faulty);
  parallelize::ParallelPlan plan = ap.plan(prog);

  FaultInjector inj(seed);
  FaultSpec crash;  // fails attempts 0 and 1 back to back: replay exhausted
  crash.kind = FaultKind::Crash;
  crash.probability = 1.0;
  crash.maxFires = 2;
  inj.arm("task:scatter:1", crash);

  TempDir dir("exhaust");
  std::atomic<std::uint64_t> slept{0};
  runtime::ExecOptions opts;
  opts.resilience.faultInjector = &inj;
  opts.resilience.taskReplay = true;
  opts.resilience.maxTaskRetries = 1;
  opts.resilience.retryBackoffMicros = 200000;  // 200ms: must go through the hook
  opts.resilience.sleepMicros = [&slept](std::uint64_t us) {
    slept.fetch_add(us, std::memory_order_relaxed);
  };
  opts.checkpoint.dir = dir.str();
  opts.verifyPartitions = true;
  runtime::PlanExecutor exec(faulty, plan, kPieces, opts);
  for (int s = 0; s < kSteps; ++s) exec.run();

  // One in-place replay (attempt 1) before escalation, then the restore
  // declares piece 1's host dead and shrinks.
  EXPECT_GE(exec.taskReplays(), 1u);
  EXPECT_EQ(exec.checkpointRestores(), 1u);
  EXPECT_EQ(exec.elasticShrinks(), 1u);
  EXPECT_EQ(exec.pieces(), kPieces - 1);
  EXPECT_GE(slept.load(), 200000u) << "backoff bypassed the sleep hook";
  expectAllFieldsEqual(clean, faulty);
}

TEST(ElasticShrink, LoopFaultRestoresWithoutShrink) {
  const std::uint64_t seed = 8;
  const ir::Program prog = makeScatter(ir::ReduceOp::Sum, false, false);

  // No node died, so the reference runs at the FULL piece count.
  World clean;
  buildWorld(clean, seed);
  runClean(clean, prog, parallelize::Options{}, kPieces);

  World faulty;
  buildWorld(faulty, seed);
  parallelize::AutoParallelizer ap(faulty);
  parallelize::ParallelPlan plan = ap.plan(prog);

  FaultInjector inj(seed);
  FaultSpec crash;
  crash.kind = FaultKind::Crash;
  crash.afterArrivals = 2;  // second launch dies at the launch level
  crash.maxFires = 1;
  inj.arm("loop:scatter", crash);

  TempDir dir("loopfault");
  runtime::ExecOptions opts;
  opts.resilience.faultInjector = &inj;
  opts.checkpoint.dir = dir.str();
  opts.verifyPartitions = true;
  runtime::PlanExecutor exec(faulty, plan, kPieces, opts);
  for (int s = 0; s < kSteps; ++s) exec.run();

  EXPECT_EQ(exec.checkpointRestores(), 1u);
  EXPECT_EQ(exec.elasticShrinks(), 0u) << "no node was lost";
  EXPECT_EQ(exec.pieces(), kPieces);
  expectAllFieldsEqual(clean, faulty);
}

// An externally bound pair (DESIGN.md §8): S cut into `pieces` contiguous
// blocks "pS", and R cut into blocks "pR" that f (i / 3) maps exactly onto
// them.
region::Partition externalBlocks(const World& w, const std::string& name,
                                 std::size_t pieces) {
  const Index nS = w.region("S").size();
  const Index scale = name == "pR" ? 3 : 1;
  std::vector<region::IndexSet> subs;
  for (std::size_t j = 0; j < pieces; ++j) {
    const Index lo = static_cast<Index>(j) * nS / static_cast<Index>(pieces);
    const Index hi =
        static_cast<Index>(j + 1) * nS / static_cast<Index>(pieces);
    subs.push_back(region::IndexSet::interval(scale * lo, scale * hi));
  }
  return region::Partition(name == "pR" ? "R" : "S", std::move(subs));
}

/// The scatter planned against the external pair; the planner derives its
/// iteration partition as preimage(R, f, pS), so pS is the one it binds.
parallelize::ParallelPlan planOverExternals(World& w,
                                            const ir::Program& prog) {
  constraint::System ext;
  ext.declareSymbol("pR", "R", /*fixed=*/true);
  ext.declareSymbol("pS", "S", /*fixed=*/true);
  ext.addSubset(dpl::image(dpl::symbol("pR"), "f", "S"), dpl::symbol("pS"));
  ext.addComp(dpl::symbol("pR"), "R");
  ext.addDisj(dpl::symbol("pR"));
  ext.addComp(dpl::symbol("pS"), "S");
  ext.addDisj(dpl::symbol("pS"));
  parallelize::AutoParallelizer ap(w);
  ap.addExternalConstraint(ext);
  return ap.plan(prog);
}

void bindExternalBlocks(runtime::PlanExecutor& exec, const World& w,
                        const parallelize::ParallelPlan& plan,
                        std::size_t pieces) {
  for (const std::string& name : plan.externalSymbols) {
    exec.bindExternal(name, externalBlocks(w, name, pieces));
  }
}

/// Runs the external-partition scatter at kPieces with node 2 dying
/// permanently on its second launch, rebinding the externals with
/// `rebind` (empty: no CheckpointOptions::externalRebind); asserts exactly
/// one restore + shrink.
void runExternalNodeLoss(
    World& w, const ir::Program& prog,
    std::function<region::Partition(const std::string&, std::size_t)>
        rebind) {
  const parallelize::ParallelPlan plan = planOverExternals(w, prog);
  ASSERT_TRUE(plan.externalSymbols.contains("pS"));

  FaultInjector inj(17);
  FaultSpec loss;
  loss.kind = FaultKind::PermanentCrash;
  loss.afterArrivals = 2;
  loss.maxFires = 1;
  inj.arm("node:2", loss);

  TempDir dir("shrink_ext");
  runtime::ExecOptions opts;
  opts.resilience.faultInjector = &inj;
  opts.checkpoint.dir = dir.str();
  opts.checkpoint.externalRebind = std::move(rebind);
  opts.verifyPartitions = true;
  opts.validateAccesses = true;
  runtime::PlanExecutor exec(w, plan, kPieces, opts);
  bindExternalBlocks(exec, w, plan, kPieces);
  for (int s = 0; s < kSteps; ++s) exec.run();
  EXPECT_EQ(exec.checkpointRestores(), 1u);
  EXPECT_EQ(exec.elasticShrinks(), 1u);
  EXPECT_EQ(exec.pieces(), kPieces - 1);
  EXPECT_NO_THROW(exec.verifyPartitions());
}

TEST(ElasticShrink, ExternalRebindRebuildsExternalsAfterNodeLoss) {
  const std::uint64_t seed = 17;
  const ir::Program prog = makeScatter(ir::ReduceOp::Sum, false, false);

  World clean;
  buildWorld(clean, seed);
  {
    const parallelize::ParallelPlan plan = planOverExternals(clean, prog);
    runtime::PlanExecutor exec(clean, plan, kPieces - 1);
    bindExternalBlocks(exec, clean, plan, kPieces - 1);
    for (int s = 0; s < kSteps; ++s) exec.run();
  }

  World faulty;
  buildWorld(faulty, seed);
  std::size_t rebinds = 0;
  runExternalNodeLoss(faulty, prog,
                      [&](const std::string& name, std::size_t pieces) {
                        ++rebinds;
                        EXPECT_EQ(pieces, kPieces - 1);
                        return externalBlocks(faulty, name, pieces);
                      });
  EXPECT_GE(rebinds, 1u);
  expectAllFieldsEqual(clean, faulty);
}

TEST(ElasticShrink, ShrinkWithExternalsFailsWithoutExternalRebind) {
  const ir::Program prog = makeScatter(ir::ReduceOp::Sum, false, false);
  World w;
  buildWorld(w, 17);
  try {
    runExternalNodeLoss(w, prog, {});
    ADD_FAILURE() << "the restore rebound externals without externalRebind";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("CheckpointOptions::externalRebind"),
              std::string::npos)
        << e.what();
  }
}

TEST(ElasticShrink, NodeLossWithoutCheckpointsPropagates) {
  const std::uint64_t seed = 2;
  const ir::Program prog = makeScatter(ir::ReduceOp::Sum, false, false);
  World w;
  buildWorld(w, seed);
  parallelize::AutoParallelizer ap(w);
  parallelize::ParallelPlan plan = ap.plan(prog);

  FaultInjector inj(seed);
  FaultSpec loss;
  loss.kind = FaultKind::PermanentCrash;
  loss.afterArrivals = 1;
  loss.maxFires = 1;
  inj.arm("node:0", loss);

  runtime::ExecOptions opts;
  opts.resilience.faultInjector = &inj;
  opts.resilience.taskReplay = true;  // in-place replay must NOT catch a lost node
  runtime::PlanExecutor exec(w, plan, kPieces, opts);
  EXPECT_THROW(exec.run(), runtime::NodeLossError);
  EXPECT_EQ(exec.taskReplays(), 0u);
}

}  // namespace
}  // namespace dpart
