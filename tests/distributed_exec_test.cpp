// Differential acceptance tests for the multi-process backend
// (runtime/distributed): the same program, world and plan executed on the
// in-process thread pool and on real forked worker processes must leave
// every F64 field *bitwise* identical — including runs where a worker is
// SIGKILLed mid-step and recovery goes through checkpoint restore + elastic
// shrink, where frames are corrupted on the wire, and where a worker stops
// answering heartbeats.

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "apps/spmv.hpp"
#include "apps/stencil.hpp"
#include "parallelize/parallelize.hpp"
#include "runtime/distributed/coordinator.hpp"
#include "runtime/executor.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"

namespace dpart {
namespace {

// TSan cannot follow a fork() that then starts threads: the worker's
// heartbeat thread collides with the cloned thread registry ("dup
// thread") and the child dies. Multi-process tests therefore skip under
// TSan — the plain and ASan/UBSan jobs still run them for real.
#if defined(__SANITIZE_THREAD__)
#define DPART_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DPART_TSAN 1
#endif
#endif
#if defined(DPART_TSAN)
#define DPART_SKIP_UNDER_TSAN() \
  GTEST_SKIP() << "fork-based backend unsupported under TSan"
#else
#define DPART_SKIP_UNDER_TSAN() (void)0
#endif

namespace fs = std::filesystem;

using region::FieldType;
using region::Index;
using region::World;
using runtime::ExecBackend;
using runtime::ExecOptions;
using runtime::PlanExecutor;

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

void expectWorldsBitwiseEqual(World& want, World& got) {
  for (const std::string& rn : want.regionNames()) {
    for (const std::string& fn : want.region(rn).fieldNames()) {
      if (want.region(rn).fieldType(fn) != FieldType::F64) continue;
      auto a = want.region(rn).f64(fn);
      auto b = got.region(rn).f64(fn);
      ASSERT_EQ(a.size(), b.size()) << rn << "." << fn;
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
                  std::bit_cast<std::uint64_t>(b[i]))
            << rn << "." << fn << "[" << i << "] " << a[i] << " != " << b[i];
      }
    }
  }
}

ExecOptions backendOptions(ExecBackend backend) {
  ExecOptions o;
  // One pool thread: the multi-process coordinator forks, and the
  // differential partner should share scheduling behavior anyway — the
  // comparison is about the backends, not the pool.
  o.threads = 1;
  o.distributed.backend = backend;
  return o;
}

/// Mixed-strategy pipeline on small regions (same shapes as the
/// elastic-shrink tests: f = i/3 onto S, ops bitwise shrink-safe).
void buildPipelineWorld(World& w, std::uint64_t seed) {
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
  w.defineAffineFn("g", "R", "S", [nS](Index i) { return (i / 3 + 5) % nS; });
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

void runSteps(World& w, const ir::Program& prog, std::size_t pieces,
              ExecOptions opts, int steps = kSteps) {
  parallelize::AutoParallelizer ap(w);
  parallelize::ParallelPlan plan = ap.plan(prog);
  PlanExecutor exec(w, plan, pieces, std::move(opts));
  for (int s = 0; s < steps; ++s) exec.run();
}

TEST(DistributedExec, PipelineMatchesInProcessBitwise) {
  DPART_SKIP_UNDER_TSAN();
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    World inproc;
    buildPipelineWorld(inproc, seed);
    runSteps(inproc, makePipeline(), kPieces,
             backendOptions(ExecBackend::InProcess));

    World multi;
    buildPipelineWorld(multi, seed);
    runSteps(multi, makePipeline(), kPieces,
             backendOptions(ExecBackend::MultiProcess));

    expectWorldsBitwiseEqual(inproc, multi);
  }
}

TEST(DistributedExec, SkewedSpmvMatchesInProcessBitwise) {
  DPART_SKIP_UNDER_TSAN();
  apps::SpmvApp::Params p;
  p.rowsPerPiece = 96;
  p.nnzPerRow = 5;
  p.pieces = kPieces;
  p.skew = 1.2;  // heavy prefix rows: uneven refresh slices per piece

  apps::SpmvApp inproc(p);
  runSteps(inproc.world(), inproc.program(), kPieces,
           backendOptions(ExecBackend::InProcess));

  apps::SpmvApp multi(p);
  runSteps(multi.world(), multi.program(), kPieces,
           backendOptions(ExecBackend::MultiProcess));

  expectWorldsBitwiseEqual(inproc.world(), multi.world());
}

TEST(DistributedExec, StencilMatchesInProcessBitwise) {
  DPART_SKIP_UNDER_TSAN();
  apps::StencilApp::Params p;
  p.rowsPerPiece = 12;
  p.cols = 24;
  p.pieces = kPieces;

  apps::StencilApp inproc(p);
  runSteps(inproc.world(), inproc.program(), kPieces,
           backendOptions(ExecBackend::InProcess));

  apps::StencilApp multi(p);
  runSteps(multi.world(), multi.program(), kPieces,
           backendOptions(ExecBackend::MultiProcess));

  expectWorldsBitwiseEqual(inproc.world(), multi.world());
}

/// The headline recovery differential: node 2's worker process is really
/// SIGKILLed mid-run (second launch), the coordinator escalates it as
/// NodeLossError, and the executor recovers through checkpoint restore +
/// elastic shrink to kPieces - 1 — finishing bitwise identical to a
/// fault-free run at the surviving piece count, under the partition
/// legality verifier.
TEST(DistributedExec, WorkerSigkillMidRunRecoversBitwise) {
  DPART_SKIP_UNDER_TSAN();
  const std::uint64_t seed = 7;

  World clean;
  buildPipelineWorld(clean, seed);
  runSteps(clean, makePipeline(), kPieces - 1,
           backendOptions(ExecBackend::InProcess));

  TempDir ckpt("dist_kill");
  World faulty;
  buildPipelineWorld(faulty, seed);
  const ir::Program prog = makePipeline();
  parallelize::AutoParallelizer ap(faulty);
  parallelize::ParallelPlan plan = ap.plan(prog);

  FaultInjector inj(seed);
  FaultSpec loss;
  loss.kind = FaultKind::PermanentCrash;
  loss.afterArrivals = 5;  // node 2's 5th launch: mid second exec.run()
  loss.maxFires = 1;
  inj.arm("node:2", loss);

  ExecOptions opts = backendOptions(ExecBackend::MultiProcess);
  opts.verifyPartitions = true;
  opts.resilience.faultInjector = &inj;
  opts.checkpoint.dir = ckpt.str();
  PlanExecutor exec(faulty, plan, kPieces, opts);
  for (int s = 0; s < kSteps; ++s) exec.run();

  EXPECT_EQ(inj.totalFires(), 1u);
  EXPECT_EQ(exec.checkpointRestores(), 1u);
  EXPECT_EQ(exec.elasticShrinks(), 1u);
  EXPECT_EQ(exec.pieces(), kPieces - 1);
  expectWorldsBitwiseEqual(clean, faulty);
}

/// A worker that stops answering heartbeats (SIGSTOP: the process is alive
/// but silent) is SIGKILLed by the coordinator and escalated exactly like a
/// permanent node crash.
TEST(DistributedExec, HeartbeatTimeoutEscalatesAsNodeLoss) {
  DPART_SKIP_UNDER_TSAN();
  World w;
  buildPipelineWorld(w, 11);
  const ir::Program prog = makePipeline();
  parallelize::AutoParallelizer ap(w);
  parallelize::ParallelPlan plan = ap.plan(prog);

  ExecOptions opts = backendOptions(ExecBackend::MultiProcess);
  opts.distributed.heartbeatIntervalMicros = 5'000;
  opts.distributed.heartbeatTimeoutMicros = 200'000;
  PlanExecutor exec(w, plan, kPieces, opts);
  exec.run();  // healthy step; the fleet is now up
  ASSERT_NE(exec.coordinator(), nullptr);
  const pid_t victim = exec.coordinator()->workerPid(1);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGSTOP), 0);

  try {
    exec.runLoop(plan.loops[0]);
    FAIL() << "silent worker did not escalate";
  } catch (const runtime::NodeLossError& e) {
    EXPECT_EQ(e.node(), 1u);
    EXPECT_NE(std::string(e.what()).find("heartbeat"), std::string::npos);
  }
  // The coordinator SIGKILLed and reaped the stopped process; its pid slot
  // is cleared.
  EXPECT_EQ(exec.coordinator()->workerPid(1), -1);
}

/// A frame corrupted on the wire (injected "net:" Poison site) makes the
/// worker reject it by CRC and die; the coordinator respawns it with capped
/// exponential backoff routed through the sleep hook, resends, and the run
/// completes bitwise identical to a clean one.
TEST(DistributedExec, WireCorruptionRecoversViaReconnect) {
  DPART_SKIP_UNDER_TSAN();
  const std::uint64_t seed = 13;
  World clean;
  buildPipelineWorld(clean, seed);
  runSteps(clean, makePipeline(), kPieces,
           backendOptions(ExecBackend::InProcess));

  World faulty;
  buildPipelineWorld(faulty, seed);
  const ir::Program prog = makePipeline();
  parallelize::AutoParallelizer ap(faulty);
  parallelize::ParallelPlan plan = ap.plan(prog);

  FaultInjector inj(seed);
  FaultSpec poison;
  poison.kind = FaultKind::Poison;
  poison.maxFires = 1;
  inj.arm("net:gather:1", poison);

  std::vector<std::uint64_t> sleeps;
  MetricsRegistry metrics;
  ExecOptions opts = backendOptions(ExecBackend::MultiProcess);
  opts.resilience.faultInjector = &inj;
  opts.resilience.sleepMicros = [&sleeps](std::uint64_t us) {
    sleeps.push_back(us);
  };
  opts.observability.metrics = &metrics;
  opts.distributed.reconnectBackoffMicros = 1'000;
  opts.distributed.maxBackoffMicros = 3'000;
  PlanExecutor exec(faulty, plan, kPieces, opts);
  for (int s = 0; s < kSteps; ++s) exec.run();

  EXPECT_EQ(inj.totalFires(), 1u);
  EXPECT_GE(metrics.counter("executor.net.reconnectsTotal").value(), 1u);
  // The reconnect backoff went through the hook (no real sleeping), with
  // the capped exponential schedule's base as its first value.
  ASSERT_FALSE(sleeps.empty());
  EXPECT_EQ(sleeps.front(), 1'000u);
  for (std::uint64_t us : sleeps) EXPECT_LE(us, 3'000u);
  expectWorldsBitwiseEqual(clean, faulty);
}

/// Exhausting maxReconnects escalates to NodeLossError carrying the node id
/// (here: every resend is corrupted again).
TEST(DistributedExec, ReconnectExhaustionEscalates) {
  DPART_SKIP_UNDER_TSAN();
  World w;
  buildPipelineWorld(w, 17);
  const ir::Program prog = makePipeline();
  parallelize::AutoParallelizer ap(w);
  parallelize::ParallelPlan plan = ap.plan(prog);

  FaultInjector inj(17);
  FaultSpec poison;
  poison.kind = FaultKind::Poison;
  poison.probability = 1.0;  // every dispatch to this worker is corrupted
  inj.arm("net:centered:2", poison);

  ExecOptions opts = backendOptions(ExecBackend::MultiProcess);
  opts.resilience.faultInjector = &inj;
  opts.resilience.sleepMicros = [](std::uint64_t) {};
  opts.distributed.maxReconnects = 2;
  PlanExecutor exec(w, plan, kPieces, opts);

  try {
    exec.run();
    FAIL() << "endless corruption did not escalate";
  } catch (const runtime::NodeLossError& e) {
    EXPECT_EQ(e.node(), 2u);
    EXPECT_NE(std::string(e.what()).find("reconnect"), std::string::npos);
  }
}

/// What one backend reports after running the pipeline under a fault
/// schedule.
struct FaultRun {
  std::size_t replays = 0;
  std::uint64_t stallMicros = 0;
  std::size_t bufferedElements = 0;
  std::uint64_t taskFailures = 0;       ///< errorsTotal{kind=TaskFailure}
  std::vector<std::string> replayArgs;  ///< args of each task.replay instant
  bool escalated = false;               ///< the run threw TaskFailure
  std::string escalatedSite;
  int escalatedAttempt = -1;
};

/// Runs kSteps steps of the pipeline on `backend` with task replay on, the
/// faults `arm` sets up, an enabled Tracer and a MetricsRegistry.
FaultRun runUnderFaults(World& w, ExecBackend backend, std::uint64_t seed,
                        const std::function<void(FaultInjector&)>& arm) {
  const ir::Program prog = makePipeline();
  parallelize::AutoParallelizer ap(w);
  parallelize::ParallelPlan plan = ap.plan(prog);
  FaultInjector inj(seed);
  arm(inj);
  Tracer tracer;
  tracer.enable();
  MetricsRegistry metrics;
  ExecOptions opts = backendOptions(backend);
  opts.verifyPartitions = true;
  opts.resilience.faultInjector = &inj;
  opts.resilience.taskReplay = true;
  opts.resilience.sleepMicros = [](std::uint64_t) {};
  opts.observability.tracer = &tracer;
  opts.observability.metrics = &metrics;

  FaultRun out;
  {
    PlanExecutor exec(w, plan, kPieces, opts);
    try {
      for (int s = 0; s < kSteps; ++s) exec.run();
    } catch (const TaskFailure& failure) {
      out.escalated = true;
      out.escalatedSite = failure.context().site;
      out.escalatedAttempt = failure.context().attempt;
    }
    out.replays = exec.taskReplays();
    out.stallMicros = exec.injectedStallMicros();
    out.bufferedElements = exec.bufferedElements();
  }
  out.taskFailures =
      metrics.counter("errorsTotal", {{"kind", "TaskFailure"}}).value();
  for (const TraceEvent& e : tracer.events()) {
    if (e.phase == TraceEvent::Phase::Instant && e.name == "task.replay") {
      out.replayArgs.push_back(e.args);
    }
  }
  // In-process tasks may replay concurrently; compare as a set.
  std::sort(out.replayArgs.begin(), out.replayArgs.end());
  return out;
}

void expectSameFaultRun(const FaultRun& inproc, const FaultRun& multi) {
  EXPECT_EQ(inproc.replays, multi.replays);
  EXPECT_EQ(inproc.stallMicros, multi.stallMicros);
  EXPECT_EQ(inproc.bufferedElements, multi.bufferedElements);
  EXPECT_EQ(inproc.taskFailures, multi.taskFailures);
  EXPECT_EQ(inproc.replayArgs, multi.replayArgs);
  EXPECT_EQ(inproc.escalated, multi.escalated);
  EXPECT_EQ(inproc.escalatedSite, multi.escalatedSite);
  EXPECT_EQ(inproc.escalatedAttempt, multi.escalatedAttempt);
}

/// One fault schedule takes the same path on both backends: the same
/// replay, stall, buffer and error tallies and the same task.replay
/// instants, and, where the run completes, fields bitwise identical to each
/// other and to a fault-free run.
TEST(DistributedExec, TaskReplayOnDistributedBackend) {
  DPART_SKIP_UNDER_TSAN();
  const std::uint64_t seed = 23;
  FaultSpec straggler;
  straggler.kind = FaultKind::Straggler;
  straggler.stragglerMicros = 10;
  straggler.maxFires = 1;

  // Recovering: gather:0 crashes twice and replays; a task of the psplit
  // loop, which merges reduction buffers, straggles.
  {
    auto arm = [&](FaultInjector& inj) {
      FaultSpec crash;
      crash.kind = FaultKind::Crash;
      crash.maxFires = 2;
      inj.arm("task:gather:0", crash);
      inj.arm("task:psplit:1", straggler);
    };
    World clean;
    buildPipelineWorld(clean, seed);
    runSteps(clean, makePipeline(), kPieces,
             backendOptions(ExecBackend::InProcess));

    World inprocWorld;
    buildPipelineWorld(inprocWorld, seed);
    const FaultRun inproc =
        runUnderFaults(inprocWorld, ExecBackend::InProcess, seed, arm);
    World multiWorld;
    buildPipelineWorld(multiWorld, seed);
    const FaultRun multi =
        runUnderFaults(multiWorld, ExecBackend::MultiProcess, seed, arm);

    EXPECT_FALSE(inproc.escalated);
    EXPECT_EQ(inproc.replays, 2u);
    EXPECT_EQ(inproc.stallMicros, 10u);
    EXPECT_GT(inproc.bufferedElements, 0u);
    EXPECT_EQ(inproc.taskFailures, 2u);
    ASSERT_EQ(inproc.replayArgs.size(), 2u);
    EXPECT_NE(inproc.replayArgs[0].find("\"fault_site\":\"task:gather:0\""),
              std::string::npos)
        << inproc.replayArgs[0];
    expectSameFaultRun(inproc, multi);
    expectWorldsBitwiseEqual(clean, multiWorld);
    expectWorldsBitwiseEqual(inprocWorld, multiWorld);
  }

  // Exhausting: gather:0 straggles, then gather:1 crashes on every attempt.
  // With no checkpoint to restore, both backends escalate TaskFailure once
  // maxTaskRetries replays are spent, and keep the replays and the stall.
  {
    auto arm = [&](FaultInjector& inj) {
      FaultSpec crash;
      crash.kind = FaultKind::Crash;
      inj.arm("task:gather:0", straggler);
      inj.arm("task:gather:1", crash);
    };
    World inprocWorld;
    buildPipelineWorld(inprocWorld, seed);
    const FaultRun inproc =
        runUnderFaults(inprocWorld, ExecBackend::InProcess, seed, arm);
    World multiWorld;
    buildPipelineWorld(multiWorld, seed);
    const FaultRun multi =
        runUnderFaults(multiWorld, ExecBackend::MultiProcess, seed, arm);

    EXPECT_TRUE(inproc.escalated);
    EXPECT_EQ(inproc.escalatedSite, "task:gather:1");
    EXPECT_EQ(inproc.escalatedAttempt, 3);
    EXPECT_EQ(inproc.replays, 3u);
    EXPECT_EQ(inproc.stallMicros, 10u);
    EXPECT_EQ(inproc.taskFailures, 4u);
    EXPECT_EQ(inproc.replayArgs.size(), 3u);
    expectSameFaultRun(inproc, multi);
  }
}

/// Pins the ghost exchange at `distributed_demo --model-error --steps 4`'s
/// sizes: the last launch of the stencil's apply_stencil refreshes 768
/// elements in 4 messages, while add_back and SpMV ship nothing.
TEST(DistributedExec, GhostTrafficAtModelErrorDemoSizes) {
  DPART_SKIP_UNDER_TSAN();
  using Traffic = std::pair<std::uint64_t, std::uint64_t>;  // elems, msgs
  auto lastGhost = [](World& w, const parallelize::ParallelPlan& plan) {
    PlanExecutor exec(w, plan, kPieces,
                      backendOptions(ExecBackend::MultiProcess));
    for (int s = 0; s < 4; ++s) exec.run();
    return exec.coordinator()->lastGhostTraffic();
  };

  apps::StencilApp::Params sp;
  sp.rowsPerPiece = 64;
  sp.cols = 64;
  sp.pieces = kPieces;
  apps::StencilApp stencil(sp);
  const auto stencilGhost =
      lastGhost(stencil.world(), stencil.autoSetup().plan);
  EXPECT_EQ(stencilGhost.at("apply_stencil"), Traffic(768, 4));
  EXPECT_EQ(stencilGhost.at("add_back"), Traffic(0, 0));

  apps::SpmvApp::Params mp;
  mp.rowsPerPiece = 256;
  mp.nnzPerRow = 5;
  mp.pieces = kPieces;
  mp.skew = 1.2;
  apps::SpmvApp spmv(mp);
  const auto spmvGhost = lastGhost(spmv.world(), spmv.autoSetup().plan);
  EXPECT_EQ(spmvGhost.at("spmv"), Traffic(0, 0));
}

/// A worker's Result comes off the wire, so its write-back slices and
/// buffered contributions may name indices outside their columns. Both are
/// rejected before a single cell is written.
TEST(DistributedExec, OutOfRangeSliceAndContributionAreRejected) {
  World w;
  w.addRegion("R", 16).addField("v", FieldType::F64);
  auto column = w.region("R").f64("v");
  for (std::size_t i = 0; i < column.size(); ++i) {
    column[i] = static_cast<double>(i);
  }
  const std::vector<double> before(column.begin(), column.end());

  const runtime::FieldSlice slice{"R", "v", region::IndexSet::interval(14, 20),
                                  std::vector<double>(6, -1.0)};
  EXPECT_THROW(runtime::applySlice(w, slice), Error);

  ir::LoopBuilder b("scatter", "i", "R");
  b.loadF64("x", "R", "v", "i");
  b.reduce("R", "v", "i", "x");
  const ir::Loop loop = b.build();
  parallelize::PlannedLoop planned;
  planned.loop = &loop;
  const int reduceId = loop.body[1].id;
  // The in-range entry of the first piece must not land either.
  const std::vector<std::vector<runtime::ReduceSlice>> pieces = {
      {runtime::ReduceSlice{reduceId, 0, {{3, 100.0}}}},
      {runtime::ReduceSlice{reduceId, 0, {{5, 1.0}, {16, 1.0}}}},
  };
  EXPECT_THROW((void)runtime::mergeBuffered(w, planned, pieces), Error);

  EXPECT_EQ(std::vector<double>(column.begin(), column.end()), before);
}

}  // namespace
}  // namespace dpart
