#include "runtime/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "ir/interp.hpp"
#include "parallelize/solve_cache.hpp"
#include "support/fault.hpp"
#include "support/json.hpp"

namespace dpart {
namespace {

namespace fs = std::filesystem;

constexpr region::Index kParticles = 600;
constexpr region::Index kCells = 60;

// The Figure 1 pair of loops — two launches per run(), pointer and affine
// index functions, a reduction — enough surface to exercise every traced
// layer.
void buildWorld(region::World& world) {
  auto& particles = world.addRegion("Particles", kParticles);
  auto& cells = world.addRegion("Cells", kCells);
  particles.addField("cell", region::FieldType::Idx);
  particles.addField("pos", region::FieldType::F64);
  cells.addField("vel", region::FieldType::F64);
  cells.addField("acc", region::FieldType::F64);
  auto cell = particles.idx("cell");
  for (region::Index p = 0; p < kParticles; ++p) {
    cell[static_cast<std::size_t>(p)] = (p * 13) % kCells;
  }
  auto vel = cells.f64("vel");
  auto acc = cells.f64("acc");
  for (region::Index c = 0; c < kCells; ++c) {
    vel[static_cast<std::size_t>(c)] = 0.25 * double(c % 5);
    acc[static_cast<std::size_t>(c)] = 0.125 * double(c % 3);
  }
  world.defineFieldFn("Particles", "cell", "Cells");
  world.defineAffineFn("h", "Cells", "Cells",
                       [](region::Index c) { return (c + 1) % kCells; });
}

ir::Program makeProgram() {
  ir::Program prog;
  prog.name = "session_test";
  {
    ir::LoopBuilder b("update_particles", "p", "Particles");
    b.loadIdx("c", "Particles", "cell", "p");
    b.loadF64("v1", "Cells", "vel", "c");
    b.apply("c2", "h", "c");
    b.loadF64("v2", "Cells", "vel", "c2");
    b.compute("dp", {"v1", "v2"}, [](auto v) { return v[0] + 0.5 * v[1]; });
    b.reduce("Particles", "pos", "p", "dp");
    prog.loops.push_back(b.build());
  }
  {
    ir::LoopBuilder b("update_cells", "c", "Cells");
    b.loadF64("a1", "Cells", "acc", "c");
    b.apply("c2", "h", "c");
    b.loadF64("a2", "Cells", "acc", "c2");
    b.compute("dv", {"a1", "a2"}, [](auto v) { return v[0] - v[1]; });
    b.reduce("Cells", "vel", "c", "dv");
    prog.loops.push_back(b.build());
  }
  return prog;
}

bool bitwiseEqual(region::World& a, region::World& b,
                  const std::string& regionName, const char* field) {
  auto x = a.region(regionName).f64(field);
  auto y = b.region(regionName).f64(field);
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(x[i]) !=
        std::bit_cast<std::uint64_t>(y[i])) {
      return false;
    }
  }
  return true;
}

std::set<std::string> spanNames(const Tracer& tracer) {
  std::set<std::string> names;
  for (const TraceEvent& e : tracer.events()) names.insert(e.name);
  return names;
}

/// Checks that `tracer` recorded exactly one "compile" span and that every
/// phase.* event lies inside it.
void expectOneEnclosingCompileSpan(const Tracer& tracer) {
  const std::vector<TraceEvent> events = tracer.events();
  std::size_t begins = 0;
  std::size_t open = 0;
  std::size_t close = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].name != "compile") continue;
    if (events[i].phase == TraceEvent::Phase::Begin) {
      ++begins;
      open = i;
    } else if (events[i].phase == TraceEvent::Phase::End) {
      close = i;
    }
  }
  ASSERT_EQ(begins, 1u);
  ASSERT_LT(open, close);
  std::size_t phases = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!events[i].name.starts_with("phase.")) continue;
    ++phases;
    EXPECT_GT(i, open) << events[i].name;
    EXPECT_LT(i, close) << events[i].name;
  }
  EXPECT_GT(phases, 0u);
}

TEST(Session, BuilderRequiresPieces) {
  region::World world;
  buildWorld(world);
  EXPECT_THROW((void)Session::parallelize(makeProgram()).build(world), Error);
}

// The core API-redesign guarantee: the facade is pure wiring. A Session run
// must produce bitwise-identical fields to driving AutoParallelizer and
// PlanExecutor by hand with the same options.
TEST(Session, MatchesManualWiringBitwise) {
  const ir::Program prog = makeProgram();
  constexpr std::size_t kPieces = 4;

  region::World manualWorld;
  buildWorld(manualWorld);
  runtime::ExecOptions opts;
  opts.validateAccesses = true;
  parallelize::AutoParallelizer ap(manualWorld);
  parallelize::ParallelPlan manualPlan = ap.plan(prog);
  runtime::PlanExecutor exec(manualWorld, manualPlan, kPieces, opts);
  exec.run();
  exec.run();

  region::World sessionWorld;
  buildWorld(sessionWorld);
  Session session = Session::parallelize(prog)
                        .pieces(kPieces)
                        .options(opts)
                        .run(sessionWorld);
  session.run();

  EXPECT_TRUE(bitwiseEqual(manualWorld, sessionWorld, "Particles", "pos"));
  EXPECT_TRUE(bitwiseEqual(manualWorld, sessionWorld, "Cells", "vel"));
  EXPECT_EQ(session.plan().dpl.toString(), manualPlan.dpl.toString());
  EXPECT_EQ(session.executor().launchesDone(), exec.launchesDone());
}

TEST(Session, PlansOnceAndPersistsExecutorAcrossRuns) {
  region::World world;
  buildWorld(world);
  Session session =
      Session::parallelize(makeProgram()).pieces(4).build(world);
  EXPECT_EQ(session.executor().launchesDone(), 0u);
  session.run();
  session.run();
  session.run();
  EXPECT_EQ(session.executor().launchesDone(),
            3u * session.plan().loops.size());
  EXPECT_EQ(session.stats().parallelLoops, 2);
}

TEST(Session, TraceCoversEveryLayer) {
  region::World world;
  buildWorld(world);
  Tracer sessionTracer;
  sessionTracer.enable();
  runtime::ExecOptions opts;
  opts.observability.tracer = &sessionTracer;
  Session session = Session::parallelize(makeProgram())
                        .pieces(4)
                        .options(opts)
                        .run(world);

  ASSERT_NE(session.tracer(), nullptr);
  const std::set<std::string> names = spanNames(*session.tracer());
  // Analysis phases (the paper's Table 1 rows).
  for (const char* phase : {"compile", "phase.infer", "phase.relax",
                            "phase.unify", "phase.solve", "phase.synthesize"}) {
    EXPECT_TRUE(names.contains(phase)) << "missing span " << phase;
  }
  // Runtime layer.
  for (const char* span :
       {"preparePartitions", "run", "launch:update_particles",
        "launch:update_cells", "task:update_particles", "task:update_cells"}) {
    EXPECT_TRUE(names.contains(span)) << "missing span " << span;
  }
  // DPL operator kernels: the plan for Figure 1 at least builds equal and
  // image partitions.
  EXPECT_TRUE(names.contains("dpl:equal")) << "missing dpl op span";
  EXPECT_TRUE(names.contains("dpl:image")) << "missing dpl op span";

  // The trace aggregation reconstructs per-phase totals.
  const auto totals = session.tracer()->spanTotalsMs();
  EXPECT_GE(totals.at("compile"), totals.at("phase.infer"));

  // And the whole document is valid Chrome trace JSON.
  EXPECT_NO_THROW(json::parse(session.tracer()->toChromeJson()));

  // Each CompileStats field and its span(s) bracket the same code.
  auto expectBrackets = [](double spanMs, double statMs, const char* phase) {
    EXPECT_NEAR(spanMs, statMs, std::max(0.05, 0.02 * statMs)) << phase;
  };
  const parallelize::CompileStats& st = session.stats();
  expectBrackets(totals.at("phase.infer"), st.inferMs, "infer");
  expectBrackets(totals.at("phase.unify"), st.unifyMs, "unify");
  expectBrackets(totals.at("phase.relax") + totals.at("phase.solve"),
                 st.solveMs, "relax + solve");
  expectBrackets(totals.at("phase.synthesize"), st.rewriteMs, "synthesize");

  // No SolveCache attached: the key stage never runs.
  EXPECT_FALSE(names.contains("phase.canon"));
  EXPECT_EQ(st.canonMs, 0.0);
  EXPECT_EQ(st.cacheKey, 0u);

  // Against a warm SolveCache the key stage runs and the rebind replaces
  // unify + solve: phase.canon and phase.solve, but no phase.unify.
  parallelize::SolveCache cache;
  parallelize::Options copts;
  copts.solveCache = &cache;
  (void)Session::parallelize(makeProgram())
      .pieces(4)
      .compileOptions(copts)
      .compile(world);
  Tracer tracer;
  tracer.enable();
  const Plan warm = Session::parallelize(makeProgram())
                        .pieces(4)
                        .compileOptions(copts)
                        .compile(world, &tracer);
  ASSERT_TRUE(warm.cacheHit());
  EXPECT_NE(warm.cacheKey(), 0u);
  const std::set<std::string> warmNames = spanNames(tracer);
  EXPECT_TRUE(warmNames.contains("phase.canon"));
  EXPECT_TRUE(warmNames.contains("phase.solve"));
  EXPECT_FALSE(warmNames.contains("phase.unify"));
  const auto warmTotals = tracer.spanTotalsMs();
  expectBrackets(warmTotals.at("phase.canon"), warm.stats().canonMs, "canon");
  expectBrackets(warmTotals.at("phase.relax") + warmTotals.at("phase.solve"),
                 warm.stats().solveMs, "relax + rebind");
}

// compile() on its own opens the "compile" span, so every compile path —
// the plan service included — has one around its phases.
TEST(Session, CompileAloneRecordsOneEnclosingCompileSpan) {
  region::World world;
  buildWorld(world);
  Tracer tracer;
  tracer.enable();
  (void)Session::parallelize(makeProgram()).pieces(4).compile(world, &tracer);
  expectOneEnclosingCompileSpan(tracer);
}

TEST(Session, BuildRecordsExactlyOneCompileSpan) {
  region::World world;
  buildWorld(world);
  Tracer tracer;
  tracer.enable();
  runtime::ExecOptions opts;
  opts.observability.tracer = &tracer;
  (void)Session::parallelize(makeProgram()).pieces(4).options(opts).build(
      world);
  expectOneEnclosingCompileSpan(tracer);
}

TEST(Session, MetricsPublishCompileAndExecutorGauges) {
  region::World world;
  buildWorld(world);
  Session session =
      Session::parallelize(makeProgram()).pieces(4).run(world);

  MetricsRegistry& mx = session.metrics();
  EXPECT_GE(mx.gauge("compile.inferMs").value(), 0.0);
  EXPECT_GE(mx.gauge("compile.unifyMs").value(), 0.0);
  EXPECT_GE(mx.gauge("compile.solveMs").value(), 0.0);
  EXPECT_GE(mx.gauge("compile.rewriteMs").value(), 0.0);
  EXPECT_DOUBLE_EQ(mx.gauge("compile.parallelLoops").value(), 2.0);
  EXPECT_DOUBLE_EQ(mx.gauge("executor.launchesDone").value(), 2.0);
  EXPECT_DOUBLE_EQ(mx.gauge("executor.pieces").value(), 4.0);
  EXPECT_GE(mx.gauge("dpl.op.calls", {{"op", "image"}}).value(), 1.0);
}

TEST(Session, ErrorsCarrySpanIdsAndCountIntoMetrics) {
  region::World world;
  buildWorld(world);

  FaultInjector injector(7);
  FaultSpec crash;
  crash.kind = FaultKind::Crash;
  crash.afterArrivals = 1;
  crash.maxFires = 1;
  injector.arm("task:update_particles:1", crash);

  Tracer tracer;
  tracer.enable();
  runtime::ExecOptions opts;
  opts.observability.tracer = &tracer;
  opts.resilience.taskReplay = true;
  opts.resilience.maxTaskRetries = 2;
  opts.resilience.faultInjector = &injector;
  Session session = Session::parallelize(makeProgram())
                        .pieces(4)
                        .options(opts)
                        .run(world);

  EXPECT_EQ(session.executor().taskReplays(), 1u);
  EXPECT_EQ(
      session.metrics().counter("errorsTotal", {{"kind", "TaskFailure"}})
          .value(),
      1u);
  EXPECT_DOUBLE_EQ(session.metrics().gauge("executor.taskReplays").value(),
                   1.0);

  // The replay shows up on the timeline as an instant with its fault site.
  bool sawReplay = false;
  for (const TraceEvent& e : session.tracer()->events()) {
    if (e.phase == TraceEvent::Phase::Instant && e.name == "task.replay") {
      sawReplay = true;
      EXPECT_NE(e.args.find("task:update_particles:1"), std::string::npos)
          << e.args;
    }
  }
  EXPECT_TRUE(sawReplay);

  // Results still match serial despite the injected crash.
  region::World serial;
  buildWorld(serial);
  ir::runSerial(serial, makeProgram());
  auto got = world.region("Particles").f64("pos");
  auto want = serial.region("Particles").f64("pos");
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-12);
  }
}

TEST(Session, WritesTraceAndMetricsArtifacts) {
  const fs::path traceFile =
      fs::temp_directory_path() / "dpart_session_trace.json";
  const fs::path metricsFile =
      fs::temp_directory_path() / "dpart_session_metrics.json";
  fs::remove(traceFile);
  fs::remove(metricsFile);

  region::World world;
  buildWorld(world);
  runtime::ExecOptions opts;
  opts.observability.traceFile = traceFile.string();
  opts.observability.metricsFile = metricsFile.string();
  Session session = Session::parallelize(makeProgram())
                        .pieces(4)
                        .options(opts)
                        .run(world);

  auto slurp = [](const fs::path& p) {
    std::ifstream in(p);
    EXPECT_TRUE(in.good()) << p;
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const json::Value trace = json::parse(slurp(traceFile));
  EXPECT_FALSE(trace.at("traceEvents").items.empty());
  const json::Value metrics = json::parse(slurp(metricsFile));
  EXPECT_FALSE(metrics.at("metrics").items.empty());

  // Artifacts are rewritten after every run (latest run wins).
  const std::size_t eventsAfterFirst = trace.at("traceEvents").items.size();
  session.run();
  const json::Value trace2 = json::parse(slurp(traceFile));
  EXPECT_GT(trace2.at("traceEvents").items.size(), eventsAfterFirst);

  fs::remove(traceFile);
  fs::remove(metricsFile);
}

TEST(Session, BorrowedObservabilityInstancesAreUsedNotOwned) {
  Tracer tracer;
  tracer.enable();
  MetricsRegistry metrics;
  region::World world;
  buildWorld(world);

  runtime::ExecOptions opts;
  opts.observability.tracer = &tracer;
  opts.observability.metrics = &metrics;
  {
    Session session = Session::parallelize(makeProgram())
                          .pieces(4)
                          .options(opts)
                          .run(world);
    EXPECT_EQ(session.tracer(), &tracer);
    EXPECT_EQ(&session.metrics(), &metrics);
  }
  // The caller-owned instances outlive the session with the data intact.
  EXPECT_GT(tracer.size(), 0u);
  EXPECT_GE(metrics.gauge("compile.parallelLoops").value(), 2.0);
}

}  // namespace
}  // namespace dpart
