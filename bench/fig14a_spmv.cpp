// Figure 14a: SpMV weak scaling (auto-parallelized only). The paper reports
// 99% parallel efficiency on 256 nodes with a balanced diagonal matrix of
// 0.4e9 non-zeros per node; we scale the per-node size down (see
// EXPERIMENTS.md) and reproduce the flat throughput-per-node curve.
//
// With `--trace <out.json>` the bench instead performs one real (non-
// simulated) small-scale Session run of the SpMV program with tracing on,
// an injected task crash (so the timeline shows a task replay) and
// end-of-launch checkpoints, and writes a Chrome trace_event JSON. Open it
// in chrome://tracing or https://ui.perfetto.dev; see EXPERIMENTS.md.
//
// With `--skewed` the bench runs the adaptive-repartitioning experiment on
// a power-law (skewed row length) matrix: real Session runs with and
// without `.adaptive()`, per-launch critical-path time and imbalance in
// JSON-lines form, a uniform control (must trigger zero rebalances), and a
// 256-node ClusterSim projection of the weighted partition's win. Exits
// non-zero unless the steady-state critical path improves >= 1.3x.

#include "scaling_common.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <utility>

#include "apps/spmv.hpp"
#include "dpl/evaluator.hpp"
#include "region/dpl_ops.hpp"
#include "runtime/rebalance.hpp"
#include "runtime/session.hpp"
#include "support/fault.hpp"
#include "support/timer.hpp"

namespace {

int runTraced(const char* traceFile) {
  using namespace dpart;
  apps::SpmvApp::Params p;
  p.rowsPerPiece = 2048;
  p.nnzPerRow = 5;
  p.pieces = 4;
  apps::SpmvApp app(p);

  // One deterministic crash at a pinned task site: the trace then contains
  // the failed task span, a task.replay instant and the retry span.
  FaultInjector injector(42);
  FaultSpec crash;
  crash.kind = FaultKind::Crash;
  crash.afterArrivals = 1;
  crash.maxFires = 1;
  injector.arm("task:spmv:2", crash);

  const std::filesystem::path ckptDir =
      std::filesystem::temp_directory_path() / "fig14a_trace_ckpt";
  std::filesystem::remove_all(ckptDir);

  runtime::ExecOptions opts;
  opts.resilience.taskReplay = true;
  opts.resilience.maxTaskRetries = 3;
  opts.resilience.faultInjector = &injector;
  opts.checkpoint.dir = ckptDir.string();
  opts.checkpoint.everyNLaunches = 1;
  opts.observability.traceFile = traceFile;

  Session session = Session::parallelize(app.program())
                        .pieces(p.pieces)
                        .options(opts)
                        .run(app.world());
  session.run();  // a second launch, for a multi-launch timeline
  runtime::PlanExecutor& exec = session.executor();

  std::cout << "trace written to " << traceFile
            << " (launches: " << exec.launchesDone()
            << ", replays: " << exec.taskReplays() << ", checkpoints: "
            << exec.checkpointManager()->generations() << ")\n";
  std::filesystem::remove_all(ckptDir);
  if (exec.taskReplays() < 1 || exec.checkpointManager()->generations() < 1) {
    std::cout << "FAIL: expected at least one replay and one checkpoint\n";
    return 1;
  }
  return 0;
}

// One measured Session launch: wall time plus the per-piece task seconds
// (gauge deltas), from which the critical path (max piece time — the
// distributed-launch time a real cluster would see) and the imbalance
// follow.
struct LaunchSample {
  double wallSeconds = 0;
  double criticalSeconds = 0;
  double imbalance = 0;
};

LaunchSample measureLaunch(dpart::Session& session, const std::string& loop,
                           std::size_t pieces) {
  using namespace dpart;
  MetricsRegistry& mx = session.metrics();
  std::vector<double> before(pieces);
  for (std::size_t j = 0; j < pieces; ++j) {
    before[j] = runtime::taskSecondsGauge(mx, loop, j).value();
  }
  Timer wall;
  session.run();
  LaunchSample s;
  s.wallSeconds = wall.seconds();
  double total = 0;
  for (std::size_t j = 0; j < pieces; ++j) {
    const double t = runtime::taskSecondsGauge(mx, loop, j).value() - before[j];
    total += t;
    s.criticalSeconds = std::max(s.criticalSeconds, t);
  }
  const double mean = total / static_cast<double>(pieces);
  s.imbalance = mean > 0 ? s.criticalSeconds / mean : 1.0;
  return s;
}

void printLaunchJson(const char* series, int launch, const LaunchSample& s,
                     std::size_t rebalances) {
  std::cout << "{\"bench\":\"spmv_skew\",\"series\":\"" << series
            << "\",\"launch\":" << launch << ",\"criticalPathMs\":"
            << s.criticalSeconds * 1e3 << ",\"wallMs\":" << s.wallSeconds * 1e3
            << ",\"imbalance\":" << s.imbalance
            << ",\"rebalances\":" << rebalances << "}\n";
}

int runSkewed() {
  using namespace dpart;
  constexpr int kLaunches = 10;
  constexpr int kSteady = 4;  // launches averaged for the steady-state figure
  apps::SpmvApp::Params p;
  p.rowsPerPiece = 8192;
  p.nnzPerRow = 8;
  p.pieces = 8;
  p.skew = 1.0;  // heavy prefix: the first piece owns most non-zeros

  auto steadyState = [&](const char* series, double skew,
                         bool adaptive) -> std::pair<double, LaunchSample> {
    apps::SpmvApp::Params params = p;
    params.skew = skew;
    apps::SpmvApp app(params);
    runtime::ExecOptions opts;
    opts.verifyPartitions = true;
    SessionBuilder builder =
        Session::parallelize(app.program()).pieces(params.pieces).options(
            opts);
    if (adaptive) builder.adaptive();
    Session session = builder.build(app.world());
    double steadySum = 0;
    LaunchSample first;
    for (int i = 0; i < kLaunches; ++i) {
      const LaunchSample s = measureLaunch(session, "spmv", params.pieces);
      if (i == 0) first = s;
      if (i >= kLaunches - kSteady) steadySum += s.criticalSeconds;
      printLaunchJson(series, i, s, session.rebalances());
    }
    if (adaptive && skew > 0 && session.rebalances() < 1) {
      std::cout << "FAIL: skewed adaptive run never rebalanced\n";
      std::exit(1);
    }
    if (adaptive && skew == 0 && session.rebalances() != 0) {
      std::cout << "FAIL: uniform workload triggered "
                << session.rebalances() << " rebalance(s)\n";
      std::exit(1);
    }
    return {steadySum / kSteady, first};
  };

  const auto [baselineSteady, baselineFirst] =
      steadyState("baseline", p.skew, /*adaptive=*/false);
  const auto [adaptiveSteady, adaptiveFirst] =
      steadyState("adaptive", p.skew, /*adaptive=*/true);
  const auto [uniformSteady, uniformFirst] =
      steadyState("uniform", /*skew=*/0, /*adaptive=*/true);

  const double speedup = baselineSteady / adaptiveSteady;
  std::cout << "{\"bench\":\"spmv_skew\",\"series\":\"summary\""
            << ",\"beforeImbalance\":" << adaptiveFirst.imbalance
            << ",\"baselineSteadyMs\":" << baselineSteady * 1e3
            << ",\"adaptiveSteadyMs\":" << adaptiveSteady * 1e3
            << ",\"speedup\":" << speedup
            << ",\"uniformSteadyMs\":" << uniformSteady * 1e3 << "}\n";

  // 256-node projection: simulate the skewed matrix on the cluster model,
  // feed the simulated per-task times through the same weight estimator the
  // runtime uses, and re-simulate on the weighted base partition
  // (re-evaluation of the same DPL program — Section 3.3, no re-solve).
  {
    const int nodes = 256;
    apps::SpmvApp::Params params = p;
    params.rowsPerPiece = 2048;
    params.pieces = static_cast<std::size_t>(nodes);
    apps::SpmvApp app(params);
    apps::SimSetup setup = app.autoSetup();
    sim::MachineConfig cfg;
    sim::ClusterSim cluster(app.world(), cfg);
    for (const auto& [r, o] : setup.owners) cluster.setOwner(r, o);
    const auto depths = sim::ClusterSim::depthsOf(setup.plan.dpl);
    const parallelize::PlannedLoop& loop = setup.plan.loops[0];

    const sim::LoopSimResult before =
        cluster.simulateLoop(loop, setup.partitions, depths);

    const std::string base = parallelize::equalBaseSymbol(setup.plan, loop);
    if (base.empty()) {
      std::cout << "FAIL: simulated plan has no equal base to rebalance\n";
      return 1;
    }
    const region::Partition& iter = setup.partitions.at(loop.iterPartition);
    const std::vector<double> weights = runtime::Rebalancer::estimateWeights(
        iter, before.taskSeconds, app.world().region("Y").size());
    dpl::Evaluator ev(app.world(), params.pieces);
    ev.bind(base, region::equalWeighted(app.world(), "Y", weights,
                                        params.pieces));
    auto rebalanced = ev.run(setup.plan.dpl.withoutDefinitions({base}));
    rebalanced.emplace("pX_owner", setup.partitions.at("pX_owner"));

    const sim::LoopSimResult after =
        cluster.simulateLoop(loop, rebalanced, depths);
    std::cout << "{\"bench\":\"spmv_skew\",\"series\":\"sim256\",\"nodes\":"
              << nodes << ",\"beforeImbalance\":" << before.imbalance()
              << ",\"afterImbalance\":" << after.imbalance()
              << ",\"beforeSeconds\":" << before.seconds
              << ",\"afterSeconds\":" << after.seconds
              << ",\"projectedSpeedup\":" << before.seconds / after.seconds
              << "}\n";
  }

  if (speedup < 1.3) {
    std::cout << "FAIL: steady-state critical-path speedup " << speedup
              << " < 1.3\n";
    return 1;
  }
  std::cout << "OK: adaptive repartitioning speedup " << speedup << "x\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dpart;
  using apps::SpmvApp;
  if (argc == 3 && std::strcmp(argv[1], "--trace") == 0) {
    return runTraced(argv[2]);
  }
  if (argc == 2 && std::strcmp(argv[1], "--skewed") == 0) {
    return runSkewed();
  }
  auto params = [](int nodes, region::Index rowsPerPiece) {
    SpmvApp::Params p;
    p.rowsPerPiece = rowsPerPiece;
    p.nnzPerRow = 5;
    p.pieces = static_cast<std::size_t>(nodes);
    return p;
  };
  if (const char* file = bench::proofFile(argc, argv)) {
    return bench::emitProof<SpmvApp>(params(4, 256), file);
  }
  // workPerPiece: non-zeros per node.
  auto make = [&](int nodes) {
    return std::make_unique<SpmvApp>(params(nodes, 16384));
  };
  // One node failure per day of node-time. The resilient variant quantifies
  // the snapshot + expected-replay overhead of the fault-tolerant executor;
  // the checkpointed one recovers by durable checkpoint/restart at the
  // Young/Daly-optimal interval instead (survives permanent node loss,
  // unlike in-place replay).
  sim::MachineConfig faulty;
  faulty.nodeMtbfSeconds = 86400;
  const auto panel = bench::runPanel<SpmvApp>(
      "Figure 14a: SpMV weak scaling", "nnz/s",
      {{"Auto", make, &SpmvApp::autoSetup},
       {"Auto (resilient)", make, &SpmvApp::autoSetup, faulty,
        bench::FailureMode::Replay},
       {"Auto (checkpointed)", make, &SpmvApp::autoSetup, faulty,
        bench::FailureMode::Checkpoint}});

  const apps::ScalingSeries& series = panel[0];
  const apps::ScalingPoint& last = series.points.back();
  const double eff =
      last.throughputPerNode / series.points.front().throughputPerNode;
  std::cout << "parallel efficiency at " << last.nodes
            << " nodes: " << eff * 100 << "% (paper: 99%)\n";
  const double overhead =
      panel[1].points.back().stepSeconds / last.stepSeconds - 1.0;
  std::cout << "resilience overhead at " << last.nodes
            << " nodes (MTBF 1 day/node): " << overhead * 100 << "%\n";

  // The checkpoint model prices the world's state size only, so the
  // rebuilt app needs no setup.
  const std::unique_ptr<SpmvApp> app = make(last.nodes);
  const sim::CheckpointCost cc = sim::ClusterSim(app->world(), faulty)
                                     .checkpointCost(last.nodes,
                                                     last.stepSeconds);
  const double ckptOverhead =
      panel[2].points.back().stepSeconds / last.stepSeconds - 1.0;
  std::cout << "checkpoint overhead at " << last.nodes
            << " nodes (Young/Daly interval " << cc.intervalSeconds
            << " s, write " << cc.checkpointSeconds * 1e3 << " ms, "
            << cc.stateBytesPerNode / 1e6 << " MB/node): "
            << ckptOverhead * 100 << "%\n";
  return 0;
}
