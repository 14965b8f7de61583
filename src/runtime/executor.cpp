#include "runtime/executor.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "runtime/distributed/coordinator.hpp"
#include "support/check.hpp"
#include "support/sleep.hpp"
#include "support/timer.hpp"

namespace dpart::runtime {

using region::IndexSet;
using region::Partition;

namespace {

/// Checkpoint restores an executor performs, over its lifetime, before a
/// fault propagates instead.
constexpr std::size_t kMaxCheckpointRestores = 16;

}  // namespace

MetricGauge& taskSecondsGauge(MetricsRegistry& metrics,
                              const std::string& loop, std::size_t piece) {
  return metrics.gauge("executor.task.secondsTotal",
                       {{"loop", loop}, {"piece", std::to_string(piece)}});
}

MetricCounter& launchCounter(MetricsRegistry& metrics,
                             const std::string& loop) {
  return metrics.counter("executor.task.launches", {{"loop", loop}});
}

PlanExecutor::PlanExecutor(region::World& world,
                           const parallelize::ParallelPlan& plan,
                           std::size_t pieces, ExecOptions options)
    : world_(world),
      plan_(plan),
      pieces_(pieces),
      options_(options),
      pool_(options.threads),
      evaluator_(world, pieces, pool_) {
  DPART_CHECK(pieces_ > 0, "need at least one piece");
  evaluator_.setFaultInjector(options_.resilience.faultInjector);
  evaluator_.setSleepHook(options_.resilience.sleepMicros);
  evaluator_.setTracer(options_.observability.tracer);
  liveNodes_.resize(pieces_);
  for (std::size_t j = 0; j < pieces_; ++j) liveNodes_[j] = j;
  if (!options_.checkpoint.dir.empty()) {
    DPART_CHECK(options_.checkpoint.everyNLaunches >= 1,
                "CheckpointOptions::everyNLaunches must be at least 1");
    checkpoints_ = std::make_unique<CheckpointManager>(options_.checkpoint.dir);
    planHash_ = CheckpointManager::hashPlan(plan_);
  }
}

PlanExecutor::~PlanExecutor() = default;

void PlanExecutor::publishMetrics() const {
  MetricsRegistry* mx = options_.observability.metrics;
  if (mx == nullptr) return;
  mx->gauge("executor.taskReplays").set(static_cast<double>(taskReplays()));
  mx->gauge("executor.checkpointRestores")
      .set(static_cast<double>(checkpointRestores_));
  mx->gauge("executor.elasticShrinks")
      .set(static_cast<double>(elasticShrinks_));
  mx->gauge("executor.launchesDone").set(static_cast<double>(launchesDone_));
  mx->gauge("executor.bufferedElements")
      .set(static_cast<double>(bufferedElements_));
  mx->gauge("executor.pieces").set(static_cast<double>(pieces_));
  mx->gauge("executor.rebalances").set(static_cast<double>(rebalances()));
  mx->gauge("executor.injectedStallMicros")
      .set(static_cast<double>(injectedStallMicros()));
  evaluator_.counters().exportTo(*mx);
}

void PlanExecutor::bindExternal(const std::string& name,
                                Partition partition) {
  DPART_CHECK(!prepared_, "bindExternal() must precede preparePartitions()");
  externals_.insert_or_assign(name, partition);
  evaluator_.bind(name, std::move(partition));
}

void PlanExecutor::preparePartitions() {
  if (prepared_) return;
  DPART_TRACE_SPAN(tracer(), "executor", "preparePartitions");
  for (const std::string& ext : plan_.externalSymbols) {
    DPART_CHECK(evaluator_.has(ext),
                "external partition '" + ext + "' was not bound");
  }
  // Rebalanced base symbols are bound like externals (Section 3.3) and
  // their defining statements elided from the evaluated program, so every
  // derived partition re-materializes against the weighted base.
  for (const auto& [name, part] : rebalancedBases_) {
    evaluator_.bind(name, part);
  }
  try {
    evaluator_.run(activeProgram());
  } catch (const EvalFailure&) {
    countError(options_, "EvalFailure");
    throw;
  }
  prepared_ = true;
  // Any re-evaluation (first prepare, restore, shrink, rebalance) advances
  // the epoch; the distributed backend respawns its fork-inherited worker
  // fleet when it observes a new value.
  ++prepareEpoch_;
  if (options_.verifyPartitions) verifyPartitions();
}

void PlanExecutor::verifyPartitions() const {
  DPART_CHECK(prepared_, "partitions not prepared");
  DPART_TRACE_SPAN(tracer(), "executor", "verifyPartitions");
  region::verifyPartitionsOrThrow(world_, evaluator_.env(),
                                  planExpectations(plan_, pieces_));
}

const std::map<std::string, Partition>& PlanExecutor::partitions() const {
  DPART_CHECK(prepared_, "partitions not prepared");
  return evaluator_.env();
}

const Partition& PlanExecutor::partition(const std::string& name) const {
  DPART_CHECK(prepared_, "partitions not prepared");
  return evaluator_.partition(name);
}

void PlanExecutor::runLoop(const parallelize::PlannedLoop& loop) {
  preparePartitions();

  DPART_TRACE_SPAN_NAMED(launchSpan, tracer(), "executor",
                         "launch:" + loop.loop->name);

  if (options_.resilience.faultInjector != nullptr) {
    const std::string site = "loop:" + loop.loop->name;
    if (auto fault = options_.resilience.faultInjector->fire(site)) {
      if (fault->kind == FaultKind::Straggler) {
        tally_.stallMicros.fetch_add(fault->stragglerMicros,
                                     std::memory_order_relaxed);
        sleepOrHook(options_.resilience.sleepMicros, fault->stragglerMicros);
      } else if (fault->kind != FaultKind::CorruptCheckpoint) {
        // Loop-level faults fire before any task mutates state, so there is
        // nothing to roll back — the launch simply failed.
        ErrorContext ctx;
        ctx.site = site;
        ctx.loop = loop.loop->name;
        countError(options_, "TaskFailure");
        throw TaskFailure("injected fault: loop launch failed",
                          std::move(ctx));
      }
    }
  }

  const Partition& iter = partition(loop.iterPartition);
  DPART_CHECK(iter.count() == pieces_,
              "iteration partition piece count mismatch");

  const bool multiProcess =
      options_.distributed.backend == ExecBackend::MultiProcess;
  const std::size_t replaysBefore = tally_.replays.load();
  LaunchStats stats;
  try {
    if (multiProcess) {
      if (coordinator_ == nullptr) {
        coordinator_ =
            std::make_unique<dist::Coordinator>(world_, plan_, options_);
      }
      coordinator_->ensureWorkers(partitions(), liveNodes_, prepareEpoch_);
      stats = coordinator_->runLoop(loop, tally_);
    } else {
      stats = runInProcess(loop, iter);
    }
  } catch (const NodeLossError&) {
    countError(options_, "NodeLossError");
    throw;
  } catch (const PartitionViolation&) {
    countError(options_, "PartitionViolation");
    throw;
  }

  // The launch tail, the same for both backends.
  bufferedElements_ += mergeBuffered(world_, loop, stats.buffered);
  const std::size_t replays = tally_.replays.load() - replaysBefore;
  // Replays restored state from snapshots; re-check the legality properties
  // the recovery relied on.
  if (options_.verifyPartitions && replays > 0) verifyPartitions();
  std::string args = "\"pieces\":" + std::to_string(pieces_) +
                     ",\"replays\":" + std::to_string(replays) +
                     ",\"buffered_elements\":" +
                     std::to_string(bufferedElements_);
  if (multiProcess) {
    args += ",\"ghost_elems\":" + std::to_string(stats.ghostElems) +
            ",\"ghost_messages\":" + std::to_string(stats.ghostMessages);
  }
  launchSpan.annotate(std::move(args));
  publishLaunchMetrics(loop, stats.taskSeconds);
  if (options_.adaptive) maybeRebalance(loop, stats.taskSeconds);
}

LaunchStats PlanExecutor::runInProcess(const parallelize::PlannedLoop& loop,
                                       const Partition& iter) {
  const auto& env = partitions();
  if (!kernels_.has_value() || kernelsEpoch_ != prepareEpoch_) {
    kernels_.emplace(world_, env, options_.validateAccesses);
    kernelsEpoch_ = prepareEpoch_;
  }
  const TaskKernel& kernel = kernels_->kernel(loop);
  const ResilienceOptions& res = options_.resilience;
  LaunchStats stats;
  // Per-piece task CPU seconds for this launch — the adaptive
  // repartitioner's cost signal. Thread CPU time, not wall time: on an
  // oversubscribed pool wall time measures time-slicing, while CPU seconds
  // stay proportional to the piece's work (and project to per-node wall
  // time on a distributed machine, where each piece has its node to
  // itself). Disjoint slots per task, like the buffered contributions.
  stats.taskSeconds.assign(pieces_, 0.0);
  stats.buffered.resize(pieces_);

  pool_.parallelFor(pieces_, [&](std::size_t j) {
    const ThreadCpuTimer taskTimer;
    const IndexSet& iters = iter.sub(j);
    // Task j of every launch runs on node liveNodes_[j].
    const std::size_t nodeId = liveNodes_[j];

    DPART_TRACE_SPAN_NAMED(taskSpan, tracer(), "executor",
                           "task:" + loop.loop->name);
    taskSpan.annotate("\"piece\":" + std::to_string(j) +
                      ",\"node\":" + std::to_string(nodeId));

    // The footprint sets are needed to snapshot (taskReplay mode) and as the
    // target of Poison faults; skip building them entirely otherwise.
    TaskFootprint footprint;
    if (res.taskReplay || res.faultInjector != nullptr) {
      footprint = buildFootprint(world_, loop, j, env, kernel.ownership(j));
    }
    if (res.taskReplay) footprint.capture();

    // Every attempt runs on fresh task state, so a failed attempt's
    // buffered contributions are dropped with it.
    std::optional<TaskState> state;
    auto runOver = [&](const IndexSet& set) {
      state.emplace(kernel);
      kernel.run(j, set, *state);
    };
    runTaskAttempts(
        options_, loop.loop->name, j, nodeId, tally_,
        TaskEffects{
            .run = [&] { runOver(iters); },
            .prefix = [&](double frac) { runOver(prefixOf(iters, frac)); },
            // This address space is the node: its death leaves nothing to
            // stop beyond the prefix that already ran.
            .kill = [] {},
            .poison = [&] { footprint.poison(); },
            .restore = [&] { footprint.restore(); },
        });
    stats.buffered[j] = state->contributions();
    stats.taskSeconds[j] = taskTimer.seconds();
  });
  return stats;
}

void PlanExecutor::publishLaunchMetrics(
    const parallelize::PlannedLoop& loop,
    const std::vector<double>& taskSeconds) const {
  MetricsRegistry* mx = options_.observability.metrics;
  if (mx == nullptr || taskSeconds.size() != pieces_) return;
  double total = 0;
  double worst = 0;
  for (std::size_t j = 0; j < pieces_; ++j) {
    taskSecondsGauge(*mx, loop.loop->name, j).add(taskSeconds[j]);
    total += taskSeconds[j];
    worst = std::max(worst, taskSeconds[j]);
  }
  launchCounter(*mx, loop.loop->name).inc();
  const double meanSec = total / static_cast<double>(pieces_);
  const double imbalance = meanSec > 0 ? worst / meanSec : 1.0;
  mx->gauge("executor.imbalance").set(imbalance);
  mx->gauge("executor.imbalance", {{"loop", loop.loop->name}}).set(imbalance);
}

void PlanExecutor::maybeRebalance(const parallelize::PlannedLoop& loop,
                                  const std::vector<double>& taskSeconds) {
  const std::string& name = loop.loop->name;
  rebalancer_.observe(name, taskSeconds);
  if (!rebalancer_.shouldRebalance(name)) return;
  const std::string base = parallelize::equalBaseSymbol(plan_, loop);
  if (base.empty()) return;  // not equal-derived; nothing to substitute

  DPART_TRACE_SPAN_NAMED(span, tracer(), "executor", "rebalance");
  span.annotate("\"loop\":\"" + jsonEscape(name) + "\",\"base\":\"" +
                jsonEscape(base) + "\",\"imbalance\":" +
                std::to_string(rebalancer_.imbalance(name)) +
                ",\"pieces\":" + std::to_string(pieces_));

  region::Partition weighted = rebalancer_.rebuild(
      world_, loop.loop->iterRegion, partition(loop.iterPartition), name);
  rebalancedBases_.insert_or_assign(base, std::move(weighted));
  std::set<std::string> replaced;
  for (const auto& [sym, _] : rebalancedBases_) replaced.insert(sym);
  activeDpl_ = plan_.dpl.withoutDefinitions(replaced);
  prepared_ = false;
  preparePartitions();
  // Unconditional legality pass: every rebalance must leave partitions the
  // plan's proofs still hold on, whatever options.verifyPartitions says.
  region::verifyPartitionsOrThrow(world_, evaluator_.env(),
                                  planExpectations(plan_, pieces_));
}

void PlanExecutor::checkpoint() {
  DPART_TRACE_SPAN_NAMED(span, tracer(), "executor", "checkpoint");
  span.annotate("\"launch\":" + std::to_string(launchesDone_) +
                ",\"pieces\":" + std::to_string(pieces_));
  checkpoints_->write(world_, externals_, launchesDone_, planHash_, pieces_,
                      options_.resilience.faultInjector);
}

void PlanExecutor::restoreFromCheckpoint(std::optional<std::size_t> lostNode) {
  DPART_TRACE_SPAN_NAMED(span, tracer(), "executor", "restore");
  if (lostNode.has_value()) {
    auto it = std::find(liveNodes_.begin(), liveNodes_.end(), *lostNode);
    if (it != liveNodes_.end()) liveNodes_.erase(it);
    DPART_CHECK(!liveNodes_.empty(), "no surviving nodes to restore onto");
  }
  CheckpointManager::Restored restored = [&] {
    try {
      return checkpoints_->restoreLatest(world_, planHash_);
    } catch (const CheckpointCorruption&) {
      countError(options_, "CheckpointCorruption");
      throw;
    }
  }();
  ++checkpointRestores_;
  if (liveNodes_.size() != pieces_) {
    // Elastic shrink: the constraint solution is machine-size-agnostic, so
    // the same DPL program re-evaluates at the surviving piece count — no
    // new solve, no hand migration of state.
    pieces_ = liveNodes_.size();
    ++elasticShrinks_;
    if (Tracer* tr = tracer(); tr != nullptr && tr->enabled()) {
      tr->instant("executor", "elastic.shrink",
                  "\"lost_node\":" +
                      std::to_string(lostNode.has_value()
                                         ? static_cast<long long>(*lostNode)
                                         : -1LL) +
                      ",\"surviving_pieces\":" + std::to_string(pieces_));
    }
  }
  span.annotate("\"restores\":" + std::to_string(checkpointRestores_) +
                ",\"pieces\":" + std::to_string(pieces_) +
                (lostNode.has_value()
                     ? ",\"lost_node\":" + std::to_string(*lostNode)
                     : std::string{}));
  // Revert any adaptive rebalances: checkpoints record only the true
  // externals, so the restored state re-derives from the solver's unweighted
  // bases, and the observation windows that justified the weights are stale
  // on the (possibly shrunken) machine.
  rebalancedBases_.clear();
  activeDpl_ = dpl::Program{};
  rebalancer_.reset();
  evaluator_.reset(pieces_);
  externals_.clear();
  for (auto& [name, part] : restored.externals) {
    Partition rebound;
    if (part.count() == pieces_) {
      rebound = std::move(part);
    } else if (options_.checkpoint.externalRebind) {
      rebound = options_.checkpoint.externalRebind(name, pieces_);
    } else {
      throw Error("external partition '" + name + "' was checkpointed with " +
                  std::to_string(part.count()) +
                  " piece(s) but the machine shrank to " +
                  std::to_string(pieces_) +
                  "; set CheckpointOptions::externalRebind to rebuild it");
    }
    externals_.insert_or_assign(name, rebound);
    evaluator_.bind(name, std::move(rebound));
  }
  prepared_ = false;
  preparePartitions();
  // Unconditional post-restore legality pass: resuming on partitions that
  // silently broke the plan's assumptions would corrupt state far from the
  // fault, so recovery always pays for the verifier.
  region::verifyPartitionsOrThrow(world_, evaluator_.env(),
                                  planExpectations(plan_, pieces_));
  launchesDone_ = restored.meta.launchIndex;
}

void PlanExecutor::run() {
  DPART_TRACE_SPAN(tracer(), "executor", "run");
  preparePartitions();
  if (plan_.loops.empty()) {
    publishMetrics();
    return;
  }
  if (checkpoints_ != nullptr && checkpoints_->generations() == 0) {
    // Baseline generation: a fault in the very first launch must have
    // something to restore to.
    checkpoint();
  }
  const std::size_t nLoops = plan_.loops.size();
  // The launch index is global across run() calls: launch L executes loop
  // L % nLoops, so a restore that rewinds into a previous step replays the
  // right loops in the right order.
  const std::uint64_t target = launchesDone_ + nLoops;
  while (launchesDone_ < target) {
    const bool mayRestore = checkpoints_ != nullptr &&
                            checkpointRestores_ < kMaxCheckpointRestores;
    try {
      runLoop(plan_.loops[launchesDone_ % nLoops]);
    } catch (const NodeLossError& loss) {
      if (!mayRestore) throw;
      restoreFromCheckpoint(loss.node());
      continue;
    } catch (const TaskFailure& failure) {
      if (!mayRestore) throw;
      const int piece = failure.context().piece;
      if (piece >= 0 && static_cast<std::size_t>(piece) < liveNodes_.size()) {
        // Replay exhaustion: the task died maxTaskRetries + 1 times in a
        // row, so its host is presumed permanently gone and removed from
        // the machine before the restore.
        restoreFromCheckpoint(liveNodes_[static_cast<std::size_t>(piece)]);
      } else {
        // Launch-level failure with no culprit node: restore without
        // shrinking.
        restoreFromCheckpoint(std::nullopt);
      }
      continue;
    }
    ++launchesDone_;
    if (checkpoints_ != nullptr &&
        launchesDone_ % static_cast<std::uint64_t>(
                            options_.checkpoint.everyNLaunches) ==
            0) {
      checkpoint();
    }
  }
  publishMetrics();
}

}  // namespace dpart::runtime
