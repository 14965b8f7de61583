#include "runtime/executor.hpp"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "runtime/distributed/coordinator.hpp"
#include "runtime/task_exec.hpp"
#include "support/check.hpp"
#include "support/sleep.hpp"
#include "support/timer.hpp"

namespace dpart::runtime {

using optimize::ReduceStrategy;
using region::Index;
using region::IndexSet;
using region::Partition;

namespace {

/// Checkpoint restores an executor performs, over its lifetime, before a
/// fault propagates instead.
constexpr std::size_t kMaxCheckpointRestores = 16;

}  // namespace

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
    checkpoints_ = std::make_unique<CheckpointManager>(
        options_.checkpoint.dir, options_.checkpoint.retain);
    planHash_ = CheckpointManager::hashPlan(plan_);
  }
  if (options_.adaptive.enabled) {
    if (options_.observability.metrics == nullptr) {
      // The Rebalancer's cost signal lives in the metrics registry; adaptive
      // mode without one gets a private registry.
      ownedMetrics_ = std::make_unique<MetricsRegistry>();
      options_.observability.metrics = ownedMetrics_.get();
    }
    rebalancer_ = std::make_unique<Rebalancer>(
        options_.adaptive, *options_.observability.metrics);
  }
}

PlanExecutor::~PlanExecutor() = default;

void PlanExecutor::countError(const char* kind) const {
  if (options_.observability.metrics != nullptr) {
    options_.observability.metrics->counter("errorsTotal", {{"kind", kind}})
        .inc();
  }
}

void PlanExecutor::publishMetrics() const {
  MetricsRegistry* mx = options_.observability.metrics;
  if (mx == nullptr) return;
  mx->gauge("executor.taskReplays").set(static_cast<double>(replays_.load()));
  mx->gauge("executor.checkpointRestores")
      .set(static_cast<double>(checkpointRestores_));
  mx->gauge("executor.elasticShrinks")
      .set(static_cast<double>(elasticShrinks_));
  mx->gauge("executor.launchesDone").set(static_cast<double>(launchesDone_));
  mx->gauge("executor.bufferedElements")
      .set(static_cast<double>(bufferedElements_));
  mx->gauge("executor.pieces").set(static_cast<double>(pieces_));
  mx->gauge("executor.rebalances").set(static_cast<double>(rebalances_));
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

void PlanExecutor::sleepFor(std::uint64_t micros) const {
  sleepOrHook(options_.resilience.sleepMicros, micros);
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
    countError("EvalFailure");
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
        stallMicros_.fetch_add(fault->stragglerMicros,
                               std::memory_order_relaxed);
        sleepFor(fault->stragglerMicros);
      } else if (fault->kind != FaultKind::CorruptCheckpoint) {
        // Loop-level faults fire before any task mutates state, so there is
        // nothing to roll back — the launch simply failed.
        ErrorContext ctx;
        ctx.site = site;
        ctx.loop = loop.loop->name;
        countError("TaskFailure");
        throw TaskFailure("injected fault: loop launch failed",
                          std::move(ctx));
      }
    }
  }

  const Partition& iter = partition(loop.iterPartition);
  DPART_CHECK(iter.count() == pieces_,
              "iteration partition piece count mismatch");

  if (options_.distributed.backend == ExecBackend::MultiProcess) {
    runLoopDistributed(loop, launchSpan);
    return;
  }

  // Ownership guards are only needed when duplicated iterations could apply
  // a centered write/reduction twice.
  std::vector<IndexSet> ownership;
  const bool needOwnership = hasCenteredWrite(loop) && !iter.isDisjoint();
  if (needOwnership) ownership = disjointify(iter);

  ir::LoopRunner runner(world_, *loop.loop);
  std::vector<std::unique_ptr<TaskHooks>> hooks(pieces_);
  const auto& env = partitions();
  // Per-piece task CPU seconds for this launch — the adaptive
  // repartitioner's cost signal. Thread CPU time, not wall time: on an
  // oversubscribed pool wall time measures time-slicing, while CPU seconds
  // stay proportional to the piece's work (and project to per-node wall
  // time on a distributed machine, where each piece has its node to
  // itself). Disjoint slots per task, published to the metrics registry
  // after the launch completes.
  MetricsRegistry* mx = options_.observability.metrics;
  std::vector<double> taskSeconds(mx != nullptr ? pieces_ : 0, 0.0);
  std::atomic<std::size_t> loopReplays{0};
  // Replays already performed must survive an escalating failure (retry
  // exhaustion aborts the launch mid-parallelFor), so merge on every exit.
  struct ReplayMerge {
    std::atomic<std::size_t>& from;
    std::atomic<std::size_t>& to;
    ~ReplayMerge() {
      to.fetch_add(from.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    }
  } replayMerge{loopReplays, replays_};

  auto runTask = [&](std::size_t j) {
    const ThreadCpuTimer taskTimer;
    const IndexSet* own = needOwnership ? &ownership[j] : nullptr;
    const IndexSet& iters = iter.sub(j);
    const std::string site =
        "task:" + loop.loop->name + ":" + std::to_string(j);
    // Task j of every launch runs on node liveNodes_[j]; the node site is
    // keyed on the (stable) node id, not the (shrinkable) piece number, so
    // "node:2" still names the same machine after an elastic shrink.
    const std::size_t nodeId = liveNodes_[j];
    const std::string nodeSite = "node:" + std::to_string(nodeId);
    FaultInjector* injector = options_.resilience.faultInjector;

    DPART_TRACE_SPAN_NAMED(taskSpan, tracer(), "executor",
                           "task:" + loop.loop->name);
    taskSpan.annotate("\"piece\":" + std::to_string(j) +
                      ",\"node\":" + std::to_string(nodeId));

    // The footprint sets are needed to snapshot (taskReplay mode) and as the
    // target of Poison faults; skip building them entirely otherwise.
    TaskFootprint footprint;
    if (options_.resilience.taskReplay || injector != nullptr) {
      footprint = buildFootprint(world_, loop, j, env, own);
    }
    if (options_.resilience.taskReplay) footprint.capture();

    for (int attempt = 0;; ++attempt) {
      hooks[j] = std::make_unique<TaskHooks>(loop, j, env,
                                             options_.validateAccesses, own);
      try {
        if (injector != nullptr) {
          if (auto fault = injector->fire(nodeSite);
              fault && fault->kind == FaultKind::PermanentCrash) {
            // The host dies mid-task: a deterministic prefix of the work
            // lands in memory, then the machine is gone for good. Thrown as
            // NodeLossError (not TaskFailure) so in-place replay cannot
            // catch it — only a checkpoint restore with the node removed
            // recovers.
            runner.run(prefixOf(iters, fault->magnitude), hooks[j].get());
            ErrorContext ctx;
            ctx.site = nodeSite;
            ctx.loop = loop.loop->name;
            ctx.piece = static_cast<int>(j);
            ctx.attempt = attempt;
            throw NodeLossError(nodeId,
                                "injected fault: node lost permanently",
                                std::move(ctx));
          }
          if (auto fault = injector->fire(site)) {
            ErrorContext ctx;
            ctx.site = site;
            ctx.loop = loop.loop->name;
            ctx.piece = static_cast<int>(j);
            ctx.attempt = attempt;
            switch (fault->kind) {
              case FaultKind::Straggler:
                stallMicros_.fetch_add(fault->stragglerMicros,
                                       std::memory_order_relaxed);
                sleepFor(fault->stragglerMicros);
                break;
              case FaultKind::Poison:
                // A dying node scribbles over its own write footprint —
                // replay must restore every corrupted cell.
                footprint.poison();
                throw TaskFailure("injected fault: task result poisoned",
                                  std::move(ctx));
              case FaultKind::Crash:
                // Execute a deterministic prefix, then die mid-task,
                // leaving region state genuinely half-mutated.
                runner.run(prefixOf(iters, fault->magnitude), hooks[j].get());
                throw TaskFailure("injected fault: task crashed mid-run",
                                  std::move(ctx));
              case FaultKind::PermanentCrash:
                // Same death as at the node site, for callers that arm
                // "task:..." directly.
                runner.run(prefixOf(iters, fault->magnitude), hooks[j].get());
                throw NodeLossError(nodeId,
                                    "injected fault: node lost permanently",
                                    std::move(ctx));
              case FaultKind::CorruptCheckpoint:
                break;  // only meaningful at checkpoint:write sites
            }
          }
        }
        runner.run(iters, hooks[j].get());
        break;
      } catch (const TaskFailure& failure) {
        countError("TaskFailure");
        // Only task deaths are replayable; partition violations and
        // evaluation failures propagate immediately.
        if (!options_.resilience.taskReplay) throw;
        footprint.restore();
        if (attempt >= options_.resilience.maxTaskRetries) {
          ErrorContext ctx = failure.context();
          ctx.attempt = attempt;
          throw TaskFailure(
              std::string("task failed after ") +
                  std::to_string(attempt + 1) + " attempt(s): " +
                  failure.what(),
              std::move(ctx));
        }
        loopReplays.fetch_add(1, std::memory_order_relaxed);
        if (Tracer* tr = tracer(); tr != nullptr && tr->enabled()) {
          tr->instant("executor", "task.replay",
                      "\"site\":\"" + jsonEscape(site) +
                          "\",\"fault_site\":\"" +
                          jsonEscape(failure.context().site) +
                          "\",\"node\":" + std::to_string(nodeId) +
                          ",\"attempt\":" + std::to_string(attempt));
        }
        if (options_.resilience.retryBackoffMicros > 0) {
          sleepFor(options_.resilience.retryBackoffMicros << attempt);
        }
      }
    }
    if (mx != nullptr) taskSeconds[j] = taskTimer.seconds();
  };
  try {
    pool_.parallelFor(pieces_, runTask);
  } catch (const NodeLossError&) {
    countError("NodeLossError");
    throw;
  } catch (const PartitionViolation&) {
    countError("PartitionViolation");
    throw;
  }

  // Merge reduction buffers in task order (deterministic).
  for (std::size_t j = 0; j < pieces_; ++j) {
    for (auto& [stmtId, st] : hooks[j]->reduces()) {
      if (st.buffer.empty()) continue;
      const ir::Stmt* stmt = loop.loop->findStmt(stmtId);
      DPART_CHECK(stmt != nullptr);
      auto field = world_.region(stmt->region).f64(stmt->field);
      // Sort for determinism across unordered_map iteration orders.
      std::vector<std::pair<Index, double>> entries(st.buffer.begin(),
                                                    st.buffer.end());
      std::sort(entries.begin(), entries.end());
      for (const auto& [target, value] : entries) {
        double& cell = field[static_cast<std::size_t>(target)];
        cell = ir::applyReduce(st.op, cell, value);
      }
      bufferedElements_ += entries.size();
    }
  }

  // Replays restored state from snapshots; re-check the legality properties
  // the recovery relied on.
  if (options_.verifyPartitions && loopReplays.load() > 0) {
    verifyPartitions();
  }
  launchSpan.annotate("\"pieces\":" + std::to_string(pieces_) +
                      ",\"replays\":" + std::to_string(loopReplays.load()) +
                      ",\"buffered_elements\":" +
                      std::to_string(bufferedElements_));

  if (mx != nullptr) publishLaunchMetrics(loop, taskSeconds);
  if (rebalancer_ != nullptr) maybeRebalance(loop);
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

void PlanExecutor::runLoopDistributed(const parallelize::PlannedLoop& loop,
                                      TraceSpan& launchSpan) {
  if (coordinator_ == nullptr) {
    coordinator_ = std::make_unique<dist::Coordinator>(world_, plan_,
                                                       options_);
  }
  coordinator_->ensureWorkers(partitions(), liveNodes_, prepareEpoch_);
  dist::LaunchStats stats;
  try {
    stats = coordinator_->runLoop(loop);
  } catch (const NodeLossError&) {
    countError("NodeLossError");
    throw;
  } catch (const PartitionViolation&) {
    countError("PartitionViolation");
    throw;
  }
  // The coordinator already counted TaskFailure / TransportError events (it
  // sees each injected or wire-level failure, not just the escalations), so
  // only the launch tallies are folded here.
  replays_.fetch_add(stats.replays, std::memory_order_relaxed);
  stallMicros_.fetch_add(stats.stallMicros, std::memory_order_relaxed);
  bufferedElements_ += stats.bufferedElements;
  if (options_.verifyPartitions && stats.replays > 0) verifyPartitions();
  launchSpan.annotate("\"pieces\":" + std::to_string(pieces_) +
                      ",\"replays\":" + std::to_string(stats.replays) +
                      ",\"buffered_elements\":" +
                      std::to_string(bufferedElements_) +
                      ",\"ghost_elems\":" + std::to_string(stats.ghostElems) +
                      ",\"ghost_messages\":" +
                      std::to_string(stats.ghostMessages));
  publishLaunchMetrics(loop, stats.taskSeconds);
  if (rebalancer_ != nullptr) maybeRebalance(loop);
}

void PlanExecutor::maybeRebalance(const parallelize::PlannedLoop& loop) {
  const std::string& name = loop.loop->name;
  rebalancer_->observe(name, pieces_);
  if (!rebalancer_->shouldRebalance(name)) return;
  const std::string base = parallelize::equalBaseSymbol(plan_, loop);
  if (base.empty()) return;  // not equal-derived; nothing to substitute

  DPART_TRACE_SPAN_NAMED(span, tracer(), "executor", "rebalance");
  span.annotate("\"loop\":\"" + jsonEscape(name) + "\",\"base\":\"" +
                jsonEscape(base) + "\",\"imbalance\":" +
                std::to_string(rebalancer_->imbalance(name)) +
                ",\"pieces\":" + std::to_string(pieces_));

  region::Partition weighted = rebalancer_->rebuild(
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
  ++rebalances_;
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
      countError("CheckpointCorruption");
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
  if (rebalancer_ != nullptr) rebalancer_->reset();
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
