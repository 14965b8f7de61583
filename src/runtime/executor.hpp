#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dpl/evaluator.hpp"
#include "parallelize/parallelize.hpp"
#include "region/partition.hpp"
#include "region/verify.hpp"
#include "region/world.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/options.hpp"
#include "runtime/rebalance.hpp"
#include "runtime/task_exec.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/perf_counters.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace dpart::runtime {

namespace dist {
class Coordinator;
}  // namespace dist

/// A node died for good (FaultKind::PermanentCrash on a "node:<id>" site, or
/// a task that exhausted its replays and whose host is therefore presumed
/// dead). Deliberately NOT a TaskFailure: in-place replay must not catch it —
/// the only recovery is a checkpoint restore with the node removed from the
/// machine (elastic shrink).
class NodeLossError : public Error {
 public:
  NodeLossError(std::size_t node, const std::string& what,
                ErrorContext context = {})
      : Error(what + context.describe()),
        node_(node),
        context_(std::move(context)) {}
  [[nodiscard]] ErrorCode errorCode() const noexcept override {
    return ErrorCode::NodeLoss;
  }
  [[nodiscard]] std::size_t node() const { return node_; }
  [[nodiscard]] const ErrorContext& context() const { return context_; }

 private:
  std::size_t node_;
  ErrorContext context_;
};

/// Derives the legality properties a plan assumes of its evaluated
/// partitions. The implementation lives in parallelize (proof certificates
/// embed the same expectations at compile time); this alias keeps the
/// historical runtime:: spelling working.
using parallelize::planExpectations;

/// The metrics schema the executor exports per-piece task CPU times under
/// (thread CPU seconds — see ThreadCpuTimer for why not wall time). One
/// gauge per (loop, piece) accumulates total task seconds; one counter per
/// loop counts completed launches. An export only: the Rebalancer takes
/// each launch's times directly (Rebalancer::observe).
MetricGauge& taskSecondsGauge(MetricsRegistry& metrics,
                              const std::string& loop, std::size_t piece);
MetricCounter& launchCounter(MetricsRegistry& metrics, const std::string& loop);

/// Executes a ParallelPlan: evaluates its DPL program to concrete
/// partitions, then runs each planned loop as `pieces` tasks on a thread
/// pool, honoring the plan's reduction strategies:
///
///  - Direct reductions apply in place (target partition disjoint);
///  - Guarded reductions (relaxed loops, Sec. 5.1) apply only when the
///    target lies in the task's reduction subregion;
///  - Buffered reductions accumulate into a per-task buffer merged after
///    the loop (the Legion reduction-instance mechanism);
///  - PrivateSplit reductions apply in place inside the private
///    sub-partition (Thm. 5.1) and buffer only the shared remainder.
///
/// Centered writes and centered reductions are ownership-guarded when the
/// iteration partition is aliased, so duplicated iterations (relaxation)
/// stay race-free and apply exactly once.
class PlanExecutor {
 public:
  PlanExecutor(region::World& world, const parallelize::ParallelPlan& plan,
               std::size_t pieces, ExecOptions options = {});
  ~PlanExecutor();  // out of line: owns the forward-declared Coordinator

  /// Binds an externally constructed partition (Section 3.3) before
  /// preparePartitions().
  void bindExternal(const std::string& name, region::Partition partition);

  /// Evaluates the plan's DPL program. Called automatically by run() if
  /// needed; exposed so tests and benchmarks can inspect partitions.
  void preparePartitions();

  /// Runs all planned loops once, in program order. With checkpointing
  /// enabled (CheckpointOptions::dir), every completed launch advances a
  /// global launch index, checkpoints are taken at the configured cadence,
  /// and a NodeLossError (or a task that exhausted its replays) triggers a
  /// restore from the latest valid checkpoint — shrinking to the surviving
  /// piece count when a node was lost — and resumption from the
  /// checkpointed launch index.
  void run();

  /// Runs one planned loop (partitions must be prepared).
  void runLoop(const parallelize::PlannedLoop& loop);

  /// Checks every evaluated partition against the properties the plan
  /// assumed (see planExpectations); throws PartitionViolation listing all
  /// violations. Called automatically when options.verifyPartitions is on.
  void verifyPartitions() const;

  /// Task replays performed so far (ResilienceOptions::taskReplay mode).
  [[nodiscard]] std::size_t taskReplays() const {
    return tally_.replays.load();
  }

  /// Checkpoint restores performed so far (checkpointing mode).
  [[nodiscard]] std::size_t checkpointRestores() const {
    return checkpointRestores_;
  }

  /// Restores that shrank the machine because a node was permanently lost.
  [[nodiscard]] std::size_t elasticShrinks() const { return elasticShrinks_; }

  /// Adaptive rebalances performed so far (ExecOptions::adaptive mode):
  /// launches where a loop's `equal` base partition was replaced by a
  /// weighted one because the measured per-piece task times were skewed.
  [[nodiscard]] std::size_t rebalances() const {
    return rebalancer_.rebalances();
  }

  /// Loop launches completed (across run() calls; rewound by a restore).
  [[nodiscard]] std::uint64_t launchesDone() const { return launchesDone_; }

  /// Total injected straggler stall time, task-level plus DPL-operator
  /// level. Kept out of every operator wall-time counter so the bench JSON
  /// stays comparable between faulty and fault-free runs.
  [[nodiscard]] std::uint64_t injectedStallMicros() const {
    return tally_.stallMicros.load() +
           evaluator_.counters().injectedStallMicros;
  }

  /// The CheckpointManager behind this executor, or nullptr when
  /// checkpointing is disabled.
  [[nodiscard]] CheckpointManager* checkpointManager() {
    return checkpoints_.get();
  }

  [[nodiscard]] const std::map<std::string, region::Partition>& partitions()
      const;
  [[nodiscard]] const region::Partition& partition(
      const std::string& name) const;
  [[nodiscard]] std::size_t pieces() const { return pieces_; }

  /// Total elements accumulated through reduction buffers so far (tests and
  /// benchmarks use this to verify the Section 5 optimizations actually
  /// eliminate buffer traffic).
  [[nodiscard]] std::size_t bufferedElements() const {
    return bufferedElements_;
  }

  /// Partition-materialization counters (per-operator wall time, cache
  /// hits/misses, elements touched, runs produced); see support/perf_counters.
  [[nodiscard]] const PerfCounters& counters() const {
    return evaluator_.counters();
  }

  /// Publishes the executor- and evaluator-level tallies into the
  /// configured metrics registry (no-op without one). Called at the end of
  /// every run(); exposed so Session / tests can force a flush.
  void publishMetrics() const;

  /// The multi-process backend's coordinator, or nullptr when running
  /// in-process (ExecBackend::InProcess) or before the first distributed
  /// launch. Tests and the sim-validation tooling use it to read measured
  /// wire traffic.
  [[nodiscard]] dist::Coordinator* coordinator() { return coordinator_.get(); }

 private:
  [[nodiscard]] Tracer* tracer() const {
    return options_.observability.tracer;
  }

  /// Takes one checkpoint at the current launch index.
  void checkpoint();

  /// Restores the latest valid checkpoint (removing `lostNode` from the
  /// machine first, when set), re-derives every partition at the surviving
  /// piece count, verifies legality, and rewinds launchesDone_.
  void restoreFromCheckpoint(std::optional<std::size_t> lostNode);

  /// The DPL program preparePartitions() evaluates: the plan's program
  /// until a rebalance replaces a base symbol, then the program minus the
  /// replaced definitions (the weighted partitions are bound externally).
  [[nodiscard]] const dpl::Program& activeProgram() const {
    return rebalancedBases_.empty() ? plan_.dpl : activeDpl_;
  }

  /// Runs one launch's tasks on the thread pool (ExecBackend::InProcess).
  [[nodiscard]] LaunchStats runInProcess(const parallelize::PlannedLoop& loop,
                                         const region::Partition& iter);

  /// Publishes the per-piece task seconds and imbalance of one completed
  /// launch into the metrics registry, when one is set (both backends
  /// report through this).
  void publishLaunchMetrics(const parallelize::PlannedLoop& loop,
                            const std::vector<double>& taskSeconds) const;

  /// Feeds the completed launch's per-piece task seconds to the Rebalancer
  /// and, when its window says so, swaps the loop's `equal` base for a
  /// weighted partition and re-evaluates every derived partition (Section
  /// 3.3 path — no re-solve), verifying legality unconditionally afterwards.
  void maybeRebalance(const parallelize::PlannedLoop& loop,
                      const std::vector<double>& taskSeconds);

  region::World& world_;
  const parallelize::ParallelPlan& plan_;
  std::size_t pieces_;
  ExecOptions options_;
  // The evaluator borrows the task pool for its parallel operator kernels,
  // so pool_ must outlive (be declared before) evaluator_.
  ThreadPool pool_;
  dpl::Evaluator evaluator_;
  bool prepared_ = false;
  std::size_t bufferedElements_ = 0;
  FaultTally tally_;
  /// Node ids still alive; task j of a launch runs on liveNodes_[j], and
  /// pieces_ == liveNodes_.size() at all times.
  std::vector<std::size_t> liveNodes_;
  /// Externally bound partitions, remembered for checkpointing and for
  /// rebinding after a restore.
  std::map<std::string, region::Partition> externals_;
  std::unique_ptr<CheckpointManager> checkpoints_;
  /// Consulted after every launch when options_.adaptive is on.
  Rebalancer rebalancer_;
  /// Base symbols currently replaced by weighted partitions, and the plan's
  /// DPL program minus their definitions. Checkpoints deliberately exclude
  /// these: a restore reverts to the solver's unweighted bases (the window
  /// that justified the weights is stale after a restore/shrink anyway).
  std::map<std::string, region::Partition> rebalancedBases_;
  dpl::Program activeDpl_;
  /// Lazily created when the first launch runs with
  /// ExecBackend::MultiProcess.
  std::unique_ptr<dist::Coordinator> coordinator_;
  /// Bumped by every successful preparePartitions(): the Coordinator
  /// respawns its fork-inherited worker fleet, and runInProcess rebuilds
  /// its task kernels, when this changes.
  std::uint64_t prepareEpoch_ = 0;
  /// The in-process task kernels and owner tables, built against prepare
  /// epoch kernelsEpoch_.
  std::optional<KernelCache> kernels_;
  std::uint64_t kernelsEpoch_ = 0;
  std::uint64_t planHash_ = 0;
  std::uint64_t launchesDone_ = 0;
  std::size_t checkpointRestores_ = 0;
  std::size_t elasticShrinks_ = 0;
};

}  // namespace dpart::runtime
