#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "parallelize/parallelize.hpp"
#include "region/partition.hpp"
#include "region/world.hpp"
#include "runtime/options.hpp"
#include "runtime/distributed/wire.hpp"
#include "runtime/task_exec.hpp"

namespace dpart::runtime::dist {

/// The coordinator of the multi-process shared-nothing backend
/// (docs/distributed-backend.md).
///
/// Each "node" is a real forked worker process reached over a pair of
/// AF_UNIX stream sockets (data + control). The worker inherits the
/// coordinator's World, plan and evaluated partitions by fork()'s
/// copy-on-write snapshot — the shard arrives by fork — so any partition
/// re-evaluation (restore, elastic shrink, rebalance) respawns the fleet,
/// keyed on the executor's prepare epoch.
///
/// Launches are atomic: all tasks are dispatched, all results collected,
/// and only then are write-backs applied to the coordinator's World; the
/// buffered contributions go back to the executor, whose launch tail merges
/// them exactly as it does in-process. An escalation (NodeLossError,
/// TaskFailure, PartitionViolation) before the apply leaves the World
/// untouched, so the executor's existing checkpoint-restore /
/// elastic-shrink recovery works unchanged.
///
/// Liveness: the coordinator pings every busy worker's control channel at
/// heartbeatIntervalMicros; a worker that misses pongs for
/// heartbeatTimeoutMicros is SIGKILLed and escalated as NodeLossError —
/// exactly the fate of an injected "node:<id>" PermanentCrash, which this
/// backend maps to a real SIGKILL of the worker process. Transient
/// transport failures (EOF, CRC mismatch, timeouts) are retried with a
/// bounded respawn-and-resend loop under capped exponential backoff
/// (sleeps routed through ResilienceOptions::sleepMicros), and escalate to
/// NodeLossError only when DistributedOptions::maxReconnects is exhausted.
class Coordinator {
 public:
  Coordinator(region::World& world, const parallelize::ParallelPlan& plan,
              const ExecOptions& options);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Brings the worker fleet in sync with the executor's state: on the
  /// first call, or whenever `prepareEpoch` or `liveNodes` changed, the old
  /// fleet is destroyed and one worker per entry of `liveNodes` is forked
  /// from the current coordinator state. `env` must outlive the fleet.
  void ensureWorkers(const std::map<std::string, region::Partition>& env,
                     const std::vector<std::size_t>& liveNodes,
                     std::uint64_t prepareEpoch);

  /// Runs one loop launch across the fleet (see class comment), counting
  /// replays and injected stalls into `tally` as they happen. Throws
  /// NodeLossError / TaskFailure / PartitionViolation with the same
  /// semantics as the in-process executor.
  [[nodiscard]] LaunchStats runLoop(const parallelize::PlannedLoop& loop,
                                    FaultTally& tally);

  /// Shuts the fleet down (Shutdown frame, then SIGKILL, then reap). Safe
  /// to call repeatedly; the destructor calls it.
  void shutdown();

  /// Pid of worker j, or -1 when not running. Tests use this to SIGSTOP /
  /// SIGKILL real worker processes from outside the fault injector.
  [[nodiscard]] pid_t workerPid(std::size_t j) const {
    return j < workers_.size() ? workers_[j].pid : -1;
  }

  /// Ghost traffic of the most recent launch of each loop, for validating
  /// sim/ClusterSim's communication model against measured bytes/messages.
  [[nodiscard]] const std::map<std::string, std::pair<std::uint64_t,
                                                      std::uint64_t>>&
  lastGhostTraffic() const {
    return lastGhost_;
  }

 private:
  struct Worker {
    pid_t pid = -1;
    int dataFd = -1;
    int controlFd = -1;
    std::size_t nodeId = 0;
    /// Set when a "node:<id>" fault site SIGKILLed this worker on purpose:
    /// its death must escalate as NodeLossError immediately instead of
    /// entering the transient respawn-and-resend path.
    bool killedByInjector = false;
    /// Bumped on every (re)spawn; lets the collect loop detect that poll
    /// results it is iterating refer to a worker that has since been
    /// replaced (fd numbers get reused).
    std::uint64_t generation = 0;
    std::uint64_t lastPongMicros = 0;
    /// Stale cells per "region.field": indices whose coordinator value has
    /// changed since this worker last saw them. Cleared on (re)spawn — a
    /// fresh fork is an exact copy.
    std::map<std::string, region::IndexSet> dirty;
  };

  void spawnWorker(std::size_t j);
  void destroyWorker(std::size_t j, bool sendShutdown);
  /// Respawn-and-resend with capped exponential backoff; throws
  /// NodeLossError when maxReconnects is exhausted or the death was
  /// deliberate (killedByInjector / heartbeat timeout).
  void recoverWorker(std::size_t j, const parallelize::PlannedLoop& loop,
                     int& reconnects, const std::string& why);
  /// The stale cells worker j's task may read or ship back, under piece
  /// j's ownership guard `own`.
  [[nodiscard]] std::vector<FieldSlice> buildRefresh(
      const parallelize::PlannedLoop& loop, std::size_t j,
      const region::IndexSet* own);
  /// Sends task j with its refresh slices; counts them as ghost traffic
  /// into `ghost` when set.
  void sendTask(std::size_t j, const parallelize::PlannedLoop& loop,
                std::uint64_t seq, std::vector<FieldSlice> refresh,
                LaunchStats* ghost);
  void applyResults(const parallelize::PlannedLoop& loop,
                    std::vector<ResultMsg>& results, LaunchStats& stats);
  void publishNetMetrics();
  [[nodiscard]] std::size_t pieces() const { return workers_.size(); }

  region::World& world_;
  const parallelize::ParallelPlan& plan_;
  const ExecOptions& options_;
  const std::map<std::string, region::Partition>* env_ = nullptr;
  std::vector<Worker> workers_;
  std::vector<std::size_t> liveNodes_;
  std::uint64_t epoch_ = 0;
  bool spawned_ = false;
  std::uint64_t launchSeq_ = 0;
  NetCounters net_;
  NetCounters publishedNet_;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> lastGhost_;
};

}  // namespace dpart::runtime::dist
