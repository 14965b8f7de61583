#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "region/partition.hpp"
#include "support/fault.hpp"
#include "support/observability.hpp"

namespace dpart::runtime {

/// Task-replay resilience knobs (DESIGN.md §7). Grouped so call sites read
/// as `opts.resilience.taskReplay = true` and so Session can expose the
/// group wholesale.
struct ResilienceOptions {
  /// Enables task-level replay: each task's in-place write footprint (its
  /// subregion plus in-place reduction targets) is snapshotted before the
  /// first attempt and restored before every retry, so replay is idempotent
  /// under all four reduction strategies.
  bool taskReplay = false;
  /// Maximum replays per task per loop launch before the TaskFailure
  /// propagates (taskReplay mode only).
  int maxTaskRetries = 3;
  /// Base of the exponential backoff between replays, microseconds
  /// (attempt k sleeps base << k); 0 disables the backoff.
  std::uint64_t retryBackoffMicros = 0;
  /// Fault injector consulted at the "loop:<name>", "task:<loop>:<piece>",
  /// "node:<id>" and "dpl:<op>" sites; nullptr disables injection.
  FaultInjector* faultInjector = nullptr;
  /// Replaces the real sleep behind straggler stalls and retry backoff, so
  /// fault tests run without wall-clock delays. Must be thread-safe (tasks
  /// sleep concurrently); empty keeps real sleeping.
  std::function<void(std::uint64_t)> sleepMicros;
};

/// Durable checkpoint/restore knobs (DESIGN.md §8).
struct CheckpointOptions {
  /// Directory for durable end-of-launch checkpoints (created if missing);
  /// empty disables checkpointing, and with it restore/elastic-shrink
  /// escalation.
  std::string dir;
  /// Take a checkpoint after every N completed loop launches. A baseline
  /// checkpoint (launch 0) is always taken before the first launch.
  int everyNLaunches = 1;
  /// Rebuilds an externally bound partition for a new piece count after an
  /// elastic shrink. Without it, a shrink with externals whose piece count
  /// no longer matches fails the restore.
  std::function<region::Partition(const std::string&, std::size_t)>
      externalRebind;
};

/// Which execution backend runs a plan's loop launches.
enum class ExecBackend {
  /// Tasks run on a thread pool inside this process (the default; all
  /// resilience faults are simulated in-address-space).
  InProcess,
  /// Tasks run on real forked worker processes over local sockets
  /// (runtime/distributed): each node holds its own copy of the World,
  /// ghost refreshes and reduction merges travel as framed messages, and
  /// "node:<id>" fault sites SIGKILL the actual worker process.
  MultiProcess,
};

/// Knobs of the multi-process backend (runtime/distributed). All sleeps the
/// transport performs (reconnect backoff) are routed through
/// ResilienceOptions::sleepMicros when set; heartbeat *timing* uses the
/// real clock, since it measures the liveness of a separate process.
struct DistributedOptions {
  ExecBackend backend = ExecBackend::InProcess;
  /// Coordinator pings each busy worker this often (microseconds).
  std::uint64_t heartbeatIntervalMicros = 50'000;
  /// A worker that answers no ping for this long is declared dead
  /// (SIGKILLed and escalated like NodeLossError).
  std::uint64_t heartbeatTimeoutMicros = 2'000'000;
  /// Transient transport failures (unexpected worker death, socket error,
  /// corrupt frame) tolerated per worker per launch before escalating to
  /// node loss. Each retry respawns the worker from the coordinator's
  /// authoritative state.
  int maxReconnects = 2;
  /// Base of the capped exponential reconnect backoff, microseconds
  /// (attempt k sleeps min(base << k, maxBackoffMicros)).
  std::uint64_t reconnectBackoffMicros = 1'000;
  /// Cap on a single reconnect backoff sleep, microseconds.
  std::uint64_t maxBackoffMicros = 200'000;
  /// Largest wire-frame payload either side will accept; a corrupt length
  /// prefix beyond this fails fast instead of attempting the allocation.
  std::uint64_t maxFrameBytes = std::uint64_t{1} << 30;
  /// Deadline for receiving one expected frame from a live worker,
  /// microseconds. Distinct from the heartbeat timeout: this bounds how
  /// long a *partial* frame may dribble in.
  std::uint64_t recvTimeoutMicros = 10'000'000;
};

/// Execution options for PlanExecutor / Session, grouped by concern:
/// scheduling and validation at the top level, with nested resilience,
/// checkpoint and observability option sets.
struct ExecOptions {
  /// Worker threads; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Check every region access against the subregion its statement was
  /// assigned — the dynamic partition-legality check used by the tests.
  /// Violations throw PartitionViolation with loop/field/stmt/index context.
  bool validateAccesses = false;
  /// Run the partition legality verifier (region/verify) after
  /// preparePartitions() and after any loop launch that replayed a task.
  bool verifyPartitions = false;
  ResilienceOptions resilience;
  CheckpointOptions checkpoint;
  ObservabilityOptions observability;
  /// Skew-aware adaptive repartitioning (DESIGN.md §11): the executor hands
  /// each launch's per-piece task CPU times to a runtime::Rebalancer and,
  /// when a loop's measured times are skewed past their own launch-to-launch
  /// noise, swaps that loop's `equal` base partition for a weighted one
  /// (region::equalWeighted) routed through the external-binding path of
  /// Section 3.3: derived image/preimage partitions are re-evaluated, never
  /// re-solved, exactly like an elastic shrink. Session::adaptive() turns
  /// it on.
  bool adaptive = false;
  DistributedOptions distributed;
};

}  // namespace dpart::runtime
