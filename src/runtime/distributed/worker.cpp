#include "runtime/distributed/worker.hpp"

#include <poll.h>

#include <cerrno>
#include <thread>
#include <vector>

#include "runtime/distributed/wire.hpp"
#include "runtime/task_exec.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"

namespace dpart::runtime::dist {

namespace {

/// Blocks until `fd` is readable or hung up (no deadline: idle waits
/// between frames are the coordinator's to supervise, via heartbeats).
void waitReadable(int fd) {
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, -1) >= 0) return;
    if (errno != EINTR) return;  // recv will surface the error
  }
}

/// Answers Pings on the control channel until EOF. Runs on its own thread
/// so a worker grinding through a long task still proves it is alive.
void heartbeatLoop(const WorkerConfig& cfg) {
  try {
    for (;;) {
      waitReadable(cfg.controlFd);
      auto frame = recvFrame(cfg.controlFd, cfg.recvTimeoutMicros,
                             cfg.maxFrameBytes, cfg.nodeId);
      if (!frame.has_value()) return;  // coordinator closed the channel
      if (frame->type == MsgType::Ping) {
        sendFrame(cfg.controlFd, MsgType::Pong, frame->payload, cfg.nodeId);
      } else if (frame->type == MsgType::Shutdown) {
        return;
      }
    }
  } catch (...) {
    // A broken control channel is not fatal by itself: the data channel
    // decides the worker's fate, and a silent worker is killed by the
    // coordinator's heartbeat timeout anyway.
  }
}

const parallelize::PlannedLoop* findLoop(const parallelize::ParallelPlan& plan,
                                         const std::string& name) {
  for (const parallelize::PlannedLoop& pl : plan.loops) {
    if (pl.loop->name == name) return &pl;
  }
  return nullptr;
}

/// Runs one task with exactly the in-process executor's machinery
/// (runtime/task_exec) and packages its observable effect: the in-place
/// write footprint's values plus the buffered-reduction contributions.
ResultMsg runTask(const WorkerConfig& cfg, KernelCache& kernels,
                  const TaskMsg& task) {
  const ThreadCpuTimer timer;
  const parallelize::PlannedLoop* loop = findLoop(*cfg.plan, task.loop);
  DPART_CHECK(loop != nullptr, "worker has no loop named '" + task.loop + "'");
  const std::size_t j = static_cast<std::size_t>(task.piece);
  const region::Partition& iter = cfg.env->at(loop->iterPartition);
  DPART_CHECK(j < iter.count(), "task piece out of range");

  // Overwrite the stale cells with the coordinator's authoritative values
  // (the explicit ghost-region exchange).
  for (const FieldSlice& s : task.refresh) applySlice(*cfg.world, s);

  // The kernel, its ownership guards and the footprint come from the
  // in-process path's own functions over the same (fork-inherited)
  // partitions, so both backends make identical write/skip decisions.
  const TaskKernel& kernel = kernels.kernel(*loop);
  const TaskFootprint footprint =
      buildFootprint(*cfg.world, *loop, j, *cfg.env, kernel.ownership(j));
  TaskState state(kernel);
  kernel.run(j, iter.sub(j), state);

  ResultMsg result;
  result.seq = task.seq;
  result.piece = task.piece;
  for (const TaskFootprint::Patch& p : footprint.patches()) {
    result.writes.push_back(
        gatherSlice(*cfg.world, p.region, p.field, p.indices));
  }
  result.reduces = state.contributions();
  result.taskSeconds = timer.seconds();
  return result;
}

}  // namespace

int workerMain(const WorkerConfig& cfg) {
  std::thread heartbeat([&cfg] { heartbeatLoop(cfg); });
  // The process exits via _exit(), which tears the thread down with the
  // address space; there is no clean-join handshake to get wrong.
  heartbeat.detach();

  // The fleet's partitions never change (a re-evaluation respawns it), so
  // the kernels built for its first tasks serve every later one.
  KernelCache kernels(*cfg.world, *cfg.env, cfg.validateAccesses);
  try {
    for (;;) {
      waitReadable(cfg.dataFd);
      auto frame = recvFrame(cfg.dataFd, cfg.recvTimeoutMicros,
                             cfg.maxFrameBytes, cfg.nodeId);
      if (!frame.has_value()) return 0;  // coordinator went away: fold
      if (frame->type == MsgType::Shutdown) return 0;
      if (frame->type != MsgType::Task) {
        // Protocol confusion is unrecoverable worker-side; die loudly and
        // let the coordinator's retry/escalation policy decide.
        return 2;
      }
      TaskMsg task;
      try {
        BinaryReader r(frame->payload);
        task = decodeTask(r);
      } catch (const CheckpointCorruption&) {
        return 2;  // malformed Task payload that passed CRC: give up
      }
      try {
        const ResultMsg result = runTask(cfg, kernels, task);
        sendFrame(cfg.dataFd, MsgType::Result, encodeResult(result),
                  cfg.nodeId);
      } catch (const Error& e) {
        // One handler for the whole taxonomy: the subclass's stable numeric
        // code travels the wire and the coordinator rethrows from it.
        TaskErrorMsg err{task.seq, task.piece, toString(e.errorCode()),
                         e.what(), e.errorCode()};
        sendFrame(cfg.dataFd, MsgType::TaskError, encodeTaskError(err),
                  cfg.nodeId);
      }
    }
  } catch (const TransportError&) {
    return 2;
  } catch (...) {
    return 2;
  }
}

}  // namespace dpart::runtime::dist
