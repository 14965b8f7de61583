#include "runtime/distributed/coordinator.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "ir/ir.hpp"
#include "runtime/distributed/worker.hpp"
#include "runtime/executor.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/sleep.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace dpart::runtime::dist {

namespace {

using region::Index;
using region::IndexSet;
using region::Partition;

std::string fieldKey(const std::string& region, const std::string& field) {
  return region + "." + field;
}

}  // namespace

Coordinator::Coordinator(region::World& world,
                         const parallelize::ParallelPlan& plan,
                         const ExecOptions& options)
    : world_(world), plan_(plan), options_(options) {}

Coordinator::~Coordinator() { shutdown(); }

void Coordinator::ensureWorkers(
    const std::map<std::string, Partition>& env,
    const std::vector<std::size_t>& liveNodes, std::uint64_t prepareEpoch) {
  if (spawned_ && prepareEpoch == epoch_ && liveNodes == liveNodes_) return;
  // Partitions were re-evaluated (first prepare, restore, shrink or
  // rebalance): the fleet's fork-inherited view of them is stale, so the
  // whole fleet is replaced by fresh copy-on-write snapshots.
  shutdown();
  env_ = &env;
  liveNodes_ = liveNodes;
  epoch_ = prepareEpoch;
  workers_.assign(liveNodes.size(), Worker{});
  for (std::size_t j = 0; j < workers_.size(); ++j) {
    workers_[j].nodeId = liveNodes[j];
  }
  for (std::size_t j = 0; j < workers_.size(); ++j) spawnWorker(j);
  spawned_ = true;
  if (Tracer* tr = options_.observability.tracer;
      tr != nullptr && tr->enabled()) {
    tr->instant("dist", "fleet.spawn",
                "\"workers\":" + std::to_string(workers_.size()) +
                    ",\"epoch\":" + std::to_string(epoch_));
  }
}

void Coordinator::spawnWorker(std::size_t j) {
  Worker& w = workers_[j];
  int data[2];
  int ctrl[2];
  DPART_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, data) == 0,
              std::string("socketpair failed: ") + std::strerror(errno));
  DPART_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, ctrl) == 0,
              std::string("socketpair failed: ") + std::strerror(errno));
  const pid_t pid = ::fork();
  DPART_CHECK(pid >= 0, std::string("fork failed: ") + std::strerror(errno));
  if (pid == 0) {
    // Worker process. Close the coordinator-side ends and every other
    // worker's descriptors (a crashing sibling must not be kept half-alive
    // by our copies of its sockets), run the worker body, and _exit without
    // ever returning into the parent's stack.
    ::close(data[0]);
    ::close(ctrl[0]);
    for (const Worker& other : workers_) {
      if (&other == &w) continue;
      if (other.dataFd >= 0) ::close(other.dataFd);
      if (other.controlFd >= 0) ::close(other.controlFd);
    }
    WorkerConfig wc;
    wc.world = &world_;
    wc.plan = &plan_;
    wc.env = env_;
    wc.validateAccesses = options_.validateAccesses;
    wc.nodeId = w.nodeId;
    wc.dataFd = data[1];
    wc.controlFd = ctrl[1];
    wc.maxFrameBytes = options_.distributed.maxFrameBytes;
    wc.recvTimeoutMicros = options_.distributed.recvTimeoutMicros;
    ::_exit(workerMain(wc));
  }
  ::close(data[1]);
  ::close(ctrl[1]);
  w.pid = pid;
  w.dataFd = data[0];
  w.controlFd = ctrl[0];
  w.killedByInjector = false;
  ++w.generation;
  w.lastPongMicros = monotonicMicros();
  w.dirty.clear();
}

void Coordinator::destroyWorker(std::size_t j, bool sendShutdown) {
  Worker& w = workers_[j];
  if (sendShutdown && w.dataFd >= 0 && w.pid >= 0) {
    try {
      sendFrame(w.dataFd, MsgType::Shutdown, {}, w.nodeId, &net_);
    } catch (const TransportError&) {
      // Already dead; SIGKILL below is the ground truth.
    }
  }
  if (w.dataFd >= 0) ::close(w.dataFd);
  if (w.controlFd >= 0) ::close(w.controlFd);
  w.dataFd = w.controlFd = -1;
  if (w.pid >= 0) {
    // SIGKILL after the Shutdown courtesy: reaping below must terminate
    // even if the worker is wedged mid-task. Harmless if already exited.
    ::kill(w.pid, SIGKILL);
    int status = 0;
    while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
    }
    w.pid = -1;
  }
}

void Coordinator::shutdown() {
  for (std::size_t j = 0; j < workers_.size(); ++j) {
    destroyWorker(j, /*sendShutdown=*/true);
  }
  spawned_ = false;
}

std::vector<FieldSlice> Coordinator::buildRefresh(
    const parallelize::PlannedLoop& loop, std::size_t j, const IndexSet* own) {
  Worker& w = workers_[j];
  if (w.dirty.empty()) return {};

  // Everything the task may read or ship back: LoadF64 read sets (the
  // assigned access subregion, or the whole region when the planner left a
  // load unassigned) plus the in-place write/reduce footprint. The
  // footprint matters even where the task never reads: the worker returns
  // ALL footprint indices (e.g. a Guarded reduce's whole guard set), so any
  // stale footprint cell would round-trip back over a fresher coordinator
  // value.
  std::map<std::pair<std::string, std::string>, IndexSet> needed;
  auto addNeed = [&](const std::string& region, const std::string& field,
                     const IndexSet& set) {
    auto key = std::make_pair(region, field);
    auto it = needed.find(key);
    if (it == needed.end()) {
      needed.emplace(std::move(key), set);
    } else {
      it->second = it->second.unionWith(set);
    }
  };
  loop.loop->forEachStmt([&](const ir::Stmt& s) {
    if (s.kind != ir::StmtKind::LoadF64) return;
    auto it = loop.accessPartition.find(s.id);
    if (it != loop.accessPartition.end()) {
      addNeed(s.region, s.field, env_->at(it->second).sub(j));
    } else {
      addNeed(s.region, s.field, world_.region(s.region).indexSpace());
    }
  });
  const TaskFootprint footprint = buildFootprint(world_, loop, j, *env_, own);
  for (const TaskFootprint::Patch& p : footprint.patches()) {
    addNeed(p.region, p.field, p.indices);
  }

  std::vector<FieldSlice> out;
  for (const auto& [key, set] : needed) {
    auto dit = w.dirty.find(fieldKey(key.first, key.second));
    if (dit == w.dirty.end()) continue;
    IndexSet stale = set.intersectWith(dit->second);
    if (stale.empty()) continue;
    dit->second = dit->second.subtract(stale);
    if (dit->second.empty()) w.dirty.erase(dit);
    out.push_back(gatherSlice(world_, key.first, key.second, std::move(stale)));
  }
  return out;
}

void Coordinator::sendTask(std::size_t j, const parallelize::PlannedLoop& loop,
                           std::uint64_t seq, std::vector<FieldSlice> refresh,
                           LaunchStats* ghost) {
  Worker& w = workers_[j];
  if (w.pid < 0) {
    ErrorContext ctx;
    ctx.piece = static_cast<int>(j);
    throw TransportError(w.nodeId, "worker process is not running",
                         std::move(ctx));
  }
  TaskMsg msg;
  msg.seq = seq;
  msg.loop = loop.loop->name;
  msg.piece = j;
  msg.refresh = std::move(refresh);
  if (ghost != nullptr) {
    ghost->ghostElems += sliceElements(msg.refresh);
    ghost->ghostMessages += msg.refresh.size();
  }
  // A "net:<loop>:<piece>" Poison site puts a genuinely corrupt frame on
  // the wire: the payload is damaged after the CRC is computed, the worker
  // rejects it and dies, and the coordinator's reconnect path must recover.
  std::function<void(std::vector<std::uint8_t>&)> tamper;
  if (FaultInjector* injector = options_.resilience.faultInjector;
      injector != nullptr) {
    const std::string site =
        "net:" + loop.loop->name + ":" + std::to_string(j);
    if (auto fault = injector->fire(site);
        fault && fault->kind == FaultKind::Poison) {
      tamper = [](std::vector<std::uint8_t>& bytes) {
        if (!bytes.empty()) bytes[bytes.size() / 2] ^= 0x40;
      };
    }
  }
  sendFrame(w.dataFd, MsgType::Task, encodeTask(msg), w.nodeId, &net_,
            tamper);
}

void Coordinator::recoverWorker(std::size_t j,
                                const parallelize::PlannedLoop& loop,
                                int& reconnects, const std::string& why) {
  Worker& w = workers_[j];
  const std::size_t nodeId = w.nodeId;
  ErrorContext ctx;
  ctx.site = "node:" + std::to_string(nodeId);
  ctx.loop = loop.loop->name;
  ctx.piece = static_cast<int>(j);
  MetricsRegistry* mx = options_.observability.metrics;
  Tracer* tr = options_.observability.tracer;
  if (w.killedByInjector) {
    // A deliberate kill is a node loss, not a flaky link: no reconnect.
    destroyWorker(j, /*sendShutdown=*/false);
    throw NodeLossError(nodeId, "worker process killed by fault injection",
                        std::move(ctx));
  }
  for (;;) {
    if (reconnects >= options_.distributed.maxReconnects) {
      destroyWorker(j, /*sendShutdown=*/false);
      throw NodeLossError(
          nodeId,
          "worker lost after " + std::to_string(reconnects) +
              " reconnect attempt(s): " + why,
          std::move(ctx));
    }
    // Capped exponential backoff, routed through the sleep hook so tests
    // (and simulations) observe the schedule without real waiting.
    const std::uint64_t backoff =
        std::min(options_.distributed.reconnectBackoffMicros
                     << static_cast<unsigned>(reconnects),
                 options_.distributed.maxBackoffMicros);
    ++reconnects;
    if (mx != nullptr) mx->counter("executor.net.reconnectsTotal").inc();
    if (tr != nullptr && tr->enabled()) {
      tr->instant("dist", "reconnect",
                  "\"node\":" + std::to_string(nodeId) +
                      ",\"attempt\":" + std::to_string(reconnects) +
                      ",\"backoff_us\":" + std::to_string(backoff) +
                      ",\"why\":\"" + jsonEscape(why) + "\"");
    }
    sleepOrHook(options_.resilience.sleepMicros, backoff);
    destroyWorker(j, /*sendShutdown=*/false);
    spawnWorker(j);
    try {
      // The respawned worker is a fresh copy-on-write snapshot of the
      // coordinator (results are only applied after the full launch
      // collects), so the resent task needs no refresh slices.
      sendTask(j, loop, launchSeq_, {}, /*ghost=*/nullptr);
      if (mx != nullptr) mx->counter("executor.net.retriesTotal").inc();
      return;
    } catch (const TransportError&) {
      countError(options_, "TransportError");
    }
  }
}

void Coordinator::applyResults(const parallelize::PlannedLoop& loop,
                               std::vector<ResultMsg>& results,
                               LaunchStats& stats) {
  const std::size_t n = pieces();
  auto markDirty = [&](std::size_t m, const std::string& region,
                       const std::string& field, const IndexSet& set) {
    IndexSet& d = workers_[m].dirty[fieldKey(region, field)];
    d = d.unionWith(set);
  };
  // In-place write-backs (disjoint across tasks by the plan's legality
  // properties), in piece order — these cells were written during task
  // execution in the in-process backend, before any buffer merge.
  for (std::size_t j = 0; j < n; ++j) {
    for (const FieldSlice& s : results[j].writes) {
      applySlice(world_, s);
      // Every other worker's fork now disagrees with these cells.
      for (std::size_t m = 0; m < n; ++m) {
        if (m != j) markDirty(m, s.region, s.field, s.indices);
      }
    }
  }
  // The buffered contributions go to the executor's launch tail. The cells
  // they merge into are stale on EVERY fork, including the contributor's:
  // its local copy buffered the contribution without applying it.
  stats.buffered.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    for (const ReduceSlice& rs : results[j].reduces) {
      const ir::Stmt* stmt = loop.loop->findStmt(static_cast<int>(rs.stmtId));
      DPART_CHECK(stmt != nullptr,
                  "worker result names unknown reduce stmt " +
                      std::to_string(rs.stmtId));
      std::vector<Index> touched;
      touched.reserve(rs.entries.size());
      for (const auto& entry : rs.entries) touched.push_back(entry.first);
      const IndexSet touchedSet = IndexSet::fromIndices(std::move(touched));
      for (std::size_t m = 0; m < n; ++m) {
        markDirty(m, stmt->region, stmt->field, touchedSet);
      }
    }
    stats.buffered[j] = std::move(results[j].reduces);
    stats.taskSeconds[j] = results[j].taskSeconds;
  }
}

void Coordinator::publishNetMetrics() {
  MetricsRegistry* mx = options_.observability.metrics;
  if (mx == nullptr) return;
  mx->counter("executor.net.bytesSentTotal")
      .inc(net_.bytesSent - publishedNet_.bytesSent);
  mx->counter("executor.net.bytesRecvTotal")
      .inc(net_.bytesRecv - publishedNet_.bytesRecv);
  mx->counter("executor.net.messagesSentTotal")
      .inc(net_.messagesSent - publishedNet_.messagesSent);
  mx->counter("executor.net.messagesRecvTotal")
      .inc(net_.messagesRecv - publishedNet_.messagesRecv);
  publishedNet_ = net_;
}

LaunchStats Coordinator::runLoop(const parallelize::PlannedLoop& loop,
                                 FaultTally& tally) {
  DPART_CHECK(spawned_, "ensureWorkers() must precede runLoop()");
  const std::size_t n = pieces();
  LaunchStats stats;
  stats.taskSeconds.assign(n, 0.0);
  const std::uint64_t seq = ++launchSeq_;
  MetricsRegistry* mx = options_.observability.metrics;
  Tracer* tr = options_.observability.tracer;

  // Every task's fault sites fire before any dispatch. Nothing has run
  // yet, so a crash has no prefix to land and a replay no worker-side state
  // to restore; a node loss is a real SIGKILL of the worker process, and
  // the launch has applied nothing to the coordinator's World to roll back.
  const auto nothing = [] {};
  for (std::size_t j = 0; j < n; ++j) {
    Worker& w = workers_[j];
    auto killWorker = [this, &w, j, tr] {
      w.killedByInjector = true;
      if (w.pid >= 0) ::kill(w.pid, SIGKILL);
      if (tr != nullptr && tr->enabled()) {
        tr->instant("dist", "node.kill",
                    "\"node\":" + std::to_string(w.nodeId) +
                        ",\"pid\":" + std::to_string(w.pid));
      }
      destroyWorker(j, /*sendShutdown=*/false);
    };
    runTaskAttempts(options_, loop.loop->name, j, w.nodeId, tally,
                    TaskEffects{.run = nothing,
                                .prefix = [](double) {},
                                .kill = killWorker,
                                .poison = nothing,
                                .restore = nothing});
  }

  // Dispatch: refresh slices (the ghost exchange) + launch order, with a
  // bounded respawn-and-resend path for transient transport failures.
  const OwnershipGuards guards(loop, env_->at(loop.iterPartition));
  int reconnects = 0;
  for (std::size_t j = 0; j < n; ++j) {
    try {
      sendTask(j, loop, seq, buildRefresh(loop, j, guards.of(j)), &stats);
    } catch (const TransportError&) {
      countError(options_, "TransportError");
      recoverWorker(j, loop, reconnects, "task dispatch failed");
    }
  }
  lastGhost_[loop.loop->name] = {stats.ghostElems, stats.ghostMessages};
  if (mx != nullptr) {
    mx->counter("executor.net.ghostElemsTotal", {{"loop", loop.loop->name}})
        .inc(stats.ghostElems);
    mx->counter("executor.net.ghostMessagesTotal",
                {{"loop", loop.loop->name}})
        .inc(stats.ghostMessages);
  }

  // Collect: poll the fleet's data channels for Results and the control
  // channels for Pongs, pinging at the heartbeat cadence. A worker that
  // stops answering for heartbeatTimeoutMicros is SIGKILLed and escalated
  // exactly like an injected permanent node crash.
  std::vector<ResultMsg> results(n);
  std::vector<bool> done(n, false);
  std::size_t remaining = n;
  const std::uint64_t hbInterval =
      options_.distributed.heartbeatIntervalMicros;
  const std::uint64_t hbTimeout = options_.distributed.heartbeatTimeoutMicros;
  const bool heartbeats = hbInterval > 0 && hbTimeout > 0;
  std::uint64_t now = monotonicMicros();
  for (Worker& w : workers_) w.lastPongMicros = now;
  std::uint64_t nextPing = now + hbInterval;

  auto handleData = [&](std::size_t j) {
    Worker& w = workers_[j];
    auto frame = recvFrame(w.dataFd, options_.distributed.recvTimeoutMicros,
                           options_.distributed.maxFrameBytes, w.nodeId,
                           &net_);
    if (!frame.has_value()) {
      countError(options_, "TransportError");
      recoverWorker(j, loop, reconnects, "worker closed its data channel");
      return;
    }
    if (frame->type == MsgType::Result) {
      ResultMsg res;
      try {
        BinaryReader r(frame->payload);
        res = decodeResult(r);
      } catch (const CheckpointCorruption& e) {
        countError(options_, "TransportError");
        recoverWorker(j, loop, reconnects,
                      std::string("malformed Result payload: ") + e.what());
        return;
      }
      if (res.seq != seq || res.piece != j) {
        // A stale or reordered acknowledgment; the worker's stream is no
        // longer trustworthy for this launch.
        countError(options_, "TransportError");
        recoverWorker(j, loop, reconnects, "out-of-order Result frame");
        return;
      }
      results[j] = std::move(res);
      done[j] = true;
      --remaining;
      return;
    }
    if (frame->type == MsgType::TaskError) {
      TaskErrorMsg err;
      try {
        BinaryReader r(frame->payload);
        err = decodeTaskError(r);
      } catch (const CheckpointCorruption& e) {
        countError(options_, "TransportError");
        recoverWorker(j, loop, reconnects,
                      std::string("malformed TaskError payload: ") + e.what());
        return;
      }
      ErrorContext ctx;
      ctx.site = "node:" + std::to_string(w.nodeId);
      ctx.loop = loop.loop->name;
      ctx.piece = static_cast<int>(j);
      // Dispatch on the stable numeric code, not the kind string. A
      // PartitionViolation is a legality failure and must propagate as
      // itself (replay would just violate again); every other code — a
      // worker-side TaskFailure, EvalFailure, plain Error — escalates as a
      // retryable TaskFailure so the bounded replay policy applies.
      if (err.code == ErrorCode::PartitionViolation) {
        throw PartitionViolation("worker reported: " + err.what,
                                 std::move(ctx));
      }
      countError(options_, "TaskFailure");
      throw TaskFailure("worker reported: " + err.what, std::move(ctx));
    }
    countError(options_, "TransportError");
    recoverWorker(j, loop, reconnects,
                  std::string("unexpected ") + toString(frame->type) +
                      " frame on the data channel");
  };

  while (remaining > 0) {
    now = monotonicMicros();
    if (heartbeats && now >= nextPing) {
      for (std::size_t j = 0; j < n; ++j) {
        if (done[j] || workers_[j].pid < 0) continue;
        try {
          sendFrame(workers_[j].controlFd, MsgType::Ping, {},
                    workers_[j].nodeId, &net_);
          if (mx != nullptr) {
            mx->counter("executor.heartbeat.pingsTotal").inc();
          }
        } catch (const TransportError&) {
          // The data channel (HUP) or the timeout below will notice.
        }
      }
      nextPing = now + hbInterval;
    }
    if (heartbeats) {
      for (std::size_t j = 0; j < n; ++j) {
        Worker& w = workers_[j];
        if (done[j] || w.pid < 0) continue;
        if (now - w.lastPongMicros <= hbTimeout) continue;
        if (mx != nullptr) {
          mx->counter("executor.heartbeat.timeoutsTotal").inc();
        }
        if (tr != nullptr && tr->enabled()) {
          tr->instant("dist", "heartbeat.timeout",
                      "\"node\":" + std::to_string(w.nodeId) +
                          ",\"silent_us\":" +
                          std::to_string(now - w.lastPongMicros));
        }
        const std::size_t nodeId = w.nodeId;
        ::kill(w.pid, SIGKILL);
        destroyWorker(j, /*sendShutdown=*/false);
        ErrorContext ctx;
        ctx.site = "node:" + std::to_string(nodeId);
        ctx.loop = loop.loop->name;
        ctx.piece = static_cast<int>(j);
        throw NodeLossError(nodeId,
                            "worker heartbeat timed out after " +
                                std::to_string(now - w.lastPongMicros) +
                                "us",
                            std::move(ctx));
      }
    }

    std::vector<pollfd> fds;
    std::vector<std::pair<std::size_t, bool>> who;  // (worker, isControl)
    for (std::size_t j = 0; j < n; ++j) {
      if (done[j] || workers_[j].pid < 0) continue;
      fds.push_back({workers_[j].dataFd, POLLIN, 0});
      who.emplace_back(j, false);
      fds.push_back({workers_[j].controlFd, POLLIN, 0});
      who.emplace_back(j, true);
    }
    if (fds.empty()) {
      // Every undone worker is dead with no fd to watch; recover them.
      for (std::size_t j = 0; j < n; ++j) {
        if (!done[j] && workers_[j].pid < 0) {
          countError(options_, "TransportError");
          recoverWorker(j, loop, reconnects, "worker process is gone");
        }
      }
      continue;
    }
    int waitMs = 100;
    if (heartbeats) {
      const std::uint64_t due = nextPing > now ? nextPing - now : 0;
      waitMs = static_cast<int>(
          std::min<std::uint64_t>(due / 1000 + 1, 1000));
    }
    const int pr = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                          waitMs);
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw TransportError(0, std::string("transport: poll: ") +
                                  std::strerror(errno));
    }
    if (pr == 0) continue;
    bool fleetChanged = false;
    for (std::size_t k = 0; k < fds.size() && !fleetChanged; ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const auto [j, isControl] = who[k];
      if (done[j] || workers_[j].pid < 0) continue;
      const std::uint64_t gen = workers_[j].generation;
      if (isControl) {
        try {
          auto frame = recvFrame(workers_[j].controlFd,
                                 options_.distributed.recvTimeoutMicros,
                                 options_.distributed.maxFrameBytes,
                                 workers_[j].nodeId, &net_);
          if (frame.has_value() && frame->type == MsgType::Pong) {
            workers_[j].lastPongMicros = monotonicMicros();
            if (mx != nullptr) {
              mx->counter("executor.heartbeat.pongsTotal").inc();
            }
          }
        } catch (const TransportError&) {
          // Control-channel damage alone is not fatal: the heartbeat
          // timeout or the data channel decides this worker's fate.
        }
      } else {
        try {
          handleData(j);
        } catch (const TransportError& e) {
          countError(options_, "TransportError");
          recoverWorker(j, loop, reconnects, e.what());
        }
        // A respawn replaced fds; the rest of this poll round is stale.
        fleetChanged = workers_[j].generation != gen;
      }
    }
  }

  // Atomic apply: only now, with every task's result in hand, does the
  // coordinator's World change. Everything above could throw and leave the
  // World exactly as the launch found it.
  applyResults(loop, results, stats);
  publishNetMetrics();
  return stats;
}

}  // namespace dpart::runtime::dist
