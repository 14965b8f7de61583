#include "runtime/task_exec.hpp"

#include <algorithm>
#include <limits>

#include "runtime/executor.hpp"
#include "support/check.hpp"
#include "support/sleep.hpp"

namespace dpart::runtime {

using optimize::ReduceStrategy;
using region::Index;
using region::IndexSet;
using region::Partition;

namespace {

/// First-claim disjointification of an aliased partition: index i is owned
/// by the lowest-numbered subregion containing it.
std::vector<IndexSet> disjointify(const Partition& p) {
  std::vector<IndexSet> owned;
  owned.reserve(p.count());
  IndexSet claimed;
  for (std::size_t j = 0; j < p.count(); ++j) {
    owned.push_back(p.sub(j).subtract(claimed));
    claimed = claimed.unionWith(p.sub(j));
  }
  return owned;
}

/// Whether the loop has a centered write (store, or reduce with no planned
/// strategy) that needs ownership-guarding under an aliased iteration
/// partition.
bool hasCenteredWrite(const parallelize::PlannedLoop& loop) {
  bool centered = false;
  loop.loop->forEachStmt([&](const ir::Stmt& s) {
    if (s.kind == ir::StmtKind::StoreF64 ||
        (s.kind == ir::StmtKind::ReduceF64 && !loop.reduces.contains(s.id))) {
      centered = true;
    }
  });
  return centered;
}

}  // namespace

FieldSlice gatherSlice(region::World& world, const std::string& regionName,
                       const std::string& field, IndexSet indices) {
  FieldSlice slice;
  slice.region = regionName;
  slice.field = field;
  auto column = world.region(regionName).f64(field);
  slice.values.reserve(static_cast<std::size_t>(indices.size()));
  indices.forEach([&](Index i) {
    slice.values.push_back(column[static_cast<std::size_t>(i)]);
  });
  slice.indices = std::move(indices);
  return slice;
}

void applySlice(region::World& world, const FieldSlice& slice) {
  auto column = world.region(slice.region).f64(slice.field);
  std::size_t k = 0;
  slice.indices.forEach([&](Index i) {
    column[static_cast<std::size_t>(i)] = slice.values[k++];
  });
}

TaskHooks::TaskHooks(const parallelize::PlannedLoop& loop, std::size_t piece,
                     const std::map<std::string, Partition>& env,
                     bool validate, const IndexSet* ownership)
    : loop_(loop), piece_(piece), env_(env), validate_(validate),
      ownership_(ownership) {
  for (const auto& [stmtId, rp] : loop.reduces) {
    ReduceState st;
    st.strategy = rp.strategy;
    if (rp.strategy == ReduceStrategy::Guarded) {
      st.guard = &env.at(rp.partition).sub(piece);
    } else if (rp.strategy == ReduceStrategy::PrivateSplit) {
      st.privSet = &env.at(rp.privatePart).sub(piece);
    }
    reduces_.emplace(stmtId, std::move(st));
  }
}

void TaskHooks::onAccess(const ir::Stmt& stmt, Index target) {
  if (!validate_) return;
  auto it = loop_.accessPartition.find(stmt.id);
  if (it == loop_.accessPartition.end()) {
    ErrorContext ctx;
    ctx.loop = loop_.loop->name;
    ctx.stmtId = stmt.id;
    ctx.piece = static_cast<int>(piece_);
    throw PartitionViolation(
        "access with no assigned partition: " + stmt.toString(),
        std::move(ctx));
  }
  const IndexSet& sub = env_.at(it->second).sub(piece_);
  // Guarded reductions may compute targets outside the task's subregion;
  // the guard rejects them before any memory access, so only *applied*
  // accesses are checked (handled in handleReduce).
  auto rit = reduces_.find(stmt.id);
  if (rit != reduces_.end() &&
      (rit->second.strategy == ReduceStrategy::Guarded)) {
    return;
  }
  if (!sub.contains(target)) {
    ErrorContext ctx;
    ctx.loop = loop_.loop->name;
    ctx.partition = it->second;
    ctx.field = stmt.region + "." + stmt.field;
    ctx.stmtId = stmt.id;
    ctx.index = target;
    ctx.piece = static_cast<int>(piece_);
    throw PartitionViolation(
        "illegal access: " + stmt.toString() + " touches index " +
            std::to_string(target) + " outside subregion " +
            std::to_string(piece_) + " of " + it->second,
        std::move(ctx));
  }
}

bool TaskHooks::shouldWrite(const ir::Stmt&, Index target) {
  return ownership_ == nullptr || ownership_->contains(target);
}

bool TaskHooks::handleReduce(const ir::Stmt& stmt, Index target,
                             double value) {
  auto it = reduces_.find(stmt.id);
  if (it == reduces_.end()) {
    // Centered reduction: ownership-guarded under aliased iteration.
    if (ownership_ != nullptr && !ownership_->contains(target)) {
      return true;  // another task owns this duplicated iteration
    }
    return false;
  }
  ReduceState& st = it->second;
  st.op = stmt.op;
  switch (st.strategy) {
    case ReduceStrategy::Direct:
      return false;
    case ReduceStrategy::Guarded:
      return !st.guard->contains(target);  // skip if not ours
    case ReduceStrategy::Buffered:
      break;
    case ReduceStrategy::PrivateSplit:
      if (st.privSet->contains(target)) return false;
      break;
  }
  auto [slot, inserted] =
      st.buffer.try_emplace(target, ir::reduceIdentity(stmt.op));
  slot->second = ir::applyReduce(stmt.op, slot->second, value);
  return true;
}

std::vector<ReduceSlice> TaskHooks::contributions() const {
  std::vector<ReduceSlice> out;
  for (const auto& [stmtId, st] : reduces_) {
    if (st.buffer.empty()) continue;
    ReduceSlice rs;
    rs.stmtId = stmtId;
    rs.op = static_cast<std::uint8_t>(st.op);
    // Sorted for determinism across unordered_map iteration orders.
    rs.entries.assign(st.buffer.begin(), st.buffer.end());
    std::sort(rs.entries.begin(), rs.entries.end());
    out.push_back(std::move(rs));
  }
  return out;
}

std::size_t mergeBuffered(
    region::World& world, const parallelize::PlannedLoop& loop,
    const std::vector<std::vector<ReduceSlice>>& pieces) {
  std::size_t merged = 0;
  for (const std::vector<ReduceSlice>& slices : pieces) {
    for (const ReduceSlice& rs : slices) {
      const ir::Stmt* stmt = loop.loop->findStmt(static_cast<int>(rs.stmtId));
      DPART_CHECK(stmt != nullptr, "buffered contribution names unknown "
                                   "reduce stmt " +
                                       std::to_string(rs.stmtId));
      auto column = world.region(stmt->region).f64(stmt->field);
      const auto op = static_cast<ir::ReduceOp>(rs.op);
      for (const auto& [target, value] : rs.entries) {
        double& cell = column[static_cast<std::size_t>(target)];
        cell = ir::applyReduce(op, cell, value);
      }
      merged += rs.entries.size();
    }
  }
  return merged;
}

OwnershipGuards::OwnershipGuards(const parallelize::PlannedLoop& loop,
                                 const Partition& iter) {
  if (hasCenteredWrite(loop) && !iter.isDisjoint()) owned_ = disjointify(iter);
}

void TaskFootprint::add(std::span<double> column, const std::string& regionName,
                        const std::string& field, IndexSet set) {
  if (set.empty()) return;
  const std::string key = regionName + "." + field;
  auto [it, inserted] = byField_.try_emplace(key, patches_.size());
  if (inserted) {
    patches_.push_back(Patch{regionName, field, column, std::move(set), {}});
  } else {
    Patch& p = patches_[it->second];
    p.indices = p.indices.unionWith(set);
  }
}

void TaskFootprint::capture() {
  for (Patch& p : patches_) {
    p.saved.clear();
    p.saved.reserve(static_cast<std::size_t>(p.indices.size()));
    p.indices.forEach([&p](Index i) {
      p.saved.push_back(p.column[static_cast<std::size_t>(i)]);
    });
  }
}

void TaskFootprint::restore() const {
  for (const Patch& p : patches_) {
    std::size_t k = 0;
    p.indices.forEach([&p, &k](Index i) {
      p.column[static_cast<std::size_t>(i)] = p.saved[k++];
    });
  }
}

void TaskFootprint::poison() const {
  for (const Patch& p : patches_) {
    p.indices.forEach([&p](Index i) {
      p.column[static_cast<std::size_t>(i)] =
          std::numeric_limits<double>::quiet_NaN();
    });
  }
}

TaskFootprint buildFootprint(region::World& world,
                             const parallelize::PlannedLoop& loop,
                             std::size_t j,
                             const std::map<std::string, Partition>& env,
                             const IndexSet* ownership) {
  TaskFootprint fp;
  loop.loop->forEachStmt([&](const ir::Stmt& s) {
    if (s.kind != ir::StmtKind::StoreF64 && s.kind != ir::StmtKind::ReduceF64)
      return;
    const IndexSet* set = nullptr;
    IndexSet guarded;
    auto rit = loop.reduces.find(s.id);
    if (s.kind == ir::StmtKind::ReduceF64 && rit != loop.reduces.end()) {
      switch (rit->second.strategy) {
        case ReduceStrategy::Direct:
          set = &env.at(loop.accessPartition.at(s.id)).sub(j);
          break;
        case ReduceStrategy::Guarded:
          set = &env.at(rit->second.partition).sub(j);
          break;
        case ReduceStrategy::Buffered:
          return;  // task-local buffer; nothing written in place
        case ReduceStrategy::PrivateSplit:
          set = &env.at(rit->second.privatePart).sub(j);
          break;
      }
    } else {
      // Centered store / centered reduction: the task writes its iteration
      // subregion, narrowed to its ownership set under aliased iteration.
      const IndexSet& acc = env.at(loop.accessPartition.at(s.id)).sub(j);
      if (ownership != nullptr) {
        guarded = acc.intersectWith(*ownership);
        set = &guarded;
      } else {
        set = &acc;
      }
    }
    fp.add(world.region(s.region).f64(s.field), s.region, s.field, *set);
  });
  return fp;
}

IndexSet prefixOf(const IndexSet& iters, double frac) {
  const Index want = static_cast<Index>(
      static_cast<double>(iters.size()) * std::clamp(frac, 0.0, 1.0));
  region::IndexSetBuilder builder;
  Index taken = 0;
  for (const region::Run& r : iters.runs()) {
    if (taken >= want) break;
    const Index take = std::min(r.size(), want - taken);
    builder.addRun(r.lo, r.lo + take);
    taken += take;
  }
  return builder.build();
}

void countError(const ExecOptions& options, const char* kind) {
  if (options.observability.metrics != nullptr) {
    options.observability.metrics->counter("errorsTotal", {{"kind", kind}})
        .inc();
  }
}

void runTaskAttempts(const ExecOptions& options, const std::string& loop,
                     std::size_t piece, std::size_t node, FaultTally& tally,
                     const TaskEffects& effects) {
  const ResilienceOptions& res = options.resilience;
  FaultInjector* injector = res.faultInjector;
  const std::string site = "task:" + loop + ":" + std::to_string(piece);
  // The node site is keyed on the (stable) node id, not the (shrinkable)
  // piece number, so "node:2" still names the same machine after an elastic
  // shrink.
  const std::string nodeSite = "node:" + std::to_string(node);
  auto contextAt = [&](const std::string& at, int attempt) {
    ErrorContext ctx;
    ctx.site = at;
    ctx.loop = loop;
    ctx.piece = static_cast<int>(piece);
    ctx.attempt = attempt;
    return ctx;
  };
  // The host dies mid-task: a deterministic prefix of the work lands, then
  // the machine is gone for good. NodeLossError, not TaskFailure, so replay
  // cannot catch it; only a checkpoint restore with the node removed
  // recovers.
  auto nodeLost = [&](const std::string& at, double frac, int attempt) {
    effects.prefix(frac);
    effects.kill();
    return NodeLossError(node, "injected fault: node lost permanently",
                         contextAt(at, attempt));
  };

  for (int attempt = 0;; ++attempt) {
    try {
      if (injector != nullptr) {
        if (auto fault = injector->fire(nodeSite);
            fault && fault->kind == FaultKind::PermanentCrash) {
          throw nodeLost(nodeSite, fault->magnitude, attempt);
        }
        if (auto fault = injector->fire(site)) {
          switch (fault->kind) {
            case FaultKind::Straggler:
              tally.stallMicros.fetch_add(fault->stragglerMicros,
                                          std::memory_order_relaxed);
              sleepOrHook(res.sleepMicros, fault->stragglerMicros);
              break;
            case FaultKind::Poison:
              // Replay must restore every corrupted cell.
              effects.poison();
              throw TaskFailure("injected fault: task result poisoned",
                                contextAt(site, attempt));
            case FaultKind::Crash:
              // Die mid-task, leaving region state genuinely half-mutated.
              effects.prefix(fault->magnitude);
              throw TaskFailure("injected fault: task crashed mid-run",
                                contextAt(site, attempt));
            case FaultKind::PermanentCrash:
              // The same death as at the node site, for callers that arm
              // "task:..." directly.
              throw nodeLost(site, fault->magnitude, attempt);
            case FaultKind::CorruptCheckpoint:
              break;  // only meaningful at checkpoint:write sites
          }
        }
      }
      effects.run();
      return;
    } catch (const TaskFailure& failure) {
      countError(options, "TaskFailure");
      // Only task deaths are replayable; partition violations and
      // evaluation failures propagate immediately.
      if (!res.taskReplay) throw;
      effects.restore();
      if (attempt >= res.maxTaskRetries) {
        ErrorContext ctx = failure.context();
        ctx.attempt = attempt;
        throw TaskFailure(std::string("task failed after ") +
                              std::to_string(attempt + 1) +
                              " attempt(s): " + failure.what(),
                          std::move(ctx));
      }
      tally.replays.fetch_add(1, std::memory_order_relaxed);
      if (Tracer* tr = options.observability.tracer;
          tr != nullptr && tr->enabled()) {
        tr->instant("executor", "task.replay",
                    "\"site\":\"" + jsonEscape(site) +
                        "\",\"fault_site\":\"" +
                        jsonEscape(failure.context().site) +
                        "\",\"node\":" + std::to_string(node) +
                        ",\"attempt\":" + std::to_string(attempt));
      }
      sleepOrHook(res.sleepMicros, res.retryBackoffMicros << attempt);
    }
  }
}

}  // namespace dpart::runtime
