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
  DPART_CHECK(slice.values.size() ==
                  static_cast<std::size_t>(slice.indices.size()),
              "field slice value/index count mismatch");
  // A slice may come off the wire: check its extent before writing.
  if (!slice.indices.empty() &&
      (slice.indices.lowerBound() < 0 ||
       slice.indices.upperBound() > static_cast<Index>(column.size()))) {
    throw Error("field slice " + slice.region + "." + slice.field + " " +
                slice.indices.toString() + " exceeds its column of size " +
                std::to_string(column.size()));
  }
  std::size_t k = 0;
  slice.indices.forEach([&](Index i) {
    column[static_cast<std::size_t>(i)] = slice.values[k++];
  });
}

const region::OwnerTable& KernelCache::owners(const std::string& symbol,
                                              bool firstClaim) {
  return tables_
      .try_emplace(std::make_pair(symbol, firstClaim), env_.at(symbol),
                   firstClaim)
      .first->second;
}

const TaskKernel& KernelCache::kernel(const parallelize::PlannedLoop& loop) {
  std::unique_ptr<TaskKernel>& k = kernels_[&loop];
  if (k == nullptr) {
    k = std::make_unique<TaskKernel>(world_, loop, env_, validate_, *this);
  }
  return *k;
}

TaskKernel::TaskKernel(region::World& world,
                       const parallelize::PlannedLoop& loop,
                       const std::map<std::string, Partition>& env,
                       bool validate, KernelCache& tables)
    : world_(world),
      loop_(loop),
      env_(env),
      validate_(validate),
      guards_(loop, env.at(loop.iterPartition)) {
  if (guards_.active()) {
    ownerTable_ = &tables.owners(loop.iterPartition, /*firstClaim=*/true);
  }
  loopVarSlot_ = slot(loop.loop->loopVar, Type::Idx);
  ops_ = compile(loop.loop->body, tables);
}

int TaskKernel::slot(const std::string& var, Type type) {
  DPART_CHECK(!var.empty(), "empty variable name");
  auto [it, inserted] = vars_.try_emplace(var, type, 0);
  if (inserted) {
    it->second.second = slots_[static_cast<int>(type)]++;
  } else if (it->second.first != type) {
    throw Error("variable '" + var + "' of loop " + loop_.loop->name +
                " is used with two types");
  }
  return it->second.second;
}

std::vector<TaskKernel::Op> TaskKernel::compile(
    const std::vector<ir::Stmt>& stmts, KernelCache& tables) {
  using ir::StmtKind;
  std::vector<Op> ops;
  ops.reserve(stmts.size());
  for (const ir::Stmt& s : stmts) {
    Op op;
    op.stmt = &s;
    // Loads, stores and reduces access a region element.
    region::Region* region = nullptr;
    if (s.kind == StmtKind::LoadF64 || s.kind == StmtKind::LoadIdx ||
        s.kind == StmtKind::LoadRange || s.kind == StmtKind::StoreF64 ||
        s.kind == StmtKind::ReduceF64) {
      region = &world_.region(s.region);
      op.size = region->size();
      op.idx = slot(s.idxVar, Type::Idx);
      if (auto it = loop_.accessPartition.find(s.id);
          it != loop_.accessPartition.end()) {
        op.accessSymbol = &it->second;
        if (auto pit = env_.find(it->second); pit != env_.end()) {
          op.access = &pit->second;
        }
      }
    }
    switch (s.kind) {
      case StmtKind::LoadF64:
        op.code = Code::LoadF64;
        op.f64 = region->f64(s.field).data();
        op.dst = slot(s.var, Type::F64);
        break;
      case StmtKind::LoadIdx:
        op.code = Code::LoadIdx;
        op.idxColumn = region->idx(s.field).data();
        op.dst = slot(s.var, Type::Idx);
        break;
      case StmtKind::LoadRange:
        op.code = Code::LoadRange;
        op.runColumn = region->range(s.field).data();
        op.dst = slot(s.var, Type::Run);
        break;
      case StmtKind::StoreF64:
      case StmtKind::ReduceF64: {
        const bool store = s.kind == StmtKind::StoreF64;
        op.code = store ? Code::Store : Code::Reduce;
        op.reduceOp = s.op;
        op.f64 = region->f64(s.field).data();
        op.src = slot(s.src, Type::F64);
        auto rit = loop_.reduces.find(s.id);
        if (store || rit == loop_.reduces.end()) {
          // A centered write: ownership-guarded under an aliased iteration
          // partition.
          if (ownerTable_ != nullptr) {
            op.mode = WriteMode::Owned;
            op.owners = ownerTable_;
          }
          break;
        }
        const optimize::ReducePlan& rp = rit->second;
        switch (rp.strategy) {
          case ReduceStrategy::Direct:
            break;
          case ReduceStrategy::Guarded:
            op.mode = WriteMode::Guarded;
            op.owners = &tables.owners(rp.partition, /*firstClaim=*/false);
            // The guard rejects stray targets before any memory access, so
            // validation checks only that a partition was assigned.
            op.checkTarget = false;
            break;
          case ReduceStrategy::PrivateSplit:
            op.mode = WriteMode::PrivateSplit;
            op.owners = &tables.owners(rp.privatePart, /*firstClaim=*/false);
            break;
          case ReduceStrategy::Buffered:
            op.mode = WriteMode::Buffered;
            break;
        }
        if (op.mode == WriteMode::PrivateSplit ||
            op.mode == WriteMode::Buffered) {
          op.buffer = static_cast<int>(buffers_.size());
          buffers_.emplace_back(s.id, s.op);
        }
        break;
      }
      case StmtKind::ApplyFn:
        DPART_CHECK(world_.hasFn(s.fn), "unknown fn '" + s.fn + "'");
        op.code = Code::ApplyFn;
        op.fn.emplace(world_, world_.fn(s.fn));
        op.idx = slot(s.idxVar, Type::Idx);
        op.dst = slot(s.var, Type::Idx);
        break;
      case StmtKind::Alias: {
        auto it = vars_.find(s.src);
        const Type type = it == vars_.end() ? Type::F64 : it->second.first;
        op.code = type == Type::F64   ? Code::CopyF64
                  : type == Type::Idx ? Code::CopyIdx
                                      : Code::CopyRun;
        op.src = slot(s.src, type);
        op.dst = slot(s.var, type);
        break;
      }
      case StmtKind::Compute:
        DPART_CHECK(s.compute != nullptr,
                    "compute stmt without evaluator in loop " +
                        loop_.loop->name);
        op.code = Code::Compute;
        for (const std::string& a : s.args) {
          op.args.push_back(slot(a, Type::F64));
        }
        maxArgs_ = std::max(maxArgs_, op.args.size());
        op.dst = slot(s.var, Type::F64);
        break;
      case StmtKind::InnerLoop:
        op.code = Code::Inner;
        op.src = slot(s.rangeVar, Type::Run);
        op.dst = slot(s.loopVar, Type::Idx);
        op.body = compile(s.body, tables);
        break;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

void TaskKernel::checkAccess(const Op& op, std::size_t piece, Index t) const {
  const ir::Stmt& stmt = *op.stmt;
  if (op.accessSymbol == nullptr) {
    ErrorContext ctx;
    ctx.loop = loop_.loop->name;
    ctx.stmtId = stmt.id;
    ctx.piece = static_cast<int>(piece);
    throw PartitionViolation(
        "access with no assigned partition: " + stmt.toString(),
        std::move(ctx));
  }
  DPART_CHECK(op.access != nullptr,
              "access partition '" + *op.accessSymbol + "' was not evaluated");
  if (!op.checkTarget || op.access->sub(piece).contains(t)) return;
  ErrorContext ctx;
  ctx.loop = loop_.loop->name;
  ctx.partition = *op.accessSymbol;
  ctx.field = stmt.region + "." + stmt.field;
  ctx.stmtId = stmt.id;
  ctx.index = t;
  ctx.piece = static_cast<int>(piece);
  throw PartitionViolation(
      "illegal access: " + stmt.toString() + " touches index " +
          std::to_string(t) + " outside subregion " + std::to_string(piece) +
          " of " + *op.accessSymbol,
      std::move(ctx));
}

namespace {

[[noreturn]] void outOfBounds(const ir::Stmt& stmt, Index t, Index size) {
  throw Error("index out of bounds in " + stmt.toString() + ": " +
              std::to_string(t) + " not in [0, " + std::to_string(size) +
              ")");
}

}  // namespace

// exec<> and run are the task hot path. Both are aligned to 64 bytes
// because their timing otherwise moves by ~5% with link layout: resizing
// unrelated code linked ahead of the runtime shifted them within a cache
// line and slowed every step, though no timed code changed.
template <bool kValidate>
[[gnu::aligned(64)]] void TaskKernel::exec(const std::vector<Op>& ops,
                                           std::size_t piece,
                                           TaskState& state) const {
  double* const f = state.f64_.data();
  Index* const x = state.idx_.data();
  region::Run* const r = state.runs_.data();
  // The accessed element of a load, store or reduce, bounds-checked (and
  // checked against the task's subregion under validation).
  auto target = [&](const Op& op) {
    const Index t = x[op.idx];
    if (t < 0 || t >= op.size) outOfBounds(*op.stmt, t, op.size);
    if constexpr (kValidate) checkAccess(op, piece, t);
    return static_cast<std::size_t>(t);
  };
  for (const Op& op : ops) {
    switch (op.code) {
      case Code::LoadF64:
        f[op.dst] = op.f64[target(op)];
        break;
      case Code::LoadIdx:
        x[op.dst] = op.idxColumn[target(op)];
        break;
      case Code::LoadRange:
        r[op.dst] = op.runColumn[target(op)];
        break;
      case Code::Store: {
        const std::size_t t = target(op);
        if (op.mode == WriteMode::Owned &&
            !op.owners->owns(piece, static_cast<Index>(t))) {
          break;  // another task owns this duplicated iteration
        }
        op.f64[t] = f[op.src];
        break;
      }
      case Code::Reduce: {
        const std::size_t t = target(op);
        const double v = f[op.src];
        switch (op.mode) {
          case WriteMode::Plain:
            break;
          case WriteMode::Owned:
          case WriteMode::Guarded:
            if (!op.owners->owns(piece, static_cast<Index>(t))) {
              continue;  // another task applies this target
            }
            break;
          case WriteMode::PrivateSplit:
            if (op.owners->owns(piece, static_cast<Index>(t))) break;
            [[fallthrough]];
          case WriteMode::Buffered: {
            auto& acc = state.buffers_[static_cast<std::size_t>(op.buffer)].acc;
            double& cell = acc.try_emplace(static_cast<Index>(t),
                                           ir::reduceIdentity(op.reduceOp))
                               .first->second;
            cell = ir::applyReduce(op.reduceOp, cell, v);
            continue;  // merged after the launch
          }
        }
        op.f64[t] = ir::applyReduce(op.reduceOp, op.f64[t], v);
        break;
      }
      case Code::ApplyFn:
        x[op.dst] = op.fn->point(x[op.idx]);
        break;
      case Code::CopyF64:
        f[op.dst] = f[op.src];
        break;
      case Code::CopyIdx:
        x[op.dst] = x[op.src];
        break;
      case Code::CopyRun:
        r[op.dst] = r[op.src];
        break;
      case Code::Compute: {
        double* const args = state.args_.data();
        for (std::size_t k = 0; k < op.args.size(); ++k) {
          args[k] = f[op.args[k]];
        }
        f[op.dst] = op.stmt->compute(
            std::span<const double>(args, op.args.size()));
        break;
      }
      case Code::Inner: {
        const region::Run range = r[op.src];
        for (Index k = range.lo; k < range.hi; ++k) {
          x[op.dst] = k;
          exec<kValidate>(op.body, piece, state);
        }
        break;
      }
    }
  }
}

template <bool kValidate>
void TaskKernel::runIters(std::size_t piece, const IndexSet& iters,
                          TaskState& state) const {
  Index* const loopVar = state.idx_.data() + loopVarSlot_;
  for (const region::Run& run : iters.runs()) {
    for (Index i = run.lo; i < run.hi; ++i) {
      *loopVar = i;
      exec<kValidate>(ops_, piece, state);
    }
  }
}

[[gnu::aligned(64)]] void TaskKernel::run(std::size_t piece,
                                          const IndexSet& iters,
                                          TaskState& state) const {
  if (validate_) {
    runIters<true>(piece, iters, state);
  } else {
    runIters<false>(piece, iters, state);
  }
}

TaskState::TaskState(const TaskKernel& kernel)
    : f64_(static_cast<std::size_t>(kernel.slots_[0]), 0.0),
      idx_(static_cast<std::size_t>(kernel.slots_[1]), 0),
      runs_(static_cast<std::size_t>(kernel.slots_[2])),
      args_(kernel.maxArgs_) {
  buffers_.reserve(kernel.buffers_.size());
  for (const auto& [stmtId, op] : kernel.buffers_) {
    buffers_.push_back(Buffer{stmtId, op, {}});
  }
}

std::vector<ReduceSlice> TaskState::contributions() const {
  std::vector<ReduceSlice> out;
  for (const Buffer& b : buffers_) {
    if (b.acc.empty()) continue;
    ReduceSlice rs;
    rs.stmtId = b.stmtId;
    rs.op = static_cast<std::uint8_t>(b.op);
    // Sorted for determinism across unordered_map iteration orders.
    rs.entries.assign(b.acc.begin(), b.acc.end());
    std::sort(rs.entries.begin(), rs.entries.end());
    out.push_back(std::move(rs));
  }
  std::sort(out.begin(), out.end(),
            [](const ReduceSlice& a, const ReduceSlice& b) {
              return a.stmtId < b.stmtId;
            });
  return out;
}

std::size_t mergeBuffered(
    region::World& world, const parallelize::PlannedLoop& loop,
    const std::vector<std::vector<ReduceSlice>>& pieces) {
  // Contributions may come off the wire: every one is checked against its
  // column before any is applied, so a bad one leaves the world unchanged.
  std::vector<std::span<double>> columns;
  for (const std::vector<ReduceSlice>& slices : pieces) {
    for (const ReduceSlice& rs : slices) {
      const ir::Stmt* stmt = loop.loop->findStmt(static_cast<int>(rs.stmtId));
      DPART_CHECK(stmt != nullptr && stmt->kind == ir::StmtKind::ReduceF64,
                  "buffered contribution names unknown reduce stmt " +
                      std::to_string(rs.stmtId));
      DPART_CHECK(rs.op <= static_cast<std::uint8_t>(ir::ReduceOp::Max),
                  "buffered contribution has a bad reduce operator");
      auto column = world.region(stmt->region).f64(stmt->field);
      for (const auto& [target, value] : rs.entries) {
        if (target < 0 || target >= static_cast<Index>(column.size())) {
          throw Error("buffered contribution to " + stmt->region + "." +
                      stmt->field + " targets index " +
                      std::to_string(target) + " outside its column of size " +
                      std::to_string(column.size()));
        }
      }
      columns.push_back(column);
    }
  }
  std::size_t merged = 0;
  auto column = columns.begin();
  for (const std::vector<ReduceSlice>& slices : pieces) {
    for (const ReduceSlice& rs : slices) {
      const auto op = static_cast<ir::ReduceOp>(rs.op);
      for (const auto& [target, value] : rs.entries) {
        double& cell = (*column)[static_cast<std::size_t>(target)];
        cell = ir::applyReduce(op, cell, value);
      }
      ++column;
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
