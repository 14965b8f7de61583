#include "ir/interp.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dpart::ir {

using region::IndexSet;

LoopRunner::LoopRunner(region::World& world, const Loop& loop)
    : world_(world), loop_(loop) {
  loopVarSlot_ = slotOf(loop_.loopVar);
  ops_ = compileStmts(loop_.body);
}

int LoopRunner::slotOf(const std::string& var) {
  DPART_CHECK(!var.empty(), "empty variable name");
  for (std::size_t i = 0; i < slotNames_.size(); ++i) {
    if (slotNames_[i] == var) return static_cast<int>(i);
  }
  slotNames_.push_back(var);
  return slotCount_++;
}

std::vector<LoopRunner::Op> LoopRunner::compileStmts(
    const std::vector<Stmt>& stmts) {
  std::vector<Op> ops;
  ops.reserve(stmts.size());
  for (const Stmt& s : stmts) {
    Op op;
    op.stmt = &s;
    switch (s.kind) {
      case StmtKind::LoadF64: {
        region::Region& r = world_.region(s.region);
        op.f64 = r.f64(s.field).data();
        op.fieldSize = r.size();
        op.idx = slotOf(s.idxVar);
        op.dst = slotOf(s.var);
        break;
      }
      case StmtKind::LoadIdx: {
        region::Region& r = world_.region(s.region);
        op.idxField = r.idx(s.field).data();
        op.fieldSize = r.size();
        op.idx = slotOf(s.idxVar);
        op.dst = slotOf(s.var);
        break;
      }
      case StmtKind::LoadRange: {
        region::Region& r = world_.region(s.region);
        op.rangeField = r.range(s.field).data();
        op.fieldSize = r.size();
        op.idx = slotOf(s.idxVar);
        op.dst = slotOf(s.var);
        break;
      }
      case StmtKind::StoreF64:
      case StmtKind::ReduceF64: {
        region::Region& r = world_.region(s.region);
        op.f64 = r.f64(s.field).data();
        op.fieldSize = r.size();
        op.idx = slotOf(s.idxVar);
        op.src = slotOf(s.src);
        break;
      }
      case StmtKind::ApplyFn: {
        DPART_CHECK(world_.hasFn(s.fn), "unknown fn '" + s.fn + "'");
        op.idx = slotOf(s.idxVar);
        op.dst = slotOf(s.var);
        break;
      }
      case StmtKind::Alias: {
        op.src = slotOf(s.src);
        op.dst = slotOf(s.var);
        break;
      }
      case StmtKind::Compute: {
        DPART_CHECK(s.compute != nullptr,
                    "compute stmt without evaluator in loop " + loop_.name);
        for (const std::string& a : s.args) op.args.push_back(slotOf(a));
        op.dst = slotOf(s.var);
        break;
      }
      case StmtKind::InnerLoop: {
        op.src = slotOf(s.rangeVar);
        op.dst = slotOf(s.loopVar);
        op.body = compileStmts(s.body);
        break;
      }
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

void LoopRunner::execOps(const std::vector<Op>& ops,
                         std::vector<Value>& env) {
  // Scratch buffer for Compute arguments, hoisted out of the loop.
  thread_local std::vector<double> argScratch;
  for (const Op& op : ops) {
    const Stmt& s = *op.stmt;
    switch (s.kind) {
      case StmtKind::LoadF64: {
        const Index t = std::get<Index>(env[static_cast<std::size_t>(op.idx)]);
        DPART_CHECK(t >= 0 && t < op.fieldSize,
                    "index out of bounds in " + s.toString());
        env[static_cast<std::size_t>(op.dst)] =
            op.f64[static_cast<std::size_t>(t)];
        break;
      }
      case StmtKind::LoadIdx: {
        const Index t = std::get<Index>(env[static_cast<std::size_t>(op.idx)]);
        DPART_CHECK(t >= 0 && t < op.fieldSize,
                    "index out of bounds in " + s.toString());
        env[static_cast<std::size_t>(op.dst)] =
            op.idxField[static_cast<std::size_t>(t)];
        break;
      }
      case StmtKind::LoadRange: {
        const Index t = std::get<Index>(env[static_cast<std::size_t>(op.idx)]);
        DPART_CHECK(t >= 0 && t < op.fieldSize,
                    "index out of bounds in " + s.toString());
        env[static_cast<std::size_t>(op.dst)] =
            op.rangeField[static_cast<std::size_t>(t)];
        break;
      }
      case StmtKind::StoreF64: {
        const Index t = std::get<Index>(env[static_cast<std::size_t>(op.idx)]);
        DPART_CHECK(t >= 0 && t < op.fieldSize,
                    "index out of bounds in " + s.toString());
        op.f64[static_cast<std::size_t>(t)] =
            std::get<double>(env[static_cast<std::size_t>(op.src)]);
        break;
      }
      case StmtKind::ReduceF64: {
        const Index t = std::get<Index>(env[static_cast<std::size_t>(op.idx)]);
        DPART_CHECK(t >= 0 && t < op.fieldSize,
                    "index out of bounds in " + s.toString());
        const double v = std::get<double>(env[static_cast<std::size_t>(op.src)]);
        double& cell = op.f64[static_cast<std::size_t>(t)];
        cell = applyReduce(s.op, cell, v);
        break;
      }
      case StmtKind::ApplyFn: {
        const Index a = std::get<Index>(env[static_cast<std::size_t>(op.idx)]);
        env[static_cast<std::size_t>(op.dst)] = world_.evalPoint(s.fn, a);
        break;
      }
      case StmtKind::Alias: {
        env[static_cast<std::size_t>(op.dst)] =
            env[static_cast<std::size_t>(op.src)];
        break;
      }
      case StmtKind::Compute: {
        argScratch.clear();
        for (int slot : op.args) {
          argScratch.push_back(
              std::get<double>(env[static_cast<std::size_t>(slot)]));
        }
        env[static_cast<std::size_t>(op.dst)] = s.compute(argScratch);
        break;
      }
      case StmtKind::InnerLoop: {
        const Run range = std::get<Run>(env[static_cast<std::size_t>(op.src)]);
        for (Index k = range.lo; k < range.hi; ++k) {
          env[static_cast<std::size_t>(op.dst)] = k;
          execOps(op.body, env);
        }
        break;
      }
    }
  }
}

void LoopRunner::run(const IndexSet& iters) {
  std::vector<Value> env(static_cast<std::size_t>(slotCount_), 0.0);
  iters.forEach([&](Index i) {
    env[static_cast<std::size_t>(loopVarSlot_)] = i;
    execOps(ops_, env);
  });
}

void LoopRunner::runAll() {
  run(world_.region(loop_.iterRegion).indexSpace());
}

void runSerial(region::World& world, const Program& program) {
  for (const Loop& loop : program.loops) {
    LoopRunner runner(world, loop);
    runner.runAll();
  }
}

}  // namespace dpart::ir
