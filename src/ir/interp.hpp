#pragma once

#include <variant>
#include <vector>

#include "ir/ir.hpp"
#include "region/index_set.hpp"
#include "region/world.hpp"

namespace dpart::ir {

/// Executes a Loop over a subset of its iteration space against a World:
/// the serial reference semantics parallel executions are checked against.
///
/// Deliberately plain: names resolve to columns once at construction, but
/// every variable lives in a std::variant slot and every ApplyFn evaluates
/// its fn by name (World::evalPoint). The task runtime runs loops through
/// its own kernels (runtime/task_exec) and shares no code with this
/// interpreter, so comparing the two is an independent check.
class LoopRunner {
 public:
  LoopRunner(region::World& world, const Loop& loop);

  LoopRunner(const LoopRunner&) = delete;
  LoopRunner& operator=(const LoopRunner&) = delete;

  /// Runs the given iterations in ascending order.
  void run(const region::IndexSet& iters);

  /// Runs the full iteration space.
  void runAll();

  [[nodiscard]] const Loop& loop() const { return loop_; }

 private:
  using Value = std::variant<double, Index, Run>;

  struct Op {
    const Stmt* stmt = nullptr;
    int dst = -1;   // slot defined by this op
    int idx = -1;   // slot holding the access / argument index
    int src = -1;   // slot holding the stored/reduced/aliased value
    std::vector<int> args;
    std::vector<Op> body;  // InnerLoop
    // Resolved column pointers (valid while the World is alive).
    double* f64 = nullptr;
    Index* idxField = nullptr;
    Run* rangeField = nullptr;
    Index fieldSize = 0;
  };

  int slotOf(const std::string& var);
  std::vector<Op> compileStmts(const std::vector<Stmt>& stmts);
  void execOps(const std::vector<Op>& ops, std::vector<Value>& env);

  region::World& world_;
  const Loop& loop_;
  std::vector<Op> ops_;
  int loopVarSlot_ = -1;
  int slotCount_ = 0;
  std::vector<std::string> slotNames_;
};

/// Runs every loop of a program once, in order, serially — the reference
/// semantics auto-parallelized executions are validated against.
void runSerial(region::World& world, const Program& program);

}  // namespace dpart::ir
