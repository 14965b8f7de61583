#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "region/fn.hpp"
#include "region/world.hpp"
#include "support/check.hpp"

namespace dpart::ir {

using region::Index;
using region::Run;

/// Reduction operator. The paper's parallelizability rules forbid mixing
/// different operators in uncentered reductions on one region.
enum class ReduceOp { Sum, Min, Max };

const char* toString(ReduceOp op);
double reduceIdentity(ReduceOp op);

/// acc op value. Inline: task kernels apply it once per reduced element.
inline double applyReduce(ReduceOp op, double acc, double value) {
  switch (op) {
    case ReduceOp::Sum:
      return acc + value;
    case ReduceOp::Min:
      return std::min(acc, value);
    case ReduceOp::Max:
      return std::max(acc, value);
  }
  DPART_UNREACHABLE("bad ReduceOp");
}

/// Pure scalar computation over previously loaded values.
using ComputeFn = std::function<double(std::span<const double>)>;

/// Kinds of normalized statements inside a parallelizable loop. This is the
/// loop fragment Algorithm 1 consumes: every region access appears as one of
/// the Load/Store/Reduce forms, and index values flow only through LoadIdx,
/// ApplyFn and Alias — exactly the paper's admissibility conditions.
enum class StmtKind {
  LoadF64,    ///< var = R[idxVar].field           (F64 field)
  LoadIdx,    ///< var = R[idxVar].field           (Idx field; extends Env)
  LoadRange,  ///< var = R[idxVar].field           (Range field; Sec. 4)
  StoreF64,   ///< R[idxVar].field = src
  ReduceF64,  ///< R[idxVar].field op= src
  ApplyFn,    ///< var = fn(idxVar)                (pure index function)
  Alias,      ///< var = src
  Compute,    ///< var = compute(args...)          (pure scalar function)
  InnerLoop,  ///< for (loopVar in rangeVar): body (data-dependent space)
};

const char* toString(StmtKind k);

struct Stmt {
  StmtKind kind{};
  int id = -1;  ///< unique within the loop; assigned by LoopBuilder::build()

  std::string var;     ///< defined variable (Load*, ApplyFn, Alias, Compute)
  std::string region;  ///< Load/Store/Reduce: accessed region
  std::string field;   ///< Load/Store/Reduce: accessed field
  std::string idxVar;  ///< Load/Store/Reduce: index variable; ApplyFn arg
  std::string src;     ///< StoreF64/ReduceF64 value var; Alias source
  std::string fn;      ///< ApplyFn: function id
  ReduceOp op = ReduceOp::Sum;           ///< ReduceF64
  std::vector<std::string> args;         ///< Compute inputs
  ComputeFn compute;                     ///< Compute evaluator

  std::string loopVar;   ///< InnerLoop induction variable
  std::string rangeVar;  ///< InnerLoop range variable (holds a Run)
  std::vector<Stmt> body;

  [[nodiscard]] std::string toString() const;
};

/// A candidate parallelizable loop: `for (loopVar in iterRegion): body`.
struct Loop {
  std::string name;
  std::string loopVar;
  std::string iterRegion;
  std::vector<Stmt> body;

  /// Total statement count including nested bodies.
  [[nodiscard]] int stmtCount() const;
  /// Walks all statements (pre-order, recursing into inner loops).
  void forEachStmt(const std::function<void(const Stmt&)>& fn) const;
  /// The statement with this id, in the body or an inner loop; nullptr when
  /// there is none.
  [[nodiscard]] const Stmt* findStmt(int id) const;
  [[nodiscard]] std::string toString() const;
};

/// A program: an ordered list of loops over one World's regions. This plays
/// the role of the "main simulation loop" bodies of the paper's benchmarks.
struct Program {
  std::string name;
  std::vector<Loop> loops;
};

/// Fluent builder producing normalized loops with stable statement ids.
///
///   LoopBuilder b("update", "p", "Particles");
///   b.loadIdx("c", "Particles", "cell", "p")
///    .loadF64("v", "Cells", "vel", "c")
///    .reduce("Particles", "pos", "p", "v");
///   Loop loop = b.build();
class LoopBuilder {
 public:
  LoopBuilder(std::string name, std::string loopVar, std::string iterRegion);

  LoopBuilder& loadF64(const std::string& var, const std::string& region,
                       const std::string& field, const std::string& idxVar);
  LoopBuilder& loadIdx(const std::string& var, const std::string& region,
                       const std::string& field, const std::string& idxVar);
  LoopBuilder& loadRange(const std::string& var, const std::string& region,
                         const std::string& field, const std::string& idxVar);
  LoopBuilder& store(const std::string& region, const std::string& field,
                     const std::string& idxVar, const std::string& src);
  LoopBuilder& reduce(const std::string& region, const std::string& field,
                      const std::string& idxVar, const std::string& src,
                      ReduceOp op = ReduceOp::Sum);
  LoopBuilder& apply(const std::string& var, const std::string& fn,
                     const std::string& idxVar);
  LoopBuilder& alias(const std::string& var, const std::string& src);
  LoopBuilder& compute(const std::string& var, std::vector<std::string> args,
                       ComputeFn fn);

  /// Opens an inner loop over the Run held by rangeVar; statements added
  /// until endInner() belong to it. Inner loops do not nest further (the
  /// paper's benchmarks need exactly one level).
  LoopBuilder& beginInner(const std::string& loopVar,
                          const std::string& rangeVar);
  LoopBuilder& endInner();

  [[nodiscard]] Loop build();

 private:
  Stmt& append(Stmt s);

  Loop loop_;
  bool inInner_ = false;
  int nextId_ = 0;
};

}  // namespace dpart::ir
