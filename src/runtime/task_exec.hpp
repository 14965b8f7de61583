#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/ir.hpp"
#include "parallelize/parallelize.hpp"
#include "region/owner_table.hpp"
#include "region/partition.hpp"
#include "region/world.hpp"
#include "runtime/options.hpp"

namespace dpart::runtime {

/// The launch core shared by the in-process PlanExecutor and the
/// multi-process backend (runtime/distributed: coordinator and worker).
/// Every launch decision both backends make lives here once: the reduction
/// strategies, ownership guards and footprint sets that define a task's
/// observable effect, the order buffered contributions merge in, the copy
/// of field slices in and out of columns, and the fault schedule with its
/// replay policy. None of it knows which backend calls it; the
/// backend-specific effects (running the task, killing a process) are
/// passed in. The two backends are required to produce bitwise identical
/// fields (tests/distributed_exec_test.cpp enforces it).

/// One (region, field) slice of F64 column data with its index set: the unit
/// of both ghost refresh (coordinator -> worker) and write-back (worker ->
/// coordinator). Values are bit-exact: doubles travel as their IEEE-754 bit
/// patterns (BinaryWriter::f64), which is what makes the multi-process
/// backend bitwise identical to the in-process one.
struct FieldSlice {
  std::string region;
  std::string field;
  region::IndexSet indices;
  std::vector<double> values;  ///< one per index, in ascending index order
};

/// One reduce statement's buffered contributions from one task.
struct ReduceSlice {
  std::int64_t stmtId = 0;
  std::uint8_t op = 0;  ///< ir::ReduceOp
  /// (target, accumulated value), sorted by target — the order the merge
  /// applies.
  std::vector<std::pair<region::Index, double>> entries;
};

/// Copies the values of `regionName.field` at `indices` out of the world.
[[nodiscard]] FieldSlice gatherSlice(region::World& world,
                                     const std::string& regionName,
                                     const std::string& field,
                                     region::IndexSet indices);

/// Writes a slice's values back into its column. Throws Error, writing
/// nothing, when the slice reaches outside the column.
void applySlice(region::World& world, const FieldSlice& slice);

/// A loop's ownership guards. Duplicated iterations (an aliased iteration
/// partition, Section 5.1 relaxation) could apply a centered write (a
/// store, or a reduce with no planned strategy) twice; each piece then owns
/// the indices no lower-numbered piece contains (first claim), so every
/// write applies exactly once. A task kernel derives them once per prepare
/// epoch; the multi-process coordinator, per launch, for its refreshes.
class OwnershipGuards {
 public:
  OwnershipGuards(const parallelize::PlannedLoop& loop,
                  const region::Partition& iter);

  /// Whether the launch needs guards at all.
  [[nodiscard]] bool active() const { return !owned_.empty(); }

  /// Piece j's ownership set, or nullptr when the launch needs no guards.
  [[nodiscard]] const region::IndexSet* of(std::size_t piece) const {
    return owned_.empty() ? nullptr : &owned_[piece];
  }

 private:
  std::vector<region::IndexSet> owned_;
};

/// How a task kernel applies one store or reduce: the plan's Section 5
/// strategy for it, resolved once when the kernel is built.
enum class WriteMode : std::uint8_t {
  /// In place. Stores and centered reduces under a disjoint iteration
  /// partition, and Direct reductions.
  Plain,
  /// In place when the task owns the target under its aliased iteration
  /// partition (first claim), else skipped: stores and centered reduces
  /// whose loop iterates an aliased partition.
  Owned,
  /// In place when the target lies in the task's guard subregion, else
  /// skipped (Guarded, Section 5.1).
  Guarded,
  /// In place inside the task's private subregion, buffered elsewhere
  /// (PrivateSplit, Theorem 5.1).
  PrivateSplit,
  /// Always into the task's buffer, merged after the launch (Buffered).
  Buffered,
};

class KernelCache;
class TaskState;

/// A planned loop compiled against one World and one prepare epoch's
/// partitions: every column pointer, fn, variable slot and write mode a
/// task would otherwise look up per element is resolved here once. A task
/// then runs over its iteration runs with no virtual call, map find or
/// string lookup per element.
///
/// A kernel holds column pointers across launches. That is safe because a
/// column is never reallocated once its field exists, and a checkpoint
/// restore copies values into the existing columns (region/snapshot.cpp,
/// commit step). Partitions change only with the prepare epoch, and the
/// kernel is rebuilt with it.
class TaskKernel {
 public:
  TaskKernel(region::World& world, const parallelize::PlannedLoop& loop,
             const std::map<std::string, region::Partition>& env,
             bool validate, KernelCache& tables);

  TaskKernel(const TaskKernel&) = delete;
  TaskKernel& operator=(const TaskKernel&) = delete;

  /// Runs piece `piece`'s iterations `iters` in ascending order; buffered
  /// contributions accumulate in `state`. With validation, every access is
  /// checked against the subregion its statement was assigned (Guarded
  /// reduces excepted: their guard filters targets instead) and a stray
  /// one throws PartitionViolation.
  void run(std::size_t piece, const region::IndexSet& iters,
           TaskState& state) const;

  /// Piece j's ownership set, or nullptr when the loop needs no ownership
  /// guards.
  [[nodiscard]] const region::IndexSet* ownership(std::size_t piece) const {
    return guards_.of(piece);
  }

 private:
  friend class TaskState;

  enum class Code : std::uint8_t {
    LoadF64,
    LoadIdx,
    LoadRange,
    Store,
    Reduce,
    ApplyFn,
    CopyF64,
    CopyIdx,
    CopyRun,
    Compute,
    Inner,
  };

  /// One statement, resolved. Slot numbers index TaskState's typed arrays
  /// (double, index or run, as the code implies).
  struct Op {
    Code code = Code::Compute;
    WriteMode mode = WriteMode::Plain;
    ir::ReduceOp reduceOp = ir::ReduceOp::Sum;
    int dst = -1;     // slot defined
    int idx = -1;     // slot of the accessed index or the fn argument
    int src = -1;     // slot of the stored, reduced or copied value
    int buffer = -1;  // PrivateSplit / Buffered: TaskState buffer
    region::Index size = 0;  // accessed column's length
    double* f64 = nullptr;
    const region::Index* idxColumn = nullptr;
    const region::Run* runColumn = nullptr;
    // Owned / Guarded / PrivateSplit
    const region::OwnerTable* owners = nullptr;
    std::optional<region::BatchFn> fn;  // ApplyFn
    const ir::Stmt* stmt = nullptr;
    std::vector<int> args;  // Compute: double slots
    std::vector<Op> body;   // Inner
    // validateAccesses: the assigned access partition (symbol nullptr when
    // the planner assigned none), and whether targets are checked at all.
    const std::string* accessSymbol = nullptr;
    const region::Partition* access = nullptr;
    bool checkTarget = true;
  };

  /// The three slot arrays of a TaskState.
  enum class Type : std::uint8_t { F64, Idx, Run };

  /// The slot of `var`, typed `type`; a variable keeps one type for the
  /// whole loop (the IR's admissibility rules guarantee it).
  int slot(const std::string& var, Type type);
  std::vector<Op> compile(const std::vector<ir::Stmt>& stmts,
                          KernelCache& tables);
  template <bool kValidate>
  void runIters(std::size_t piece, const region::IndexSet& iters,
                TaskState& state) const;
  template <bool kValidate>
  void exec(const std::vector<Op>& ops, std::size_t piece,
            TaskState& state) const;
  void checkAccess(const Op& op, std::size_t piece, region::Index t) const;

  region::World& world_;
  const parallelize::PlannedLoop& loop_;
  const std::map<std::string, region::Partition>& env_;
  bool validate_;
  OwnershipGuards guards_;
  const region::OwnerTable* ownerTable_ = nullptr;  // set when guards_ are
  /// Variable name -> (type, slot), filled while compiling; slot counts
  /// per type.
  std::map<std::string, std::pair<Type, int>> vars_;
  int slots_[3] = {0, 0, 0};
  int loopVarSlot_ = -1;
  std::size_t maxArgs_ = 0;
  /// Stmt id and operator of each reduce that may buffer, one TaskState
  /// buffer each.
  std::vector<std::pair<int, ir::ReduceOp>> buffers_;
  std::vector<Op> ops_;
};

/// One task attempt's mutable state: the kernel's typed variable slots and
/// the buffers of its buffered reductions. Every attempt starts from a
/// fresh state, so a failed attempt's contributions are dropped with it.
class TaskState {
 public:
  explicit TaskState(const TaskKernel& kernel);

  /// The task's buffered-reduction contributions: one slice per reduce
  /// statement with a non-empty buffer, in ascending stmt id order, each
  /// sorted by target.
  [[nodiscard]] std::vector<ReduceSlice> contributions() const;

 private:
  friend class TaskKernel;

  struct Buffer {
    int stmtId = -1;
    ir::ReduceOp op = ir::ReduceOp::Sum;
    std::unordered_map<region::Index, double> acc;
  };

  std::vector<double> f64_;
  std::vector<region::Index> idx_;
  std::vector<region::Run> runs_;
  std::vector<double> args_;
  std::vector<Buffer> buffers_;
};

/// The task kernels of one prepare epoch: built lazily, one per planned
/// loop, sharing the owner tables they read. The in-process executor keeps
/// one per prepare epoch; a distributed worker keeps one for its fleet's
/// lifetime, since its fork-inherited partitions never change.
class KernelCache {
 public:
  KernelCache(region::World& world,
              const std::map<std::string, region::Partition>& env,
              bool validate)
      : world_(world), env_(env), validate_(validate) {}

  KernelCache(const KernelCache&) = delete;
  KernelCache& operator=(const KernelCache&) = delete;

  /// The kernel of `loop`, built on first use.
  [[nodiscard]] const TaskKernel& kernel(const parallelize::PlannedLoop& loop);

 private:
  friend class TaskKernel;

  /// The owner table of partition `symbol`, built on first use.
  [[nodiscard]] const region::OwnerTable& owners(const std::string& symbol,
                                                 bool firstClaim);

  region::World& world_;
  const std::map<std::string, region::Partition>& env_;
  bool validate_;
  std::map<std::pair<std::string, bool>, region::OwnerTable> tables_;
  std::map<const parallelize::PlannedLoop*, std::unique_ptr<TaskKernel>>
      kernels_;
};

/// What a launch's tasks hand to PlanExecutor's launch tail, from either
/// backend.
struct LaunchStats {
  std::vector<double> taskSeconds;  ///< per piece, task CPU seconds
  /// Per piece, the task's buffered contributions (for mergeBuffered).
  std::vector<std::vector<ReduceSlice>> buffered;
  std::uint64_t ghostElems = 0;     ///< multi-process: refresh elements shipped
  std::uint64_t ghostMessages = 0;  ///< multi-process: refresh slices shipped
};

/// Merges every piece's buffered contributions into the world in piece ->
/// stmt id -> target order, the one order both backends apply, so
/// floating-point results are bitwise identical. Returns the number of
/// elements merged. Throws Error, merging nothing, when a contribution
/// names no reduce statement of the loop or a target outside its column.
std::size_t mergeBuffered(region::World& world,
                          const parallelize::PlannedLoop& loop,
                          const std::vector<std::vector<ReduceSlice>>& pieces);

/// One task's in-place write footprint: for every (region, field) the task
/// may write in place, the exact index set and (once captured) the
/// pre-execution values. Restoring the footprint undoes every partial
/// effect of a failed attempt. The plan guarantees these sets are disjoint
/// across tasks — stores target the (disjoint or ownership-guarded)
/// iteration subregion, Direct reductions a provably disjoint partition,
/// Guarded reductions their disjoint guard, PrivateSplit reductions the
/// disjoint private sub-partition, and Buffered reductions touch nothing in
/// place until the post-loop merge — so a restore never clobbers another
/// task's completed work (DESIGN.md §7). The distributed worker ships the
/// same sets back as its result: they are precisely the bytes the task is
/// entitled to have changed.
class TaskFootprint {
 public:
  struct Patch {
    std::string region;
    std::string field;
    std::span<double> column;
    region::IndexSet indices;
    std::vector<double> saved;
  };

  void add(std::span<double> column, const std::string& regionName,
           const std::string& field, region::IndexSet set);

  /// Saves the current field values over the footprint.
  void capture();

  /// Restores the captured values (capture() must have run).
  void restore() const;

  /// Overwrites the footprint with garbage — the worst state a dying task
  /// can leave behind without breaking write isolation.
  void poison() const;

  [[nodiscard]] const std::vector<Patch>& patches() const { return patches_; }

 private:
  std::map<std::string, std::size_t> byField_;
  std::vector<Patch> patches_;
};

/// Collects task j's in-place write footprint from the plan's metadata.
[[nodiscard]] TaskFootprint buildFootprint(
    region::World& world, const parallelize::PlannedLoop& loop, std::size_t j,
    const std::map<std::string, region::Partition>& env,
    const region::IndexSet* ownership);

/// Deterministic prefix of an index set holding ~frac of its elements, in
/// iteration order — the part of a task that "ran before the node died".
[[nodiscard]] region::IndexSet prefixOf(const region::IndexSet& iters,
                                        double frac);

/// Bumps errorsTotal{kind=...} (no-op without a metrics registry).
void countError(const ExecOptions& options, const char* kind);

/// Replays and injected stalls, counted the moment they happen so that a
/// launch which escalates still reports what it already did.
struct FaultTally {
  std::atomic<std::size_t> replays{0};
  std::atomic<std::uint64_t> stallMicros{0};
};

/// The backend side of one task's attempts: runTaskAttempts calls each
/// effect when the fault schedule reaches it. Every member must be set.
struct TaskEffects {
  /// Runs the whole task.
  std::function<void()> run;
  /// Runs the deterministic `frac` prefix of the task's iterations: the
  /// work that lands before an injected crash.
  std::function<void(double frac)> prefix;
  /// The task's host is gone for good (after its prefix ran).
  std::function<void()> kill;
  /// A dying task scribbles over its own write footprint.
  std::function<void()> poison;
  /// Undoes a failed attempt before it is replayed or escalated.
  std::function<void()> restore;
};

/// Runs task `piece` of `loop` on node `node` through the fault schedule and
/// replay policy both backends share (DESIGN.md §7). Each attempt first
/// fires "node:<node>" (a PermanentCrash there loses the node), then
/// "task:<loop>:<piece>" (Straggler, Poison, Crash or PermanentCrash), then
/// runs the task. A node loss throws NodeLossError, which replay never
/// catches. A TaskFailure counts errorsTotal{kind=TaskFailure}; with
/// ResilienceOptions::taskReplay it restores the attempt and replays it,
/// with a `task.replay` instant and exponential backoff, until
/// maxTaskRetries replays are spent and "task failed after N attempt(s)"
/// escalates.
void runTaskAttempts(const ExecOptions& options, const std::string& loop,
                     std::size_t piece, std::size_t node, FaultTally& tally,
                     const TaskEffects& effects);

}  // namespace dpart::runtime
