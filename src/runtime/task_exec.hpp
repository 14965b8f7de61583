#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/interp.hpp"
#include "parallelize/parallelize.hpp"
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

/// Writes a slice's values back into its column.
void applySlice(region::World& world, const FieldSlice& slice);

/// Per-task execution hooks implementing the plan's reduction strategies and
/// (optionally) access validation.
class TaskHooks final : public ir::ExecHooks {
 public:
  TaskHooks(const parallelize::PlannedLoop& loop, std::size_t piece,
            const std::map<std::string, region::Partition>& env, bool validate,
            const region::IndexSet* ownership);

  void onAccess(const ir::Stmt& stmt, region::Index target) override;
  bool shouldWrite(const ir::Stmt&, region::Index target) override;
  bool handleReduce(const ir::Stmt& stmt, region::Index target,
                    double value) override;

  /// The task's buffered-reduction contributions: one slice per reduce
  /// statement with a non-empty buffer, in ascending stmt id order, each
  /// sorted by target.
  [[nodiscard]] std::vector<ReduceSlice> contributions() const;

 private:
  struct ReduceState {
    optimize::ReduceStrategy strategy = optimize::ReduceStrategy::Direct;
    const region::IndexSet* guard = nullptr;  // Guarded: reduction subregion
    const region::IndexSet* privSet = nullptr;  // PrivateSplit: private sub
    std::unordered_map<region::Index, double> buffer;
    ir::ReduceOp op = ir::ReduceOp::Sum;
  };

  const parallelize::PlannedLoop& loop_;
  std::size_t piece_;
  const std::map<std::string, region::Partition>& env_;
  bool validate_;
  const region::IndexSet* ownership_;
  /// Keyed, and therefore iterated, in ascending stmt id order.
  std::map<int, ReduceState> reduces_;
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
/// elements merged.
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

/// A launch's ownership guards, derived once per launch. Duplicated
/// iterations (an aliased iteration partition, Section 5.1 relaxation) could
/// apply a centered write (a store, or a reduce with no planned strategy)
/// twice; each piece then owns the indices no lower-numbered piece contains
/// (first claim), so every write applies exactly once.
class OwnershipGuards {
 public:
  OwnershipGuards(const parallelize::PlannedLoop& loop,
                  const region::Partition& iter);

  /// Piece j's ownership set, or nullptr when the launch needs no guards.
  [[nodiscard]] const region::IndexSet* of(std::size_t piece) const {
    return owned_.empty() ? nullptr : &owned_[piece];
  }

 private:
  std::vector<region::IndexSet> owned_;
};

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
