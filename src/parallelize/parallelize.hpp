#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/infer.hpp"
#include "analysis/parallelizable.hpp"
#include "constraint/propagate.hpp"
#include "constraint/solver.hpp"
#include "constraint/system.hpp"
#include "constraint/vocab.hpp"
#include "dpl/program.hpp"
#include "ir/ir.hpp"
#include "optimize/reduction_opt.hpp"
#include "region/verify.hpp"
#include "region/world.hpp"
#include "support/trace.hpp"

namespace dpart::parallelize {

class SolveCache;

/// Tuning knobs for the auto-parallelizer.
struct Options {
  /// Apply the Section 5.1 relaxation (guarded reductions, aliased
  /// iteration partitions) where legal.
  bool enableRelaxation = true;
  /// Try to make single-function uncentered reductions disjoint via a
  /// preimage iteration partition (Section 5.1's first strategy).
  bool enableDisjointReduction = true;
  /// Subtract private sub-partitions from buffered reduction partitions
  /// (Section 5.2 / Theorem 5.1).
  bool enablePrivateSubPartitions = true;
  /// Unify partition symbols across loops (Algorithm 3). Disabling this
  /// yields the paper's "naive" per-access partitioning, used by the
  /// ablation benchmarks.
  bool enableUnification = true;
  /// Optional shared solve cache (borrowed, must outlive the parallelizer):
  /// the collapse+unify+solve stage is skipped when an isomorphic program —
  /// same canonical constraint-graph form, possibly under renamed symbols,
  /// regions and fns — was compiled before, and its cached solution is
  /// rebound into this program's names. nullptr disables caching.
  /// Vocabulary-constrained and proof-emitting compiles bypass the cache:
  /// their solutions depend on concrete region names and sizes, which
  /// canonical isomorphism deliberately abstracts away. Only a compile that
  /// consults the cache computes the canonical key (CompileStats::cacheKey);
  /// every other compile skips that stage.
  SolveCache* solveCache = nullptr;
  /// External-constraint vocabulary (capacity / co-location / anti-affinity
  /// / replication); enforced by the solver's vocabulary rules, checked at
  /// runtime by region/verify. Empty = no extra constraints.
  constraint::Vocabulary vocab;
  /// Piece count partitions will be materialized at; required (> 0) when
  /// `vocab` carries capacity or replication bounds.
  std::size_t pieces = 0;
  /// When non-empty, write a machine-checkable proof certificate of the
  /// solve (DPRF format, see docs/solver.md) to this path — on success and
  /// on infeasibility alike. tools/proof_check replays it.
  std::string proofFile;
};

/// Timing breakdown of one auto-parallelization run (paper Table 1 rows).
/// Each field is the wall time of the "compile"-category trace spans named
/// beside it, which bracket the same code when a tracer is installed.
struct CompileStats {
  double inferMs = 0;   // phase.infer: vocabulary checks + Algorithm 1
  /// phase.canon: canonical cache-key construction and the SolveCache
  /// lookup; 0 when the compile does not consult a cache.
  double canonMs = 0;
  double unifyMs = 0;   // phase.unify: Algorithm 3 symbol unification
  /// phase.relax + phase.solve: relaxation analysis, vocabulary translation
  /// and constraint resolution with its cache insert — or, on a cache hit,
  /// the rebind of the cached solve.
  double solveMs = 0;
  double rewriteMs = 0; // phase.synthesize: plan construction ("rewrite")
  int parallelLoops = 0;
  /// Canonical constraint-graph hash of this compile (the SolveCache key);
  /// 0 when the compile does not consult a cache — none attached, a
  /// vocabulary, or a proof request.
  std::uint64_t cacheKey = 0;
  /// True when collapse+unify+solve was served from Options::solveCache.
  bool cacheHit = false;
  /// Search counters of every solve the compile ran, a failed Section 5.1
  /// disjoint-reduction attempt included (compile.propagate.* gauges; all
  /// zero on a cache hit).
  constraint::SolveStats solve;
  /// Proof-certificate size (compile.proof.* gauges; zero when no
  /// certificate was requested).
  std::size_t proofEvents = 0;
  std::size_t proofBytes = 0;
};

/// Execution plan for one loop: which partition each access uses, how each
/// reduction is handled, and whether the loop was relaxed.
struct PlannedLoop {
  const ir::Loop* loop = nullptr;
  std::string iterPartition;
  bool relaxed = false;
  /// stmt id -> final (post-unification) partition symbol for the access.
  std::map<int, std::string> accessPartition;
  /// Reduction handling per reduce stmt id.
  std::map<int, optimize::ReducePlan> reduces;
};

/// The full result of auto-parallelization: a DPL program constructing every
/// needed partition, plus per-loop execution plans.
struct ParallelPlan {
  /// Owned copy of the analyzed program. Every `PlannedLoop::loop` points
  /// into this copy, so a plan stays valid (and copyable/movable) even when
  /// the program passed to `plan()` was a temporary.
  std::shared_ptr<const ir::Program> program;
  dpl::Program dpl;
  std::vector<PlannedLoop> loops;
  constraint::System system;  ///< final resolved system (diagnostics)
  CompileStats stats;
  std::set<std::string> externalSymbols;  ///< partitions the caller must bind
  /// The vocabulary this plan was compiled under, in both user (field) and
  /// solver (symbol) terms — planExpectations turns them into runtime
  /// verification obligations.
  constraint::Vocabulary vocab;
  constraint::SolverVocabulary solverVocab;

  [[nodiscard]] std::string toString() const;
};

/// The partition expectations a plan's execution must satisfy, merged per
/// final partition symbol: iteration partitions must be disjoint (unless
/// relaxed) and complete, guarded-reduction partitions disjoint+complete,
/// private sub-partitions disjoint and contained in their reduce partition —
/// plus, under a vocabulary, capacity / replication / co-location /
/// anti-affinity obligations. runtime::PlanExecutor verifies these against
/// every materialized partition (region/verify) before launching, and proof
/// certificates embed them so tools/proof_check can cross-validate the
/// solver's model against the runtime's ground truth.
[[nodiscard]] std::vector<region::PartitionExpectation> planExpectations(
    const ParallelPlan& plan, std::size_t pieces);

/// The first shape problem of `vocab` against `world` and the piece count —
/// an unknown region, a zero capacity, a negative or inverted replication
/// bound, an affinity field not of the form "region.field", or capacity /
/// replication bounds without `pieces` — or "" when it is well-formed.
/// Shape problems are the caller's fault (the plan service answers them
/// with BadRequest); infeasibility is only ever decided by the solver.
[[nodiscard]] std::string vocabularyProblem(
    const constraint::Vocabulary& vocab, const region::World& world,
    std::size_t pieces);

/// Resolves the solver-synthesized `equal` base partition behind a loop's
/// iteration partition: follows alias statements (`P = Q`) in the plan's DPL
/// program from `loop.iterPartition` and, when the chain ends at a statement
/// of the form `B = equal(iterRegion)`, returns `B`. Returns "" when the
/// iteration partition is not equal-derived (e.g. a relaxed loop iterating a
/// preimage, or an externally bound partition) — such loops cannot be
/// rebalanced by substituting a weighted base (runtime/rebalance).
[[nodiscard]] std::string equalBaseSymbol(const ParallelPlan& plan,
                                          const PlannedLoop& loop);

/// The public entry point: the paper's compiler pass.
///
///   AutoParallelizer ap(world);
///   ap.addExternalConstraint(userInvariants);   // Section 3.3, optional
///   ParallelPlan plan = ap.plan(program);       // throws Error on failure
///
/// The plan's DPL program is then evaluated (dpl::Evaluator) with the
/// external partitions bound, and the loops executed by runtime::PlanExecutor.
class AutoParallelizer {
 public:
  explicit AutoParallelizer(const region::World& world, Options options = {});

  /// Registers user-provided invariants on existing partitions. All
  /// conjuncts become assumed hypotheses and all symbols become fixed.
  void addExternalConstraint(const constraint::System& external);

  /// Runs the full pipeline on a program of parallelizable loops, one stage
  /// after another: infer -> relax -> key (only when a SolveCache is
  /// consulted) -> resolve (unify + solve, or a cache rebind) ->
  /// synthesize.
  [[nodiscard]] ParallelPlan plan(const ir::Program& program);

  /// Records one "compile"-category span per pipeline phase into `tracer`
  /// (the trace-side view of CompileStats). nullptr disables.
  void setTracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  const region::World& world_;
  Options options_;
  Tracer* tracer_ = nullptr;
  std::vector<constraint::System> externals_;

  [[nodiscard]] std::set<std::string> rangeFnIds() const;
};

}  // namespace dpart::parallelize
