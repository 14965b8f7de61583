#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "constraint/system.hpp"
#include "ir/ir.hpp"
#include "parallelize/parallelize.hpp"
#include "region/partition.hpp"
#include "region/world.hpp"
#include "runtime/executor.hpp"
#include "runtime/options.hpp"
#include "runtime/plan.hpp"

namespace dpart {

class SessionBuilder;

/// The one-stop facade over the whole pipeline: auto-parallelization
/// (AutoParallelizer), partition materialization and loop execution
/// (PlanExecutor), and the observability layer (Tracer + MetricsRegistry),
/// owned together and wired through every layer. Built fluently:
///
///   auto session = Session::parallelize(program)
///                      .pieces(8)
///                      .options(opts)          // runtime::ExecOptions
///                      .external("FIX", fix)   // Section 3.3 partitions
///                      .run(world);            // plan + execute once
///   session.run();                             // further timesteps
///
/// Compilation and execution also split explicitly: compile() produces an
/// immutable, shareable dpart::Plan and Session::execute() builds a session
/// around a precompiled plan without re-running the compiler — the API the
/// plan service uses to hand one cached plan to many tenants:
///
///   dpart::Plan plan =
///       Session::parallelize(program).pieces(8).compile(world);
///   auto session = Session::execute(plan, world, opts);
///   session.run();
///
/// The fluent run()/build() path is a thin wrapper over compile()+execute().
/// Planning happens exactly once; the executor (and with it the global
/// launch index, checkpoint state and fault-injection wiring) persists
/// across run() calls, so multi-timestep simulations behave identically to
/// driving PlanExecutor by hand. When ObservabilityOptions::traceFile /
/// metricsFile are set, the session owns a Tracer / MetricsRegistry and
/// rewrites both files at the end of every run() (latest run wins).
class Session {
 public:
  /// Entry point: start building a session for `program`.
  [[nodiscard]] static SessionBuilder parallelize(const ir::Program& program);

  /// Builds a session around a precompiled `plan` (from
  /// SessionBuilder::compile(), possibly shared with other sessions or
  /// served from the plan cache) without re-running the compiler. External
  /// partitions can be bound through executor().bindExternal() before the
  /// first run().
  [[nodiscard]] static Session execute(Plan plan, region::World& world,
                                       runtime::ExecOptions opts = {});

  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;
  ~Session();

  /// Executes every planned loop once (one timestep) and refreshes the
  /// trace/metrics artifacts. See PlanExecutor::run() for fault semantics.
  void run();

  /// Adaptive rebalances performed so far (see SessionBuilder::adaptive).
  [[nodiscard]] std::size_t rebalances() const;

  [[nodiscard]] const parallelize::ParallelPlan& plan() const;
  [[nodiscard]] const parallelize::CompileStats& stats() const;

  /// The immutable compile artifact this session executes — copy it to
  /// share the plan with further Session::execute() calls.
  [[nodiscard]] const Plan& compiledPlan() const;

  /// The executor driving the plan — the escape hatch for everything the
  /// facade does not wrap (taskReplays(), checkpointManager(), ...).
  [[nodiscard]] runtime::PlanExecutor& executor();
  [[nodiscard]] const runtime::PlanExecutor& executor() const;

  [[nodiscard]] const std::map<std::string, region::Partition>& partitions()
      const;
  [[nodiscard]] const region::Partition& partition(
      const std::string& name) const;

  /// The session's tracer: the ObservabilityOptions-supplied one, the
  /// session-owned one, or nullptr when tracing is off entirely.
  [[nodiscard]] Tracer* tracer() const;

  /// The session's metrics registry (never null: the session owns one when
  /// the options did not supply one).
  [[nodiscard]] MetricsRegistry& metrics() const;

  /// Writes the trace / metrics artifacts configured in
  /// ObservabilityOptions now (also done automatically after every run()).
  void writeArtifacts() const;

 private:
  friend class SessionBuilder;
  struct Impl;
  explicit Session(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Fluent configuration collected before the one-time planning step. All
/// setters return *this; build()/run() consume the builder.
class SessionBuilder {
 public:
  explicit SessionBuilder(const ir::Program& program);

  /// Runtime options (threads, validation, resilience, checkpointing,
  /// observability).
  SessionBuilder& options(runtime::ExecOptions opts);
  /// Compiler options (relaxation, unification, ... ablations).
  SessionBuilder& compileOptions(parallelize::Options opts);
  /// Number of pieces / parallel tasks (required, must be > 0).
  SessionBuilder& pieces(std::size_t n);
  /// Binds an externally constructed partition (Section 3.3).
  SessionBuilder& external(std::string name, region::Partition partition);
  /// Registers user-provided invariants on external partitions.
  SessionBuilder& externalConstraint(constraint::System system);

  // ---- External-constraint vocabulary (docs/constraint-language.md) ----
  /// No piece of any partition of `region` may hold more than `maxPerPiece`
  /// elements.
  SessionBuilder& capacity(std::string region, std::size_t maxPerPiece);
  /// The access partitions of two "region.field" fields must be piecewise
  /// identical (same piece -> same node).
  SessionBuilder& colocate(std::string fieldA, std::string fieldB);
  /// The access partitions of two "region.field" fields must be piecewise
  /// disjoint (no node owns both fields' copy of the same index).
  SessionBuilder& antiAffinity(std::string fieldA, std::string fieldB);
  /// Total materialized elements of any partition of `region` must stay in
  /// [minFactor, maxFactor] x |region| (maxFactor <= 0: unbounded above).
  SessionBuilder& replication(std::string region, double minFactor,
                              double maxFactor = 0.0);
  /// Writes a machine-checkable proof certificate of the solve (DPRF
  /// format, docs/solver.md) to `file`; tools/proof_check replays it.
  SessionBuilder& proof(std::string file);
  /// Enables skew-aware adaptive repartitioning (runtime/rebalance): the
  /// executor watches per-piece task times and swaps skewed loops'
  /// `equal` bases for weighted partitions.
  SessionBuilder& adaptive();

  /// Runs the compiler only: infer / relax / canonicalize / (cached)
  /// solve / synthesize against `world`'s region shapes, returning the
  /// result as an immutable shareable Plan. No executor is built and no
  /// loop runs; pass the Plan to Session::execute() — as many times as
  /// needed — to run it. `tracer`, when given, records one "compile" span
  /// with the compile phases nested inside as "compile"-category spans (the
  /// plan service passes its own, so the span nests in service.request).
  [[nodiscard]] Plan compile(region::World& world, Tracer* tracer = nullptr);

  /// Plans (once) and wires up the executor without running any loop —
  /// compile() + Session::execute() with this builder's options.
  [[nodiscard]] Session build(region::World& world);
  /// build() followed by one Session::run().
  [[nodiscard]] Session run(region::World& world);

 private:
  ir::Program program_;
  runtime::ExecOptions options_;
  parallelize::Options compileOptions_;
  std::size_t pieces_ = 0;
  std::vector<std::pair<std::string, region::Partition>> externals_;
  std::vector<constraint::System> externalConstraints_;
};

}  // namespace dpart
