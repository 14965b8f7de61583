#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "dpl/program.hpp"
#include "region/dpl_ops.hpp"
#include "region/partition.hpp"
#include "region/world.hpp"
#include "support/fault.hpp"
#include "support/perf_counters.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace dpart::dpl {

/// Executes DPL programs against a World, producing concrete Partitions.
///
/// External partitions (the user-provided ones of Section 3.3) are bound
/// before running; `equal(R)` nodes — whose piece counts are elided in the
/// constraint language — are instantiated with the evaluator's piece count,
/// which corresponds to the number of parallel tasks / nodes.
///
/// Materialization pipeline (see DESIGN.md "Evaluation pipeline"):
///  - Kernels run on a ThreadPool the evaluator owns or borrows (serial when
///    absent): per-subregion fan-out for image and the set operators, a
///    sharded target scan for preimage.
///  - Results are memoized per structurally-hashed subexpression (operand
///    order canonicalized for the commutative u / n), so the duplicated
///    subtrees that Algorithm 3's unification emits in bulk — and repeated
///    preimage(...) chains — materialize once. Symbols key on a per-binding
///    generation, so rebinding invalidates exactly the entries that depended
///    on the old binding.
///  - PerfCounters record per-operator wall time, elements touched, runs
///    produced, and cache hits/misses.
class Evaluator {
 public:
  /// Serial evaluation (no pool). The reference configuration the
  /// differential tests compare the parallel pipeline against.
  Evaluator(const region::World& world, std::size_t pieces)
      : world_(world), pieces_(pieces) {}

  /// Owns a pool with the given worker count (0 = hardware concurrency).
  Evaluator(const region::World& world, std::size_t pieces,
            std::size_t threads)
      : world_(world),
        pieces_(pieces),
        ownedPool_(std::make_unique<ThreadPool>(threads)),
        pool_(ownedPool_.get()) {}

  /// Borrows an existing pool (e.g. the PlanExecutor's task pool).
  Evaluator(const region::World& world, std::size_t pieces, ThreadPool& pool)
      : world_(world), pieces_(pieces), pool_(&pool) {}

  /// Binds a symbol to an externally constructed partition.
  void bind(const std::string& name, region::Partition partition);

  [[nodiscard]] bool has(const std::string& name) const {
    return env_.contains(name);
  }
  [[nodiscard]] const region::Partition& partition(
      const std::string& name) const;

  /// Evaluates one expression in the current environment.
  [[nodiscard]] region::Partition eval(const ExprPtr& expr) const;

  /// Runs a whole program, binding each statement's result; returns the
  /// environment (externals + all defined partitions).
  const std::map<std::string, region::Partition>& run(const Program& program);

  [[nodiscard]] const std::map<std::string, region::Partition>& env() const {
    return env_;
  }

  [[nodiscard]] std::size_t pieces() const { return pieces_; }

  /// Re-targets the evaluator at a new piece count (elastic shrink after a
  /// permanent node loss). Drops every binding and memoized result: `equal`
  /// nodes are instantiated with the piece count, so nothing materialized at
  /// the old count is reusable. Counters keep accumulating across the reset.
  void reset(std::size_t pieces) {
    pieces_ = pieces;
    env_.clear();
    cache_.clear();
  }

  /// Memoization is on by default; turning it off makes every eval()
  /// recompute from scratch (used by the differential tests' reference).
  void setMemoize(bool on) { memoize_ = on; }

  [[nodiscard]] const PerfCounters& counters() const { return counters_; }

  /// Installs a fault injector consulted at the per-operator sites
  /// "dpl:union", "dpl:intersect", "dpl:subtract", "dpl:image",
  /// "dpl:preimage" and "dpl:equal". Crash faults throw EvalFailure; Poison
  /// faults corrupt the operator's result (dropping or duplicating one
  /// element), which the partition legality verifier is expected to catch.
  /// nullptr (the default) disables injection.
  void setFaultInjector(FaultInjector* injector) { injector_ = injector; }

  /// Replaces the real sleep used by injected Straggler stalls, so tests can
  /// run fault scenarios without wall-clock delays. The stall is always
  /// recorded in counters().injectedStallMicros, never in operator wall
  /// time. Must be thread-safe; empty restores real sleeping.
  void setSleepHook(std::function<void(std::uint64_t)> hook) {
    sleepHook_ = std::move(hook);
  }

  /// Records one "dpl"-category span per operator kernel (annotated with
  /// result element/run counts) and a "memo.hit" instant per cache hit into
  /// `tracer`. nullptr (the default) disables tracing.
  void setTracer(Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] Tracer* tracer() const { return tracer_; }

 private:
  /// Evaluates expr, consulting/populating the memo cache at every
  /// non-symbol node.
  region::Partition evalMemo(const ExprPtr& expr) const;
  [[nodiscard]] std::string cacheKey(const ExprPtr& expr) const;

  const region::World& world_;
  std::size_t pieces_;
  std::map<std::string, region::Partition> env_;
  /// Monotone generation per bound symbol; part of every cache key that
  /// mentions the symbol, so rebinding never resurrects a stale entry.
  std::map<std::string, std::uint64_t> bindingGen_;
  std::uint64_t nextGen_ = 0;
  bool memoize_ = true;
  mutable std::unordered_map<std::string, region::Partition> cache_;
  mutable PerfCounters counters_;
  std::unique_ptr<ThreadPool> ownedPool_;
  ThreadPool* pool_ = nullptr;
  FaultInjector* injector_ = nullptr;
  Tracer* tracer_ = nullptr;
  std::function<void(std::uint64_t)> sleepHook_;
};

}  // namespace dpart::dpl
