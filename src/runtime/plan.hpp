#pragma once

#include <cstdint>
#include <memory>

#include "parallelize/parallelize.hpp"

namespace dpart {

class Session;
class SessionBuilder;

/// An immutable compilation artifact: the ParallelPlan produced by the
/// auto-parallelizer together with its CompileStats (canonical cache key,
/// phase timings, cache-hit flag) and the piece count it was compiled for.
///
/// A Plan is a cheap handle — copies share one heap payload — and is safe
/// to execute from many Sessions at once, including concurrently:
/// PlanExecutor only ever reads the plan (adaptive rebalancing rewrites a
/// private copy of the DPL program, never the plan itself), and the shared
/// payload keeps the ParallelPlan address-stable for as long as any
/// executor references it. This is the unit the plan service caches and
/// hands to every tenant whose program canonicalizes to the same key.
///
/// Produced by SessionBuilder::compile(); consumed by Session::execute():
///
///   dpart::Plan plan =
///       Session::parallelize(program).pieces(8).compile(world);
///   auto session = Session::execute(plan, world);   // no recompile
///   session.run();
///
/// A default-constructed Plan is empty (valid() == false); every other
/// accessor checks validity.
class Plan {
 public:
  Plan() = default;

  /// False only for a default-constructed (empty) Plan.
  [[nodiscard]] bool valid() const { return payload_ != nullptr; }

  /// The compiled plan: DPL partitioning program + per-loop launch plans.
  [[nodiscard]] const parallelize::ParallelPlan& parallelPlan() const;

  /// Table 1 phase breakdown, canonical cache key, cache-hit flag.
  [[nodiscard]] const parallelize::CompileStats& stats() const;

  /// The unification-canonical constraint-graph hash (CompileStats::cacheKey)
  /// — equal for isomorphic programs, the solve-cache / plan-service key.
  /// 0 unless the compile consulted a SolveCache (compileOptions with
  /// Options::solveCache, no vocabulary, no proof request).
  [[nodiscard]] std::uint64_t cacheKey() const;

  /// Whether this compile skipped collapse+unify+solve via the solve cache.
  [[nodiscard]] bool cacheHit() const;

  /// The piece count the plan was compiled for (SessionBuilder::pieces).
  [[nodiscard]] std::size_t pieces() const;

 private:
  friend class Session;
  friend class SessionBuilder;
  struct Payload {
    parallelize::ParallelPlan plan;
    std::size_t pieces = 0;
  };
  explicit Plan(std::shared_ptr<const Payload> payload)
      : payload_(std::move(payload)) {}
  std::shared_ptr<const Payload> payload_;
};

}  // namespace dpart
