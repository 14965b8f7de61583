#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "constraint/system.hpp"

namespace dpart::constraint {

/// Canonicalization of constraint-graph isomorphism classes.
///
/// Algorithm 3's unification already treats two loops as "the same" when
/// their constraint graphs are isomorphic under a renaming of partition
/// symbols; this module lifts that to whole programs so a compile result can
/// be cached across tenants: two programs whose pre-unification constraint
/// systems are isomorphic under a joint renaming of partition symbols,
/// regions and function ids receive the same canonical form — the same
/// 64-bit hash (the plan-cache key) and the same canonical rendering (the
/// collision guard) — together with the renaming itself, so a solve cached
/// under one tenant's names can be rebound into another tenant's names.
/// "Distribution Constraints: The Chase" grounds why this is sound:
/// entailment between distribution-constraint systems is structural, so
/// isomorphic systems have isomorphic solution sets.

/// A rename over the three name spaces a constraint system mentions.
/// Names absent from a map pass through unchanged (the identity function id
/// `f_ID` is deliberately never renamed: it is structural, not symbolic).
struct NameMaps {
  std::map<std::string, std::string> symbols;
  std::map<std::string, std::string> regions;
  std::map<std::string, std::string> fns;

  [[nodiscard]] const std::string& symbol(const std::string& name) const;
  [[nodiscard]] const std::string& region(const std::string& name) const;
  [[nodiscard]] const std::string& fn(const std::string& name) const;

  /// Swaps keys and values of every map (requires each to be injective).
  [[nodiscard]] NameMaps inverted() const;
};

/// Rebuilds an expression with every symbol / region / fn renamed.
[[nodiscard]] dpl::ExprPtr mapExpr(const dpl::ExprPtr& e, const NameMaps& m);

/// Rebuilds a system with every name mapped (declarations, predicates and
/// subset conjuncts alike); fixedness and assumed flags are preserved.
[[nodiscard]] System mapSystem(const System& s, const NameMaps& m);

/// One loop's contribution to the canonical form: its (post-relaxation)
/// constraint system plus the loop-level facts the downstream pipeline
/// consumes before solving — whether the loop was relaxed and which
/// partition symbols its uncentered reductions target (these drive the
/// Section 5.1 disjoint-reduction attempt, so they are part of the key).
struct CanonicalLoop {
  const System* system = nullptr;
  bool relaxed = false;
  std::vector<std::string> reduceTargets;
};

/// The canonical form of one program's pre-unification constraint state.
struct CanonicalForm {
  /// Cache key: 64-bit hash of `rendering`.
  std::uint64_t hash = 0;
  /// Complete, faithful text of the canonicalized systems (sorted conjuncts
  /// in canonical names). Two programs share a cache entry iff their
  /// renderings are byte-equal — the guard that makes a hash collision
  /// between structurally distinct programs harmless.
  std::string rendering;
  /// Request names -> canonical names ("s0..", "r0..", "f0.."), covering
  /// every symbol, region and fn the systems mention.
  NameMaps toCanonical;
};

/// Canonicalizes the given per-loop systems plus external constraint
/// systems via color refinement over the joint colored constraint graph
/// (symbols, regions, fns and loop tags as nodes; conjuncts as labeled
/// hyperedges), with deterministic individualization of residual ties.
/// `rangeFns` colors range-valued fns differently from point fns (the
/// lemma engine distinguishes them), and `optionBits` folds the compile
/// options that change the pipeline's output into the key.
///
/// The form's only consumer is a SolveCache lookup, so the parallelizer
/// computes it only for compiles that consult a cache: one is attached, and
/// there is no external vocabulary and no proof request (their solutions
/// bind to concrete names and sizes, which the form abstracts away).
///
/// Isomorphic inputs produce identical hash + rendering; the labeling is an
/// isomorphism onto the canonical form whenever the rendering matches, so
/// correctness of a cache hit never depends on the tie-breaking heuristic.
[[nodiscard]] CanonicalForm canonicalize(
    const std::vector<CanonicalLoop>& loops,
    const std::vector<const System*>& externals,
    const std::set<std::string>& rangeFns, std::uint64_t optionBits);

}  // namespace dpart::constraint
