#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "constraint/system.hpp"

namespace dpart::constraint {

/// One edge of a constraint graph (paper Fig. 9): an unlabeled edge encodes
/// P1 <= P2 and an edge labeled with a function symbol f encodes
/// image(P1, f, R) <= P2. These are the only subset forms inference emits.
struct GraphEdge {
  std::string from;
  std::string to;
  std::string label;  ///< "" for plain subset edges
};

/// Extracts the constraint graph of a system.
std::vector<GraphEdge> constraintGraph(const System& system);

/// Follows rename chains (eliminated symbol -> surviving symbol) from
/// `symbol` to the name that survives them all.
[[nodiscard]] std::string followRenames(
    const std::map<std::string, std::string>& renames, std::string symbol);

/// Trial solves of one unifySystems call.
struct UnifyStats {
  std::size_t collapseTrials = 0;  ///< collapse trials (once per loop shape)
  std::size_t crossTrials = 0;     ///< cross-loop candidates checked
  /// Cross-loop candidates whose solve with the last solution pinned
  /// failed, so that they were searched in full.
  std::size_t pinnedMisses = 0;
};

/// Result of combining and unifying per-loop (and external) systems.
struct UnifyResult {
  System system;
  /// Eliminated symbol -> surviving symbol, for mapping per-loop access
  /// symbols to the final unified names.
  std::map<std::string, std::string> renames;
  UnifyStats stats;

  /// followRenames over `renames`.
  [[nodiscard]] std::string resolve(std::string symbol) const {
    return followRenames(renames, std::move(symbol));
  }
};

/// Intra-system simplification: collapses plain subset edges P <= Q between
/// symbols of the same region by unifying Q into P when the system stays
/// solvable (the paper's Example 4, which folds the partitions of centered
/// accesses into the iteration-space partition). Edges are tried in subset
/// order, and the scan restarts after each accepted rename.
void collapsePlainEdges(System& system,
                        std::map<std::string, std::string>& renames,
                        const std::set<std::string>& rangeFns);

/// Algorithm 3 (UnifyAndSolve's unification phase). First collapses each
/// system's plain edges as collapsePlainEdges does, with trial solves only
/// for the first system of each loop shape (systems equal up to a renaming
/// of their open symbols); the others replay its renames. Then combines the
/// systems, biggest first, greedily unifying symbols along maximal common
/// subgraphs of their constraint graphs and validating each candidate by a
/// trial solve, first with the last accepted trial's solution pinned and in
/// full only when that fails. Systems should arrive with external
/// conjuncts already marked assumed, so that their symbols are fixed and
/// never collapsed away. Collapse renames appear in the result unless
/// unification renamed the same symbol.
UnifyResult unifySystems(std::vector<System> systems,
                         const std::set<std::string>& rangeFns);

}  // namespace dpart::constraint
