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

/// Result of combining and unifying per-loop (and external) systems.
struct UnifyResult {
  System system;
  /// Eliminated symbol -> surviving symbol, for mapping per-loop access
  /// symbols to the final unified names.
  std::map<std::string, std::string> renames;

  /// followRenames over `renames`.
  [[nodiscard]] std::string resolve(std::string symbol) const {
    return followRenames(renames, std::move(symbol));
  }
};

/// Intra-system simplification: collapses plain subset edges P <= Q between
/// symbols of the same region by unifying Q into P when the system stays
/// solvable (the paper's Example 4, which folds the partitions of centered
/// accesses into the iteration-space partition).
void collapsePlainEdges(System& system,
                        std::map<std::string, std::string>& renames,
                        const std::set<std::string>& rangeFns);

/// Algorithm 3 (UnifyAndSolve's unification phase): combines the given
/// systems, greedily unifying symbols along maximal common subgraphs of
/// their constraint graphs, validating each unification by solvability.
/// Systems should arrive with external conjuncts already marked assumed.
UnifyResult unifySystems(std::vector<System> systems,
                         const std::set<std::string>& rangeFns);

}  // namespace dpart::constraint
