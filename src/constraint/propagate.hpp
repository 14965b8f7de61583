#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "constraint/proof.hpp"
#include "constraint/system.hpp"
#include "constraint/vocab.hpp"
#include "dpl/expr.hpp"

namespace dpart::constraint {

/// Search-node value ordering.
enum class SearchHeuristic {
  /// The paper's Algorithm 2 order: Rule 1 (preimage), Rule 2 (union of
  /// lower bounds), Rule 3 (externals then equal) interleaved across
  /// symbols.
  PaperOrder,
  /// First-fail: group candidates by symbol, smallest live domain first.
  SmallestDomain,
};

[[nodiscard]] const char* toString(SearchHeuristic h);

/// Restart schedule: each attempt runs with a step budget; on exhaustion the
/// search restarts with the alternate heuristic and a grown budget, until
/// the solver's total step budget (Solver::setMaxSteps) is spent. The
/// default first budget is far above anything the paper's programs need, so
/// restarts never fire for them and plan bit-identity is preserved.
struct SearchOptions {
  SearchHeuristic heuristic = SearchHeuristic::PaperOrder;
  std::size_t restartBudget = 65536;
  double restartGrowth = 4.0;
};

/// Search counters (surfaced as compile.propagate.* gauges).
struct SolveStats {
  std::size_t propagations = 0;  ///< vocabulary rule runs (see propagate)
  std::size_t prunes = 0;        ///< candidates removed by the rules
  std::size_t branches = 0;      ///< search-tree edges taken
  std::size_t backtracks = 0;    ///< failed nodes unwound
  std::size_t restarts = 0;      ///< heuristic restarts

  SolveStats& operator+=(const SolveStats& o) {
    propagations += o.propagations;
    prunes += o.prunes;
    branches += o.branches;
    backtracks += o.backtracks;
    restarts += o.restarts;
    return *this;
  }
};

/// First-conflict provenance for an infeasible vocabulary: which constraint
/// first emptied which symbol's options, and why.
struct ConflictInfo {
  std::string symbol;      ///< partition symbol that became unassignable
  std::string rule;        ///< vocabulary rule id (e.g. "capacity-comp")
  std::string detail;      ///< human-readable justification

  [[nodiscard]] bool valid() const { return !rule.empty(); }
  [[nodiscard]] std::string toString() const;
};

/// Interval bounds on the pieces a ground DPL expression materializes:
/// [maxPieceLo, maxPieceHi] bounds the largest piece's element count and
/// [totalLo, totalHi] the sum over all pieces. Derived structurally from
/// region sizes alone (fixed external symbols are unknown partitions of a
/// known region), so every bound holds for *any* assignment of externals —
/// which is what makes the rules' prunes sound and the certificate's
/// arithmetic independently re-checkable.
struct PieceBounds {
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();
  std::size_t maxPieceLo = 0;
  std::size_t maxPieceHi = kUnbounded;
  std::size_t totalLo = 0;
  std::size_t totalHi = kUnbounded;
};

/// Environment for the interval arithmetic.
struct BoundsEnv {
  const std::map<std::string, std::size_t>* regionSizes = nullptr;
  std::size_t pieces = 0;
  const std::set<std::string>* rangeFns = nullptr;
  /// Region a (fixed) symbol partitions; "" when unknown.
  std::function<std::string(const std::string&)> regionOf;
};

[[nodiscard]] PieceBounds boundsOf(const dpl::Expr& e, const BoundsEnv& env);

/// Per-node domain store over the flat candidate list the paper's candidate
/// generation produced for this search node. Candidates keep their global
/// (paper) order; the vocabulary rules flip live flags off.
class DomainStore {
 public:
  struct Entry {
    std::string symbol;
    dpl::ExprPtr expr;
    bool live = true;
  };

  void add(std::string symbol, dpl::ExprPtr expr);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const Entry& entry(std::size_t i) const { return entries_[i]; }
  [[nodiscard]] bool live(std::size_t i) const { return entries_[i].live; }
  void kill(std::size_t i) { entries_[i].live = false; }

  [[nodiscard]] std::size_t liveCount(const std::string& symbol) const;
  [[nodiscard]] const std::vector<std::size_t>& indicesOf(
      const std::string& symbol) const;

  /// Iteration order for branching under the given heuristic. PaperOrder is
  /// the identity permutation; SmallestDomain stably groups by symbol with
  /// the fewest live candidates first.
  [[nodiscard]] std::vector<std::size_t> order(SearchHeuristic h) const;

 private:
  std::vector<Entry> entries_;
  std::map<std::string, std::vector<std::size_t>> bySymbol_;
  static const std::vector<std::size_t> kEmpty;
};

/// State one propagation pass over a search node operates on.
struct PropagationContext {
  DomainStore* dom = nullptr;
  /// Current grounded partial assignment (values fully substituted).
  const std::map<std::string, dpl::ExprPtr>* partial = nullptr;
  /// The node's substituted system (for requiresDisj/requiresComp/regionOf).
  const System* system = nullptr;
  BoundsEnv bounds;
  ProofLog* proof = nullptr;
  std::size_t nodeId = 0;
  SolveStats* stats = nullptr;

  /// Out: symbol refuted outright (search node fails immediately).
  bool refuted = false;
  ConflictInfo conflict;

  void prune(std::size_t idx, const std::string& rule,
             const std::string& detail);
  void refute(const std::string& symbol, const std::string& rule,
              const std::string& detail);
};

/// Runs every vocabulary rule once over the node's domain store, in order:
/// capacity by symbol, replication by symbol, co-location pairs, then
/// anti-affinity pairs. Stops at the first refutation. One pass is a
/// fixpoint: each rule reads only the partial assignment, the node's system
/// and the candidates themselves, never another rule's prunes, so running
/// a rule again prunes nothing new. Counts one propagation per rule run.
void propagate(const SolverVocabulary& vocab, PropagationContext& ctx);

}  // namespace dpart::constraint
