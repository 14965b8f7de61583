#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "constraint/propagate.hpp"
#include "constraint/system.hpp"
#include "constraint/vocab.hpp"
#include "dpl/program.hpp"

namespace dpart::constraint {

class ProofLog;

/// Per-solve configuration of the solver.
struct SolverConfig {
  /// Vocabulary constraints translated onto this system's symbols.
  SolverVocabulary vocab;
  /// |R| per region name (the vocabulary rules' interval arithmetic; may be
  /// empty, in which case no size-based rule fires).
  std::map<std::string, std::size_t> regionSizes;
  /// Piece count partitions will be materialized at (0 = unknown).
  std::size_t pieces = 0;
  SearchOptions search;
  /// Proof certificate sink; the caller emits the header (model + system)
  /// and the solve appends its own search trail. nullptr disables logging.
  ProofLog* proof = nullptr;
};

/// Result of constraint resolution.
struct Solution {
  bool ok = false;
  std::string failure;  ///< first unprovable conjunct / search exhaustion
  /// The search stopped on its step budget (Solver::setMaxSteps) before it
  /// decided the system: `ok` is false and proves nothing.
  bool budgetExhausted = false;

  /// Ground expression synthesized for each open symbol (references only
  /// DPL operators and fixed external symbols).
  std::map<std::string, ExprPtr> assignments;
  /// Assignment order (respects derivation dependencies).
  std::vector<std::string> order;
  /// The fully substituted, verified system (diagnostics / tests).
  System resolved;
  /// Search counters.
  SolveStats stats;
  /// First-conflict provenance when the failure stems from the external
  /// vocabulary (valid() iff a vocabulary rule emptied a symbol's options).
  ConflictInfo conflict;

  /// Emits the solution as a DPL program with subexpression CSE, so derived
  /// partitions reference earlier ones (paper Fig. 2b / Fig. 10b shapes).
  [[nodiscard]] dpl::Program program() const;

  explicit operator bool() const { return ok; }
};

/// Algorithm 2: resolves a partitioning constraint system into one equality
/// per open partition symbol, backtracking over candidate expressions and
/// validating leaves with the lemma engine.
///
/// Candidate preference implements the paper's heuristics:
///  1. preimage for image-subsets with closed RHS (disjointness flows
///     right-to-left; lemmas L12/L14),
///  2. union of closed lower bounds (L13),
///  3. for DISJ/COMP symbols in descending subset-depth order: externally
///     provided partitions first (partition reuse, Section 3.3), then
///     equal(R) (L1).
///
/// Each search node's candidates seed a domain store, one ordered pass of
/// the vocabulary rules prunes it (constraint/propagate), and the branching
/// order is a restartable heuristic. See docs/solver.md.
class Solver {
 public:
  /// `rangeFns` lists range-valued fn ids (Section 4 lemma exclusions).
  Solver(System system, std::set<std::string> rangeFns);
  Solver(System system, std::set<std::string> rangeFns, SolverConfig config);

  /// Solves, optionally starting from initial equalities (used both for
  /// external fixes and for unification consistency checks, where values may
  /// be other symbols of the system).
  [[nodiscard]] Solution solve(
      const std::map<std::string, ExprPtr>& initial = {});

  /// Search budget (backtracking steps across all restart attempts);
  /// generous default, never hit by the paper's benchmarks.
  void setMaxSteps(std::size_t n) { maxSteps_ = n; }

 private:
  struct Candidate {
    std::string symbol;
    ExprPtr expr;
  };

  bool searchNode(const std::map<std::string, ExprPtr>& partial,
                  std::vector<std::string>& order, Solution& out,
                  std::size_t parentId, const std::string& branchedSymbol,
                  SearchHeuristic heuristic);
  /// The node's candidate table; `open` is c.openSymbols().
  [[nodiscard]] std::vector<Candidate> candidates(
      const System& c, const std::set<std::string>& open) const;

  System system_;
  std::set<std::string> rangeFns_;
  SolverConfig config_;
  std::size_t maxSteps_ = 200000;
  std::size_t steps_ = 0;
  std::size_t stepCap_ = 0;     ///< current attempt's cumulative step cap
  bool budgetHit_ = false;      ///< current attempt stopped on its cap
  std::size_t nodeCounter_ = 0;
  ConflictInfo conflict_;
};

}  // namespace dpart::constraint
