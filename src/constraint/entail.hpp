#pragma once

#include <set>
#include <string>

#include "constraint/system.hpp"

namespace dpart::constraint {

/// Deductive engine over the DPL lemmas of the paper's Figure 8 (L1-L14)
/// plus direct set-theoretic consequences of the operator definitions.
///
/// The engine proves PART / DISJ / COMP predicates and subset constraints on
/// *ground* expressions (symbols are either fixed external partitions or
/// already substituted away), given a set of hypothesis predicates and
/// subsets — the other conjuncts of the system plus user-asserted external
/// invariants.
///
/// Range-valued functions (the generalized IMAGE/PREIMAGE of Section 4) are
/// excluded from lemmas L7, L12 and L14, which only hold for point-valued
/// functions.
class Entailment {
 public:
  /// `rangeFns` lists the function ids that are range-valued. Both are
  /// referenced, not copied, so they must outlive the engine.
  Entailment(const System& hypotheses, const std::set<std::string>& rangeFns);
  Entailment(const System&, std::set<std::string>&&) = delete;

  [[nodiscard]] bool provePart(const ExprPtr& e, const std::string& region);
  [[nodiscard]] bool proveDisj(const ExprPtr& e);
  [[nodiscard]] bool proveComp(const ExprPtr& e, const std::string& region);
  [[nodiscard]] bool proveSubset(const ExprPtr& lhs, const ExprPtr& rhs);

  /// Proves a whole predicate / subset conjunct.
  [[nodiscard]] bool prove(const Pred& pred);
  [[nodiscard]] bool prove(const Subset& subset);

  /// Region a ground expression partitions, where derivable ("" otherwise).
  [[nodiscard]] std::string regionOf(const ExprPtr& e) const;

  /// Excludes one conjunct of the hypothesis system, by identity, from the
  /// hypothesis set — Algorithm 2's leaf check proves each conjunct from the
  /// *others*.
  void excludeConjunct(const Pred& p) { excluded_ = &p; }
  void excludeConjunct(const Subset& s) { excluded_ = &s; }

 private:
  [[nodiscard]] bool pointFn(const std::string& fnId) const {
    return !rangeFns_.contains(fnId);
  }
  bool proveDisjFuel(const ExprPtr& e, int fuel);
  bool proveCompFuel(const ExprPtr& e, const std::string& region, int fuel);
  bool proveSubsetFuel(const ExprPtr& lhs, const ExprPtr& rhs, int fuel);

  // Assumed (user-asserted) conjuncts are always usable as hypotheses;
  // only the proof obligation itself is excluded. Excluding it by identity
  // excludes exactly the required conjuncts that print like it: the leaf
  // check runs on System::substituted output, which leaves no two required
  // DISJ, COMP or subset conjuncts with one printed form, and PART proofs
  // consult no hypothesis.
  [[nodiscard]] bool usable(const Pred& p) const {
    return p.assumed || &p != excluded_;
  }
  [[nodiscard]] bool usable(const Subset& s) const {
    return s.assumed || &s != excluded_;
  }

  const System& hyp_;
  const std::set<std::string>& rangeFns_;
  const void* excluded_ = nullptr;
};

/// Checks Algorithm 2's leaf condition: every non-assumed ground conjunct of
/// `system` is entailed by the remaining conjuncts and the DPL lemmas.
/// Returns the first unprovable conjunct's description, or "" when
/// consistent. `system` must be System::substituted output: the conjunct
/// under proof is excluded by identity, so a second required copy of it
/// would count as a remaining conjunct and prove it.
std::string checkResolved(const System& system,
                          const std::set<std::string>& rangeFns);

}  // namespace dpart::constraint
