#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "dpl/expr.hpp"

namespace dpart::constraint {

using dpl::ExprPtr;

/// Predicate on a partition expression (paper Fig. 5):
///   PART(E, R)  — E is a partition of region R
///   DISJ(E)     — E is disjoint
///   COMP(E, R)  — E is complete over R
struct Pred {
  enum class Kind { Part, Disj, Comp };
  Kind kind{};
  ExprPtr expr;
  std::string region;  // Part/Comp
  /// Assumed conjuncts are user-asserted external invariants (Section 3.3):
  /// they serve as hypotheses and are not themselves proof obligations.
  bool assumed = false;

  [[nodiscard]] std::string toString() const;
};

/// Subset constraint E1 <= E2 (subregion-wise containment).
struct Subset {
  ExprPtr lhs;
  ExprPtr rhs;
  bool assumed = false;  ///< see Pred::assumed

  [[nodiscard]] std::string toString() const;
};

/// A system of partitioning constraints over named partition symbols.
///
/// Symbols are registered with the region they partition; *fixed* symbols
/// are externally provided partitions (Section 3.3) that the solver must not
/// synthesize expressions for.
class System {
 public:
  /// Registers a partition symbol. Registering also records PART(P, R).
  void declareSymbol(const std::string& name, const std::string& region,
                     bool fixed = false);

  [[nodiscard]] bool hasSymbol(const std::string& name) const {
    return symbolRegion_.contains(name);
  }
  [[nodiscard]] const std::string& regionOf(const std::string& symbol) const;
  [[nodiscard]] bool isFixed(const std::string& symbol) const {
    return fixed_.contains(symbol);
  }

  /// All declared symbols / only the non-fixed ones the solver must resolve.
  [[nodiscard]] std::set<std::string> symbols() const;
  [[nodiscard]] std::set<std::string> openSymbols() const;

  void addDisj(ExprPtr expr, bool assumed = false);
  void addComp(ExprPtr expr, std::string region, bool assumed = false);
  /// Adds a general PART predicate on a non-symbol expression (symbol PART
  /// predicates are implied by declareSymbol).
  void addPart(ExprPtr expr, std::string region, bool assumed = false);
  void addSubset(ExprPtr lhs, ExprPtr rhs, bool assumed = false);

  [[nodiscard]] const std::vector<Pred>& preds() const { return preds_; }
  [[nodiscard]] const std::vector<Subset>& subsets() const {
    return subsets_;
  }

  [[nodiscard]] bool requiresDisj(const std::string& symbol) const;
  [[nodiscard]] bool requiresComp(const std::string& symbol) const;

  /// Conjoins another system (used to combine per-loop constraints and
  /// external constraints). Shared symbols must agree on their region.
  /// With `assumed`, the other system's conjuncts become hypotheses (this is
  /// how user-provided external constraints enter).
  void merge(const System& other, bool assumed = false);

  /// Applies a symbol substitution to every conjunct, drops tautological
  /// subsets (E <= E), and deduplicates identical conjuncts: the first
  /// occurrence keeps its position. Identity is structural and covers what
  /// the printed form encodes: kind, expression(s), the region of a PART or
  /// COMP (DISJ has none) and the assumed flag.
  [[nodiscard]] System substituted(
      const std::map<std::string, ExprPtr>& subst) const;

  /// Renames a symbol everywhere (unification); `to` may be an existing
  /// symbol of the same region.
  void renameSymbol(const std::string& from, const std::string& to);

  /// depth(P) of each of `targets`, in order: depth(P) = k for the longest
  /// chain E1 <= ... <= Ek <= P through subset constraints whose RHS are
  /// symbols (Algorithm 2's resolution order), capped at one more than the
  /// symbol count where a cycle makes chains unbounded.
  [[nodiscard]] std::vector<int> depths(
      const std::vector<std::string>& targets) const;

  [[nodiscard]] std::string toString() const;

 private:
  std::vector<Pred> preds_;
  std::vector<Subset> subsets_;
  std::map<std::string, std::string> symbolRegion_;
  std::set<std::string> fixed_;
};

/// Generates fresh partition symbol names P1, P2, ... (optionally prefixed,
/// so constraints from different loops stay distinguishable).
class SymbolGen {
 public:
  explicit SymbolGen(std::string prefix = "P") : prefix_(std::move(prefix)) {}
  std::string fresh() { return prefix_ + std::to_string(++count_); }

 private:
  std::string prefix_;
  int count_ = 0;
};

}  // namespace dpart::constraint
