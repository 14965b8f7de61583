#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace dpart::dpl {

/// Expression in the partitioning-constraint language / DPL (paper Fig. 5):
///
///   E ::= P | E u E | E n E | E - E
///       | image(E, f, R) | preimage(R, f, E) | equal(R)
///
/// Expressions are immutable and shared (hash-consing is not needed at our
/// scale; structural equality is used instead). The generalized IMAGE /
/// PREIMAGE of Section 4 are the same nodes with a range-valued fn — the
/// printer renders them upper-case and the lemma engine consults the fn kind
/// where lemmas differ (L12/L14 do not hold for range-valued fns).
class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

enum class ExprKind {
  Symbol,     ///< partition symbol (solver variable or external partition)
  Union,      ///< E1 u E2, subregion-wise
  Intersect,  ///< E1 n E2, subregion-wise
  Subtract,   ///< E1 - E2, subregion-wise
  Image,      ///< image(arg, fn, region)
  Preimage,   ///< preimage(region, fn, arg)
  Equal,      ///< equal(region)
};

class Expr {
 public:
  ExprKind kind;
  std::string name;    ///< Symbol: symbol name
  ExprPtr lhs, rhs;    ///< Union/Intersect/Subtract
  ExprPtr arg;         ///< Image/Preimage
  std::string fn;      ///< Image/Preimage: function id
  std::string region;  ///< Image/Preimage/Equal: region name

  /// Structural equality.
  [[nodiscard]] bool equals(const Expr& other) const;

  /// Structural hash: equal expressions (equals()) hash equally.
  [[nodiscard]] std::size_t hash() const;

  /// All partition symbols occurring in this expression.
  void collectSymbols(std::set<std::string>& out) const;

  /// True when the expression mentions none of the given symbols (a tree
  /// walk; allocates nothing).
  [[nodiscard]] bool closedUnder(const std::set<std::string>& openSymbols) const;

  [[nodiscard]] std::string toString() const;

  /// Size of the expression tree (used to prefer smaller solutions and as a
  /// proxy for the runtime "derivation depth" cost in the simulator).
  [[nodiscard]] int depth() const;
};

ExprPtr symbol(std::string name);
ExprPtr unionOf(ExprPtr a, ExprPtr b);
/// n-ary union, right-folded; requires at least one operand.
ExprPtr unionOf(const std::vector<ExprPtr>& parts);
ExprPtr intersectOf(ExprPtr a, ExprPtr b);
ExprPtr subtractOf(ExprPtr a, ExprPtr b);
ExprPtr image(ExprPtr arg, std::string fn, std::string region);
ExprPtr preimage(std::string region, std::string fn, ExprPtr arg);
ExprPtr equalOf(std::string region);

bool exprEq(const ExprPtr& a, const ExprPtr& b);

/// Substitutes symbols by expressions; returns the (possibly shared) result.
ExprPtr substitute(const ExprPtr& e,
                   const std::map<std::string, ExprPtr>& subst);

}  // namespace dpart::dpl
