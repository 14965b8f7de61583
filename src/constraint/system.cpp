#include "constraint/system.hpp"

#include <algorithm>
#include <functional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "support/check.hpp"

namespace dpart::constraint {

namespace {

// Conjunct identity for substituted()'s deduplication.
std::size_t identityHash(const Pred& p) {
  std::size_t h = p.expr->hash() * 31 + static_cast<std::size_t>(p.kind);
  if (p.kind != Pred::Kind::Disj) {
    h = h * 31 + std::hash<std::string>{}(p.region);
  }
  return h * 2 + (p.assumed ? 1 : 0);
}

bool sameConjunct(const Pred& a, const Pred& b) {
  return a.kind == b.kind && a.assumed == b.assumed &&
         (a.kind == Pred::Kind::Disj || a.region == b.region) &&
         dpl::exprEq(a.expr, b.expr);
}

std::size_t identityHash(const Subset& s) {
  return (s.lhs->hash() * 31 + s.rhs->hash()) * 2 + (s.assumed ? 1 : 0);
}

bool sameConjunct(const Subset& a, const Subset& b) {
  return a.assumed == b.assumed && dpl::exprEq(a.lhs, b.lhs) &&
         dpl::exprEq(a.rhs, b.rhs);
}

/// Appends conjuncts to `out`, skipping any identical to one it appended
/// before, so the first occurrence keeps its position. The set holds
/// positions in `out` and hashes and compares the conjuncts at them.
template <typename Conjunct>
class FirstOccurrences {
 public:
  FirstOccurrences(std::vector<Conjunct>& out, std::size_t maxAppends)
      : out_(out), seen_(maxAppends, Hash{&out}, Same{&out}) {}

  void append(Conjunct c) {
    out_.push_back(std::move(c));
    if (!seen_.insert(out_.size() - 1).second) out_.pop_back();
  }

 private:
  struct Hash {
    const std::vector<Conjunct>* out;
    std::size_t operator()(std::size_t pos) const {
      return identityHash((*out)[pos]);
    }
  };
  struct Same {
    const std::vector<Conjunct>* out;
    bool operator()(std::size_t a, std::size_t b) const {
      return sameConjunct((*out)[a], (*out)[b]);
    }
  };
  std::vector<Conjunct>& out_;
  std::unordered_set<std::size_t, Hash, Same> seen_;
};

}  // namespace

std::string Pred::toString() const {
  switch (kind) {
    case Kind::Part:
      return "PART(" + expr->toString() + ", " + region + ")";
    case Kind::Disj:
      return "DISJ(" + expr->toString() + ")";
    case Kind::Comp:
      return "COMP(" + expr->toString() + ", " + region + ")";
  }
  DPART_UNREACHABLE("bad Pred::Kind");
}

std::string Subset::toString() const {
  return lhs->toString() + " <= " + rhs->toString();
}

void System::declareSymbol(const std::string& name, const std::string& region,
                           bool fixed) {
  auto it = symbolRegion_.find(name);
  if (it != symbolRegion_.end()) {
    DPART_CHECK(it->second == region,
                "symbol '" + name + "' re-declared with different region");
    if (fixed) fixed_.insert(name);
    return;
  }
  symbolRegion_.emplace(name, region);
  if (fixed) fixed_.insert(name);
  preds_.push_back(Pred{Pred::Kind::Part, dpl::symbol(name), region});
}

const std::string& System::regionOf(const std::string& symbol) const {
  auto it = symbolRegion_.find(symbol);
  DPART_CHECK(it != symbolRegion_.end(),
              "undeclared partition symbol '" + symbol + "'");
  return it->second;
}

std::set<std::string> System::symbols() const {
  std::set<std::string> out;
  for (const auto& [name, _] : symbolRegion_) out.insert(name);
  return out;
}

std::set<std::string> System::openSymbols() const {
  std::set<std::string> out;
  for (const auto& [name, _] : symbolRegion_) {
    if (!fixed_.contains(name)) out.insert(name);
  }
  return out;
}

void System::addDisj(ExprPtr expr, bool assumed) {
  preds_.push_back(Pred{Pred::Kind::Disj, std::move(expr), "", assumed});
}

void System::addComp(ExprPtr expr, std::string region, bool assumed) {
  preds_.push_back(
      Pred{Pred::Kind::Comp, std::move(expr), std::move(region), assumed});
}

void System::addPart(ExprPtr expr, std::string region, bool assumed) {
  preds_.push_back(
      Pred{Pred::Kind::Part, std::move(expr), std::move(region), assumed});
}

void System::addSubset(ExprPtr lhs, ExprPtr rhs, bool assumed) {
  subsets_.push_back(Subset{std::move(lhs), std::move(rhs), assumed});
}

bool System::requiresDisj(const std::string& symbol) const {
  return std::any_of(preds_.begin(), preds_.end(), [&](const Pred& p) {
    return p.kind == Pred::Kind::Disj &&
           p.expr->kind == dpl::ExprKind::Symbol && p.expr->name == symbol;
  });
}

bool System::requiresComp(const std::string& symbol) const {
  return std::any_of(preds_.begin(), preds_.end(), [&](const Pred& p) {
    return p.kind == Pred::Kind::Comp &&
           p.expr->kind == dpl::ExprKind::Symbol && p.expr->name == symbol;
  });
}

void System::merge(const System& other, bool assumed) {
  for (const auto& [name, reg] : other.symbolRegion_) {
    declareSymbol(name, reg, other.fixed_.contains(name) || assumed);
  }
  for (Pred p : other.preds_) {
    // Symbol PART preds were re-added by declareSymbol; skip duplicates.
    if (p.kind == Pred::Kind::Part && p.expr->kind == dpl::ExprKind::Symbol) {
      continue;
    }
    p.assumed = p.assumed || assumed;
    preds_.push_back(std::move(p));
  }
  for (Subset sc : other.subsets_) {
    sc.assumed = sc.assumed || assumed;
    subsets_.push_back(std::move(sc));
  }
}

System System::substituted(const std::map<std::string, ExprPtr>& subst) const {
  System out;
  for (const auto& [name, reg] : symbolRegion_) {
    if (subst.contains(name)) continue;
    out.declareSymbol(name, reg, fixed_.contains(name));
  }
  FirstOccurrences<Pred> preds(out.preds_, preds_.size());
  for (const Pred& p : preds_) {
    if (p.kind == Pred::Kind::Part && p.expr->kind == dpl::ExprKind::Symbol &&
        !subst.contains(p.expr->name)) {
      continue;  // re-added by declareSymbol above
    }
    Pred q = p;
    q.expr = dpl::substitute(p.expr, subst);
    preds.append(std::move(q));
  }
  FirstOccurrences<Subset> subsets(out.subsets_, subsets_.size());
  for (const Subset& sc : subsets_) {
    Subset q = sc;
    q.lhs = dpl::substitute(sc.lhs, subst);
    q.rhs = dpl::substitute(sc.rhs, subst);
    if (dpl::exprEq(q.lhs, q.rhs)) continue;  // tautology
    subsets.append(std::move(q));
  }
  return out;
}

void System::renameSymbol(const std::string& from, const std::string& to) {
  DPART_CHECK(symbolRegion_.contains(to),
              "rename target '" + to + "' not declared");
  DPART_CHECK(regionOf(from) == regionOf(to),
              "cannot unify partitions of different regions");
  std::map<std::string, ExprPtr> subst{{from, dpl::symbol(to)}};
  const bool wasFixed = fixed_.contains(from);
  *this = substituted(subst);
  if (wasFixed) fixed_.insert(to);
}

std::vector<int> System::depths(const std::vector<std::string>& targets) const {
  // The inference algorithm never creates cycles among solver symbols, but
  // external (fixed) recursive constraints may (PENNANT Hint2). A self-loop
  // adds no link, and a chain that reaches a longer cycle is unbounded, so
  // every chain is capped at one more than the symbol count. One walk,
  // memoized per symbol, finds such a cycle when it meets a symbol still on
  // its stack. These are the values of a walk that re-explores every path
  // with that cap as fuel, one unit per link: its value never exceeds its
  // fuel, grows with it, and stops growing once it falls below it.
  //
  // into[s]: one bound per subset whose RHS is the symbol with id s: the
  // other symbols its LHS mentions. An LHS that mentions no symbol at all
  // is a chain of one.
  struct Bound {
    std::vector<int> from;
    bool ground = false;
  };
  std::vector<std::vector<Bound>> into;
  std::unordered_map<std::string, int> ids;
  auto idOf = [&](const std::string& name) {
    const auto [it, fresh] =
        ids.try_emplace(name, static_cast<int>(into.size()));
    if (fresh) into.emplace_back();
    return it->second;
  };
  for (const Subset& sc : subsets_) {
    if (sc.rhs->kind != dpl::ExprKind::Symbol) continue;
    std::set<std::string> lhsSyms;
    sc.lhs->collectSymbols(lhsSyms);
    Bound b;
    b.ground = lhsSyms.empty();
    for (const std::string& s : lhsSyms) {
      if (s != sc.rhs->name) b.from.push_back(idOf(s));
    }
    const int to = idOf(sc.rhs->name);
    into[static_cast<std::size_t>(to)].push_back(std::move(b));
  }
  std::vector<int> targetIds;
  targetIds.reserve(targets.size());
  for (const std::string& t : targets) targetIds.push_back(idOf(t));

  const int cap = static_cast<int>(symbolRegion_.size()) + 1;
  constexpr int kUnvisited = -1;
  constexpr int kOnStack = -2;
  std::vector<int> chain(into.size(), kUnvisited);
  const std::function<int(int)> go = [&](int sym) -> int {
    const auto at = static_cast<std::size_t>(sym);
    if (chain[at] == kOnStack) return cap;  // a cycle
    if (chain[at] != kUnvisited) return chain[at];
    chain[at] = kOnStack;
    int best = 0;
    for (const Bound& b : into[at]) {
      for (int s : b.from) best = std::max(best, std::min(cap, 1 + go(s)));
      if (b.ground) best = std::max(best, 1);
    }
    chain[at] = best;
    return best;
  };
  std::vector<int> out;
  out.reserve(targetIds.size());
  for (int t : targetIds) out.push_back(go(t));
  return out;
}

std::string System::toString() const {
  std::ostringstream os;
  for (const auto& [name, reg] : symbolRegion_) {
    os << (fixed_.contains(name) ? "fixed " : "") << name << " : partition of "
       << reg << '\n';
  }
  for (const Pred& p : preds_) {
    if (p.kind == Pred::Kind::Part && p.expr->kind == dpl::ExprKind::Symbol) {
      continue;  // implied by the declarations above
    }
    os << p.toString() << '\n';
  }
  for (const Subset& s : subsets_) os << s.toString() << '\n';
  return os.str();
}

}  // namespace dpart::constraint
