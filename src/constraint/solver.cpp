#include "constraint/solver.hpp"

#include <algorithm>
#include <tuple>
#include <unordered_set>

#include "constraint/entail.hpp"
#include "constraint/proof.hpp"

namespace dpart::constraint {

using dpl::ExprKind;
using dpl::ExprPtr;

namespace {

/// A candidate equality `symbol = expr` at one search node. Two are the
/// same when the symbols match and the expressions are structurally equal;
/// the search branches on each such equality once per node.
struct Equality {
  const std::string* symbol;
  const dpl::Expr* expr;

  bool operator==(const Equality& o) const {
    return *symbol == *o.symbol && expr->equals(*o.expr);
  }
};

struct EqualityHash {
  std::size_t operator()(const Equality& e) const {
    return std::hash<std::string>{}(*e.symbol) * 31 + e.expr->hash();
  }
};

using EqualitySet = std::unordered_set<Equality, EqualityHash>;

}  // namespace

dpl::Program Solution::program() const {
  dpl::Program prog;
  for (const std::string& sym : order) {
    prog.append(sym, assignments.at(sym));
  }
  return prog.withCse();
}

Solver::Solver(System system, std::set<std::string> rangeFns)
    : system_(std::move(system)), rangeFns_(std::move(rangeFns)) {}

Solver::Solver(System system, std::set<std::string> rangeFns,
               SolverConfig config)
    : system_(std::move(system)),
      rangeFns_(std::move(rangeFns)),
      config_(std::move(config)) {}

namespace {
SearchHeuristic flip(SearchHeuristic h) {
  return h == SearchHeuristic::PaperOrder ? SearchHeuristic::SmallestDomain
                                          : SearchHeuristic::PaperOrder;
}
}  // namespace

Solution Solver::solve(const std::map<std::string, ExprPtr>& initial) {
  steps_ = 0;
  conflict_ = ConflictInfo{};
  nodeCounter_ = 0;
  ProofLog* proof = config_.proof;
  if (proof != nullptr) proof->beginSearch();

  Solution out;
  SearchHeuristic heuristic = config_.search.heuristic;
  std::size_t budget = config_.search.restartBudget == 0
                           ? maxSteps_
                           : config_.search.restartBudget;
  std::size_t attempt = 0;
  while (true) {
    budgetHit_ = false;
    stepCap_ = std::min(steps_ + budget, maxSteps_);
    out.failure.clear();
    std::vector<std::string> order;
    if (searchNode(initial, order, out, /*parentId=*/0, /*branchedSymbol=*/"",
                   heuristic)) {
      out.conflict = ConflictInfo{};
      if (proof != nullptr) proof->solution(out.order, out.assignments);
      return out;
    }
    if (!budgetHit_) {
      // Genuine exhaustion: the system is unsatisfiable under the current
      // vocabulary (or unprovable by the lemma engine).
      out.ok = false;
      out.conflict = conflict_;
      if (conflict_.valid()) {
        out.failure = "infeasible vocabulary: " + conflict_.toString();
      } else if (out.failure.empty()) {
        out.failure = "no resolution found";
      }
      if (proof != nullptr) {
        proof->infeasible(conflict_.valid() ? conflict_.toString()
                                            : out.failure);
      }
      return out;
    }
    if (steps_ >= maxSteps_) {
      out.ok = false;
      out.failure = "search budget exhausted";
      out.budgetExhausted = true;
      out.conflict = conflict_;
      return out;
    }
    // Restart with the alternate heuristic and a grown budget; the step
    // count carries over so the total stays bounded by maxSteps_.
    ++attempt;
    ++out.stats.restarts;
    heuristic = attempt == 1 ? flip(config_.search.heuristic)
                             : config_.search.heuristic;
    budget = static_cast<std::size_t>(
        static_cast<double>(budget) *
        std::max(1.0, config_.search.restartGrowth));
    if (proof != nullptr) {
      proof->restart(attempt, constraint::toString(heuristic), budget);
    }
  }
}

bool Solver::searchNode(const std::map<std::string, ExprPtr>& partial,
                        std::vector<std::string>& order, Solution& out,
                        std::size_t parentId,
                        const std::string& branchedSymbol,
                        SearchHeuristic heuristic) {
  ProofLog* proof = config_.proof;
  if (++steps_ > stepCap_) {
    budgetHit_ = true;
    if (proof != nullptr) proof->budget(parentId);
    return false;
  }
  const std::size_t id = nodeCounter_++;
  if (proof != nullptr) proof->node(id, parentId, branchedSymbol);

  const System c = system_.substituted(partial);
  const std::set<std::string> open = c.openSymbols();
  if (open.empty()) {
    const std::string bad = checkResolved(c, rangeFns_);
    if (!bad.empty()) {
      if (out.failure.empty()) out.failure = "unprovable conjunct: " + bad;
      if (proof != nullptr) proof->leafBad(id, bad);
      return false;
    }
    if (proof != nullptr) proof->leafOk(id);
    out.ok = true;
    out.assignments = partial;
    out.order = order;
    out.resolved = c;
    return true;
  }

  // The paper's candidate generation seeds this node's domain store; the
  // candidates keep their Algorithm 2 order.
  DomainStore dom;
  for (Candidate& cand : candidates(c, open)) {
    dom.add(std::move(cand.symbol), std::move(cand.expr));
  }
  if (proof != nullptr) {
    for (std::size_t i = 0; i < dom.size(); ++i) {
      proof->candidate(id, i, dom.entry(i).symbol, dom.entry(i).expr);
    }
  }

  // One ordered pass of the vocabulary rules prunes the node's store.
  PropagationContext ctx;
  ctx.dom = &dom;
  ctx.partial = &partial;
  ctx.system = &c;
  ctx.bounds.regionSizes = &config_.regionSizes;
  ctx.bounds.pieces = config_.pieces;
  ctx.bounds.rangeFns = &rangeFns_;
  ctx.bounds.regionOf = [&c](const std::string& sym) {
    return c.hasSymbol(sym) ? c.regionOf(sym) : std::string();
  };
  ctx.proof = proof;
  ctx.nodeId = id;
  ctx.stats = &out.stats;
  propagate(config_.vocab, ctx);
  if (ctx.conflict.valid() && !conflict_.valid()) conflict_ = ctx.conflict;
  if (ctx.refuted) {
    // A symbol was refuted for every possible expression: no extension of
    // this node can assign it, so the node fails outright.
    return false;
  }

  EqualitySet tried;  // avoid retrying identical equalities
  for (std::size_t idx : dom.order(heuristic)) {
    if (!dom.live(idx)) continue;
    const DomainStore::Entry& entry = dom.entry(idx);
    if (!tried.insert(Equality{&entry.symbol, entry.expr.get()}).second) {
      if (proof != nullptr) proof->dedup(id, idx);
      continue;
    }
    std::map<std::string, ExprPtr> next = partial;
    next[entry.symbol] = entry.expr;
    // Ground the new equality against earlier assignments so every value
    // stays fully substituted.
    for (auto& [sym, expr] : next) {
      expr = dpl::substitute(expr, next);
    }
    order.push_back(entry.symbol);
    if (proof != nullptr) proof->branch(id, idx);
    ++out.stats.branches;
    if (searchNode(next, order, out, id, entry.symbol, heuristic)) {
      return true;
    }
    ++out.stats.backtracks;
    if (proof != nullptr) proof->backtrack(id);
    order.pop_back();
    if (budgetHit_) return false;
  }
  if (proof != nullptr) proof->exhausted(id);
  if (out.failure.empty()) {
    out.failure = "no candidate resolves symbol set";
  }
  return false;
}

// ---- candidate generation ------------------------------------------------

namespace {

/// Rule 3's external candidates at one search node (Section 3.3): closed
/// expressions the user asserted predicates about, plus bare fixed symbols
/// of the region, kept when they provably partition the region with the
/// needed predicates. Each (region, DISJ, COMP) triple is computed once.
class ExternalCandidates {
 public:
  ExternalCandidates(const System& c, const std::set<std::string>& open,
                     const std::set<std::string>& rangeFns)
      : ent_(c, rangeFns) {
    for (const Pred& p : c.preds()) {
      if (p.assumed) consider(asserted_, p.expr, open);
    }
    for (const std::string& sym : c.symbols()) {
      if (c.isFixed(sym)) {
        fixed_.emplace_back(dpl::symbol(sym), c.regionOf(sym));
      }
    }
  }

  const std::vector<ExprPtr>& of(const std::string& region, bool needDisj,
                                 bool needComp) {
    auto [it, fresh] = memo_.try_emplace({region, needDisj, needComp});
    if (!fresh) return it->second;
    std::vector<ExprPtr> raw = asserted_;
    for (const auto& [sym, symRegion] : fixed_) {
      if (symRegion == region) consider(raw, sym, {});
    }
    for (const ExprPtr& e : raw) {
      if (!ent_.provePart(e, region)) continue;
      if (needDisj && !ent_.proveDisj(e)) continue;
      if (needComp && !ent_.proveComp(e, region)) continue;
      it->second.push_back(e);
    }
    return it->second;
  }

 private:
  /// Appends `e` when it is closed and structurally new.
  static void consider(std::vector<ExprPtr>& raw, const ExprPtr& e,
                       const std::set<std::string>& open) {
    if (!e->closedUnder(open)) return;
    if (std::any_of(raw.begin(), raw.end(), [&](const ExprPtr& seen) {
          return dpl::exprEq(seen, e);
        })) {
      return;
    }
    raw.push_back(e);
  }

  Entailment ent_;
  std::vector<ExprPtr> asserted_;
  std::vector<std::pair<ExprPtr, std::string>> fixed_;
  std::map<std::tuple<std::string, bool, bool>, std::vector<ExprPtr>> memo_;
};

}  // namespace

std::vector<Solver::Candidate> Solver::candidates(
    const System& c, const std::set<std::string>& open) const {
  std::vector<Candidate> cands;
  std::map<std::string, ExprPtr> equal;  // one equal(R) per region
  auto equalOf = [&equal](const std::string& region) {
    auto [it, fresh] = equal.try_emplace(region);
    if (fresh) it->second = dpl::equalOf(region);
    return it->second;
  };

  // Rule 1 (Algorithm 2 lines 11-15): image(P, f, R) <= E with closed E and
  // open P: candidate P = preimage(R', f, E). Point-valued fns only — L14
  // does not hold for the generalized IMAGE.
  for (const Subset& sc : c.subsets()) {
    if (sc.lhs->kind != ExprKind::Image) continue;
    if (sc.lhs->arg->kind != ExprKind::Symbol) continue;
    const std::string& p = sc.lhs->arg->name;
    if (!open.contains(p)) continue;
    if (rangeFns_.contains(sc.lhs->fn)) continue;
    if (!sc.rhs->closedUnder(open)) continue;
    cands.push_back(Candidate{
        p, dpl::preimage(c.regionOf(p), sc.lhs->fn, sc.rhs)});
  }

  // Rule 2 (lines 16-18): P whose lower bounds are all closed: candidate
  // P = union of the bounds (L13), in subset order. One pass over the
  // subsets collects every open symbol's bounds; the map keeps the symbols
  // in name order.
  struct LowerBounds {
    std::vector<ExprPtr> exprs;
    bool allClosed = true;
  };
  std::map<std::string, LowerBounds> lower;
  for (const Subset& sc : c.subsets()) {
    if (sc.rhs->kind != ExprKind::Symbol || !open.contains(sc.rhs->name)) {
      continue;
    }
    LowerBounds& b = lower[sc.rhs->name];
    if (!b.allClosed) continue;
    if (sc.lhs->closedUnder(open)) {
      b.exprs.push_back(sc.lhs);
    } else {
      b.allClosed = false;
    }
  }
  for (const auto& [p, b] : lower) {
    if (!b.allClosed) continue;
    cands.push_back(Candidate{p, dpl::unionOf(b.exprs)});
  }

  // Rule 3 (lines 19-27): DISJ symbols then COMP symbols, deepest first.
  // Externally provided partitions are preferred over fresh equal(R)
  // (partition reuse, Section 3.3). The requirement sets, the depths and
  // the external candidates of each (region, DISJ, COMP) triple are
  // computed once per node.
  std::set<std::string> disj;
  std::set<std::string> comp;
  for (const Pred& p : c.preds()) {
    if (p.expr->kind != ExprKind::Symbol) continue;
    if (p.kind == Pred::Kind::Disj) disj.insert(p.expr->name);
    if (p.kind == Pred::Kind::Comp) comp.insert(p.expr->name);
  }
  std::vector<std::string> required;
  for (const std::string& p : open) {
    if (disj.contains(p) || comp.contains(p)) required.push_back(p);
  }
  // One required symbol needs no depth to be ordered.
  const std::vector<int> depths = required.size() > 1
                                      ? c.depths(required)
                                      : std::vector<int>(required.size(), 0);
  std::vector<std::pair<int, std::string>> byDepth;
  for (std::size_t i = 0; i < required.size(); ++i) {
    byDepth.emplace_back(depths[i], required[i]);
  }
  std::sort(byDepth.begin(), byDepth.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  ExternalCandidates externals(c, open, rangeFns_);
  auto addRule3 = [&](bool wantDisj) {
    for (const auto& [depth, p] : byDepth) {
      const bool needDisj = disj.contains(p);
      const bool needComp = comp.contains(p);
      if (wantDisj ? !needDisj : (!needComp || needDisj)) continue;
      const std::string& region = c.regionOf(p);
      for (const ExprPtr& e : externals.of(region, needDisj, needComp)) {
        cands.push_back(Candidate{p, e});
      }
      cands.push_back(Candidate{p, equalOf(region)});
    }
  };
  addRule3(/*wantDisj=*/true);
  addRule3(/*wantDisj=*/false);

  // Fallback: any remaining symbol (no bounds, no predicates) gets equal(R);
  // keeps the solver total on degenerate inputs.
  for (const std::string& p : open) {
    cands.push_back(Candidate{p, equalOf(c.regionOf(p))});
  }
  return cands;
}

}  // namespace dpart::constraint
