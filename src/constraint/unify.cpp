#include "constraint/unify.hpp"

#include <algorithm>
#include <functional>
#include <optional>

#include "constraint/solver.hpp"
#include "support/check.hpp"

namespace dpart::constraint {

using dpl::ExprKind;

std::vector<GraphEdge> constraintGraph(const System& system) {
  std::vector<GraphEdge> edges;
  for (const Subset& sc : system.subsets()) {
    if (sc.rhs->kind != ExprKind::Symbol) continue;
    if (sc.lhs->kind == ExprKind::Symbol) {
      edges.push_back(GraphEdge{sc.lhs->name, sc.rhs->name, ""});
    } else if (sc.lhs->kind == ExprKind::Image &&
               sc.lhs->arg->kind == ExprKind::Symbol) {
      edges.push_back(GraphEdge{sc.lhs->arg->name, sc.rhs->name, sc.lhs->fn});
    }
  }
  return edges;
}

std::string followRenames(const std::map<std::string, std::string>& renames,
                          std::string symbol) {
  auto it = renames.find(symbol);
  while (it != renames.end()) {
    symbol = it->second;
    it = renames.find(symbol);
  }
  return symbol;
}

namespace {

using dpl::Expr;

constexpr std::size_t kTrialSteps = 20000;

// A trial solve of Algorithm 3: `system` under the equalities `initial`,
// within kTrialSteps search steps.
Solution trial(const System& system,
               const std::map<std::string, dpl::ExprPtr>& initial,
               const std::set<std::string>& rangeFns) {
  Solver solver(system, rangeFns);
  solver.setMaxSteps(kTrialSteps);
  return solver.solve(initial);
}

bool isOpen(const System& s, const std::string& symbol) {
  return s.hasSymbol(symbol) && !s.isFixed(symbol);
}

// (loser, survivor): the loser is renamed into the survivor.
using Rename = std::pair<std::string, std::string>;

// collapsePlainEdges' search on one system: appends each rename it accepts
// to `accepted`, in order, and counts its trial solves in `trials`. Returns
// false when a trial stopped on its step budget. Otherwise every trial
// decided its system, and a decision does not depend on symbol names.
bool collapse(System& system, std::vector<Rename>& accepted,
              std::size_t& trials, const std::set<std::string>& rangeFns) {
  bool decided = true;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const GraphEdge& e : constraintGraph(system)) {
      if (!e.label.empty()) continue;
      if (e.from == e.to) continue;
      if (system.isFixed(e.to)) continue;  // never eliminate a user partition
      if (!system.hasSymbol(e.from) || !system.hasSymbol(e.to)) continue;
      if (system.regionOf(e.from) != system.regionOf(e.to)) continue;
      System candidate = system;
      candidate.renameSymbol(e.to, e.from);
      ++trials;
      const Solution sol = trial(candidate, {}, rangeFns);
      if (!sol) {
        decided = decided && !sol.budgetExhausted;
        continue;
      }
      system = std::move(candidate);
      accepted.emplace_back(e.to, e.from);
      changed = true;
      break;  // graph changed; restart scan
    }
  }
  return decided;
}

// ---- loop shapes -----------------------------------------------------------
//
// Two systems have one shape when a bijection of their open symbols that
// keeps each symbol's region turns one into the other: the same subsets and
// predicates in the same order, with fixed and undeclared symbols, regions
// and fns named alike. The PART(P, R) that declaring P implies is compared
// through the declarations, not in order: System::substituted re-declares
// symbols in name order, so after a rename P10 comes before P9.

bool implied(const System& s, const Pred& p) {
  return p.kind == Pred::Kind::Part && !p.assumed &&
         p.expr->kind == ExprKind::Symbol && s.hasSymbol(p.expr->name) &&
         s.regionOf(p.expr->name) == p.region;
}

std::size_t mix(std::size_t h, std::size_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

std::size_t hashOf(const std::string& s) {
  return std::hash<std::string>{}(s);
}

// Hashes `e` with all symbols alike: systems of one shape hash equally, and
// ShapeMatch tells their symbols apart.
std::size_t shapeHash(const Expr& e) {
  const auto h = static_cast<std::size_t>(e.kind);
  switch (e.kind) {
    case ExprKind::Symbol:
      return h;
    case ExprKind::Union:
    case ExprKind::Intersect:
    case ExprKind::Subtract:
      return mix(mix(h, shapeHash(*e.lhs)), shapeHash(*e.rhs));
    case ExprKind::Image:
    case ExprKind::Preimage:
      return mix(mix(mix(h, hashOf(e.fn)), hashOf(e.region)),
                 shapeHash(*e.arg));
    case ExprKind::Equal:
      return mix(h, hashOf(e.region));
  }
  DPART_UNREACHABLE("bad ExprKind");
}

std::size_t shapeHash(const System& s) {
  std::size_t h = s.subsets().size();
  for (const Subset& sc : s.subsets()) {
    h = mix(mix(h, shapeHash(*sc.lhs)),
            shapeHash(*sc.rhs) * 2 + (sc.assumed ? 1 : 0));
  }
  for (const Pred& p : s.preds()) {
    if (p.kind == Pred::Kind::Part && p.expr->kind == ExprKind::Symbol) {
      continue;  // implied or not, ShapeMatch compares them
    }
    h = mix(mix(mix(h, static_cast<std::size_t>(p.kind)), hashOf(p.region)),
            shapeHash(*p.expr) * 2 + (p.assumed ? 1 : 0));
  }
  return h;
}

// Compares two systems structurally and, when they have one shape, yields
// the bijection from the first one's open symbols to the second one's. It
// is read off symbol positions in the subset list, then in the other
// predicates, in their order.
class ShapeMatch {
 public:
  ShapeMatch(const System& a, const System& b) : a_(a), b_(b) {}

  std::optional<std::map<std::string, std::string>> run() {
    const std::vector<Subset>& sa = a_.subsets();
    const std::vector<Subset>& sb = b_.subsets();
    if (sa.size() != sb.size()) return std::nullopt;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      if (sa[i].assumed != sb[i].assumed || !expr(*sa[i].lhs, *sb[i].lhs) ||
          !expr(*sa[i].rhs, *sb[i].rhs)) {
        return std::nullopt;
      }
    }
    const std::vector<Pred>& pb = b_.preds();
    std::size_t j = 0;
    auto skipImplied = [&] {
      while (j < pb.size() && implied(b_, pb[j])) ++j;
    };
    for (const Pred& x : a_.preds()) {
      if (implied(a_, x)) continue;
      skipImplied();
      if (j == pb.size()) return std::nullopt;
      const Pred& y = pb[j++];
      if (x.kind != y.kind || x.region != y.region ||
          x.assumed != y.assumed || !expr(*x.expr, *y.expr)) {
        return std::nullopt;
      }
    }
    skipImplied();
    if (j != pb.size() || !declarations()) return std::nullopt;
    return std::move(to_);
  }

 private:
  bool symbol(const std::string& x, const std::string& y) {
    const bool open = isOpen(a_, x);
    if (open != isOpen(b_, y)) return false;
    if (!open) return x == y;
    if (a_.regionOf(x) != b_.regionOf(y)) return false;
    const auto [it, fresh] = to_.try_emplace(x, y);
    if (!fresh) return it->second == y;
    return taken_.insert(y).second;
  }

  bool expr(const Expr& x, const Expr& y) {
    if (x.kind != y.kind) return false;
    switch (x.kind) {
      case ExprKind::Symbol:
        return symbol(x.name, y.name);
      case ExprKind::Union:
      case ExprKind::Intersect:
      case ExprKind::Subtract:
        return expr(*x.lhs, *y.lhs) && expr(*x.rhs, *y.rhs);
      case ExprKind::Image:
      case ExprKind::Preimage:
        return x.fn == y.fn && x.region == y.region && expr(*x.arg, *y.arg);
      case ExprKind::Equal:
        return x.region == y.region;
    }
    DPART_UNREACHABLE("bad ExprKind");
  }

  // The declarations, as a map: the same fixed symbols over the same
  // regions, and every open symbol paired. An open symbol that no compared
  // conjunct names is left unpaired, so its system stands alone.
  bool declarations() const {
    const std::set<std::string> as = a_.symbols();
    if (as.size() != b_.symbols().size()) return false;
    return std::all_of(as.begin(), as.end(), [&](const std::string& x) {
      return isOpen(a_, x) ? to_.contains(x)
                           : b_.isFixed(x) && b_.regionOf(x) == a_.regionOf(x);
    });
  }

  const System& a_;
  const System& b_;
  std::map<std::string, std::string> to_;  ///< a's open symbol -> b's
  std::set<std::string> taken_;            ///< b's symbols in to_
};

// Collapses every system's plain edges as collapsePlainEdges would, with
// trial solves only for the first system of each loop shape. The other
// systems of the shape replay its accepted renames through the bijection,
// unsolved: collapse's choices depend only on subset order and on each
// trial's yes/no, and a decided yes/no does not depend on symbol names. A
// shape whose first system ran a trial out of budget collapses each member
// on its own.
void collapseByShape(std::vector<System>& systems,
                     std::map<std::string, std::string>& renames,
                     std::size_t& trials,
                     const std::set<std::string>& rangeFns) {
  const std::size_t n = systems.size();
  std::vector<std::size_t> hash(n);
  std::vector<std::size_t> first(n);  // first system of i's shape
  std::vector<std::map<std::string, std::string>> bijection(n);
  for (std::size_t i = 0; i < n; ++i) {
    hash[i] = shapeHash(systems[i]);
    first[i] = i;
    for (std::size_t f = 0; f < i; ++f) {
      if (first[f] != f || hash[f] != hash[i]) continue;
      if (auto match = ShapeMatch(systems[f], systems[i]).run()) {
        first[i] = f;
        bijection[i] = std::move(*match);
        break;
      }
    }
  }
  std::vector<std::vector<Rename>> accepted(n);
  std::vector<bool> decided(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t f = first[i];
    if (f == i || !decided[f]) {
      decided[i] = collapse(systems[i], accepted[i], trials, rangeFns);
      for (const auto& [loser, survivor] : accepted[i]) {
        renames[loser] = survivor;
      }
      continue;
    }
    auto mapped = [&phi = bijection[i]](const std::string& s) {
      const auto it = phi.find(s);
      return it == phi.end() ? s : it->second;
    };
    for (const auto& [loser, survivor] : accepted[f]) {
      const std::string from = mapped(loser);
      const std::string to = mapped(survivor);
      systems[i].renameSymbol(from, to);
      renames[from] = to;
    }
  }
}

// The initial equalities of a candidate's pinned trial: its renames, and the
// last accepted trial's value for every open symbol of `merged` that the
// candidate does not rename, so that only the other symbols are searched.
// Empty when there is nothing to pin.
std::map<std::string, dpl::ExprPtr> pinned(
    const System& merged, const std::map<std::string, dpl::ExprPtr>& renames,
    const std::map<std::string, dpl::ExprPtr>& last) {
  std::map<std::string, dpl::ExprPtr> out = renames;
  for (const auto& [symbol, value] : last) {
    if (isOpen(merged, symbol) && !renames.contains(symbol)) {
      out.emplace(symbol, value);
    }
  }
  if (out.size() == renames.size()) return {};
  // Ground each loser's symbol(survivor) through the survivor's pinned
  // value, so that no leaf sees a symbol the substitution removed.
  for (auto& [symbol, value] : out) value = dpl::substitute(value, out);
  return out;
}

// A candidate unification: pairs (loser, survivor) induced by one common
// subgraph, plus its edge count (the size metric for greedy ordering).
struct CandidateUnification {
  std::vector<std::pair<std::string, std::string>> pairs;
  std::size_t edgeCount = 0;
};

// Builds candidate unifications between the constraint graphs A and B, whose
// symbols are looked up in `combined`. Nodes pair when their regions match
// and at most one is fixed; identical symbols act as anchors (they connect
// product edges but are not themselves unified). Connected components of
// the product graph are the candidate common subgraphs.
std::vector<CandidateUnification> commonSubgraphs(
    const System& combined, const std::vector<GraphEdge>& edgesA,
    const std::vector<GraphEdge>& edgesB) {
  struct ProductNode {
    std::string a;
    std::string b;
  };
  std::vector<ProductNode> nodes;
  std::map<std::pair<std::string, std::string>, std::size_t> nodeIndex;
  auto addNode = [&](const std::string& a, const std::string& b) {
    auto key = std::make_pair(a, b);
    auto it = nodeIndex.find(key);
    if (it != nodeIndex.end()) return it->second;
    if (!combined.hasSymbol(a) || !combined.hasSymbol(b)) {
      return static_cast<std::size_t>(-1);
    }
    if (a != b) {
      if (combined.regionOf(a) != combined.regionOf(b)) {
        return static_cast<std::size_t>(-1);
      }
      if (combined.isFixed(a) && combined.isFixed(b)) {
        return static_cast<std::size_t>(-1);
      }
    }
    const std::size_t idx = nodes.size();
    nodes.push_back(ProductNode{a, b});
    nodeIndex.emplace(key, idx);
    return idx;
  };

  // Union-find over product nodes, connected by matching-label edges.
  std::vector<std::size_t> parent;
  std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::vector<std::size_t> edgeCountOf;

  std::vector<std::pair<std::size_t, std::size_t>> productEdges;
  for (const GraphEdge& ea : edgesA) {
    for (const GraphEdge& eb : edgesB) {
      if (ea.label != eb.label) continue;
      const std::size_t u = addNode(ea.from, eb.from);
      const std::size_t v = addNode(ea.to, eb.to);
      if (u == static_cast<std::size_t>(-1) ||
          v == static_cast<std::size_t>(-1)) {
        continue;
      }
      productEdges.emplace_back(u, v);
    }
  }

  parent.resize(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) parent[i] = i;
  edgeCountOf.assign(nodes.size(), 0);
  for (const auto& [u, v] : productEdges) {
    const std::size_t ru = find(u);
    const std::size_t rv = find(v);
    if (ru != rv) parent[ru] = rv;
  }
  std::map<std::size_t, CandidateUnification> components;
  for (const auto& [u, v] : productEdges) {
    components[find(u)].edgeCount += 1;
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    auto it = components.find(find(i));
    if (it == components.end()) continue;  // isolated pair: no edge gain
    if (nodes[i].a == nodes[i].b) continue;  // anchor
    it->second.pairs.emplace_back(nodes[i].a, nodes[i].b);
  }

  std::vector<CandidateUnification> out;
  for (auto& [root, cand] : components) {
    if (cand.pairs.empty()) continue;
    // Enforce injectivity greedily: each symbol participates at most once.
    std::set<std::string> used;
    std::vector<std::pair<std::string, std::string>> filtered;
    for (auto& pr : cand.pairs) {
      if (used.contains(pr.first) || used.contains(pr.second)) continue;
      used.insert(pr.first);
      used.insert(pr.second);
      filtered.push_back(pr);
    }
    cand.pairs = std::move(filtered);
    if (!cand.pairs.empty()) out.push_back(std::move(cand));
  }
  // Ties keep component order, so the candidate order does not depend on
  // the standard library's sort.
  std::stable_sort(
      out.begin(), out.end(),
      [](const CandidateUnification& x, const CandidateUnification& y) {
        return x.edgeCount > y.edgeCount;
      });
  return out;
}

// Orients a pair (a from the accumulated system, b from the incoming one)
// into (loser, survivor): fixed symbols always survive; otherwise the
// accumulated system's symbol does (Algorithm 3 line 16 renames C' into C).
std::pair<std::string, std::string> orient(const System& sys,
                                           const std::string& a,
                                           const std::string& b) {
  if (sys.isFixed(b)) return {a, b};
  return {b, a};
}

}  // namespace

void collapsePlainEdges(System& system,
                        std::map<std::string, std::string>& renames,
                        const std::set<std::string>& rangeFns) {
  std::vector<Rename> accepted;
  std::size_t trials = 0;
  collapse(system, accepted, trials, rangeFns);
  for (const auto& [loser, survivor] : accepted) renames[loser] = survivor;
}

UnifyResult unifySystems(std::vector<System> systems,
                         const std::set<std::string>& rangeFns) {
  UnifyResult result;
  if (systems.empty()) return result;
  std::map<std::string, std::string> collapsed;
  collapseByShape(systems, collapsed, result.stats.collapseTrials, rangeFns);

  // Algorithm 3 line 3: biggest system first; ties keep their input (loop)
  // order.
  std::stable_sort(systems.begin(), systems.end(),
                   [](const System& a, const System& b) {
                     return a.preds().size() + a.subsets().size() >
                            b.preds().size() + b.subsets().size();
                   });

  System combined = std::move(systems.front());
  // The last accepted trial's solution. Each candidate is first solved with
  // it pinned, and searched in full only when that fails.
  std::map<std::string, dpl::ExprPtr> last;
  for (std::size_t i = 1; i < systems.size(); ++i) {
    System next = std::move(systems[i]);
    // Repeatedly unify along the biggest viable common subgraph between the
    // accumulated system and the incoming one (lines 7-16).
    bool progress = true;
    while (progress) {
      progress = false;
      System merged = combined;
      merged.merge(next);
      const auto edgesA = constraintGraph(combined);
      const auto edgesB = constraintGraph(next);
      const auto candidates = commonSubgraphs(merged, edgesA, edgesB);
      for (const CandidateUnification& cand : candidates) {
        std::map<std::string, dpl::ExprPtr> initial;
        std::vector<std::pair<std::string, std::string>> oriented;
        bool valid = true;
        for (const auto& [a, b] : cand.pairs) {
          auto [loser, survivor] = orient(merged, a, b);
          if (initial.contains(loser)) {
            valid = false;
            break;
          }
          initial[loser] = dpl::symbol(survivor);
          oriented.emplace_back(loser, survivor);
        }
        if (!valid || initial.empty()) continue;
        ++result.stats.crossTrials;
        Solution sol;
        if (const auto pins = pinned(merged, initial, last); !pins.empty()) {
          sol = trial(merged, pins, rangeFns);
          if (!sol) ++result.stats.pinnedMisses;
        }
        if (!sol) sol = trial(merged, initial, rangeFns);
        if (!sol) continue;
        last = std::move(sol.assignments);
        // Accept: apply renames to both systems.
        for (const auto& [loser, survivor] : oriented) {
          for (System* sys : {&combined, &next}) {
            if (!sys->hasSymbol(loser)) continue;
            if (!sys->hasSymbol(survivor)) {
              sys->declareSymbol(survivor, sys->regionOf(loser),
                                 merged.isFixed(survivor));
            }
            sys->renameSymbol(loser, survivor);
          }
          result.renames[loser] = survivor;
        }
        progress = true;
        break;
      }
    }
    combined.merge(next);
    combined = combined.substituted({});  // dedup shared conjuncts
  }
  result.system = std::move(combined);
  result.renames.merge(collapsed);  // unification's renames take precedence
  return result;
}

}  // namespace dpart::constraint
