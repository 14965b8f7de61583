#include "constraint/unify.hpp"

#include <algorithm>

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

bool solvable(const System& system,
              const std::map<std::string, dpl::ExprPtr>& initial,
              const std::set<std::string>& rangeFns) {
  Solver solver(system, rangeFns);
  solver.setMaxSteps(20000);
  return static_cast<bool>(solver.solve(initial));
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
  std::sort(out.begin(), out.end(),
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
  bool changed = true;
  while (changed) {
    changed = false;
    for (const GraphEdge& e : constraintGraph(system)) {
      if (!e.label.empty()) continue;
      if (e.from == e.to) continue;
      if (system.isFixed(e.to)) continue;  // never eliminate a user partition
      if (!system.hasSymbol(e.from) || !system.hasSymbol(e.to)) continue;
      if (system.regionOf(e.from) != system.regionOf(e.to)) continue;
      System trial = system;
      trial.renameSymbol(e.to, e.from);
      if (!solvable(trial, {}, rangeFns)) continue;
      system = std::move(trial);
      renames[e.to] = e.from;
      changed = true;
      break;  // graph changed; restart scan
    }
  }
}

UnifyResult unifySystems(std::vector<System> systems,
                         const std::set<std::string>& rangeFns) {
  UnifyResult result;
  if (systems.empty()) return result;

  // Algorithm 3 line 3: biggest system first.
  std::sort(systems.begin(), systems.end(),
            [](const System& a, const System& b) {
              return a.preds().size() + a.subsets().size() >
                     b.preds().size() + b.subsets().size();
            });

  System combined = std::move(systems.front());
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
        if (!solvable(merged, initial, rangeFns)) continue;
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
  return result;
}

}  // namespace dpart::constraint
