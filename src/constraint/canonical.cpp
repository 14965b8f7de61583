#include "constraint/canonical.hpp"

#include <algorithm>
#include <sstream>
#include <string_view>

#include "support/check.hpp"
#include "support/hash.hpp"

namespace dpart::constraint {

namespace {

// The identity function id (region::kIdentityFnId). Redefined here rather
// than included so the constraint layer keeps depending only on dpl.
const std::string kIdentityFn = "f_ID";

// --- 64-bit FNV-1a ----------------------------------------------------------

// One digit short of the standard offset basis (kFnv1aOffset). Cached keys
// and the SolveCache goldens are pinned to it, so it stays as it is.
constexpr std::uint64_t kCanonOffset = 1469598103934665603ULL;

std::uint64_t fnv64(std::string_view s) { return fnv1a64(s, kCanonOffset); }

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  // Feed each byte of v (low byte first) through FNV so mixing is
  // order-sensitive.
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((v >> (i * 8)) & 0xff);
  }
  return fnv1a64({bytes, sizeof bytes}, h);
}

// --- Graph nodes ------------------------------------------------------------

enum class NodeKind : std::uint8_t { Sym, Region, Fn, Loop };

struct NodeKey {
  NodeKind kind{};
  // Sym/Region/Fn: the name; Loop: the system's index rendered as text (loop
  // tags have no request-visible name — they exist only to keep conjuncts of
  // different loops from mingling during refinement).
  std::string name;

  bool operator<(const NodeKey& o) const {
    if (kind != o.kind) return kind < o.kind;
    return name < o.name;
  }
  bool operator==(const NodeKey& o) const {
    return kind == o.kind && name == o.name;
  }
};

struct Canonicalizer {
  std::vector<CanonicalLoop> loops;    // loop systems then externals
  std::set<std::string> rangeFns;
  std::uint64_t optionBits = 0;
  std::size_t externalStart = 0;       // index of first external system

  std::vector<NodeKey> nodes;          // stable order: sorted by key
  std::map<NodeKey, std::size_t> nodeIndex;
  std::vector<std::uint64_t> color;    // current color per node
  // Incidence contributions gathered during one refinement round:
  // per node, the multiset of (conjunct signature mixed with position).
  std::vector<std::vector<std::uint64_t>> touches;

  /// One step of a compiled conjunct-signature program: mix a constant
  /// (colorOf < 0) or the current color of a node (colorOf >= 0) into the
  /// running signature.
  struct Token {
    std::int64_t colorOf = -1;
    std::uint64_t value = 0;
  };

  /// One conjunct, compiled once: refinement rounds replay the token
  /// program against the current coloring instead of re-walking expression
  /// trees and name maps every round (the refinement loop runs
  /// O(individualizations x rounds-to-fixpoint) times, so per-round cost
  /// dominates canonicalization).
  struct Compiled {
    std::uint64_t tag = 0;
    std::size_t loopNode = 0;
    std::vector<Token> tokens;
    std::vector<std::pair<std::size_t, std::uint64_t>> mentions;
  };
  std::vector<Compiled> conjuncts;

  std::size_t node(NodeKind kind, const std::string& name) {
    auto it = nodeIndex.find(NodeKey{kind, name});
    DPART_CHECK(it != nodeIndex.end(),
                "canonicalize: unregistered graph node '" + name + "'");
    return it->second;
  }

  void registerNode(NodeKind kind, const std::string& name) {
    NodeKey key{kind, name};
    if (!nodeIndex.contains(key)) nodeIndex.emplace(key, 0);
  }

  void registerExprNodes(const dpl::ExprPtr& e) {
    if (!e) return;
    switch (e->kind) {
      case dpl::ExprKind::Symbol:
        registerNode(NodeKind::Sym, e->name);
        return;
      case dpl::ExprKind::Union:
      case dpl::ExprKind::Intersect:
      case dpl::ExprKind::Subtract:
        registerExprNodes(e->lhs);
        registerExprNodes(e->rhs);
        return;
      case dpl::ExprKind::Image:
      case dpl::ExprKind::Preimage:
        registerExprNodes(e->arg);
        registerNode(NodeKind::Fn, e->fn);
        registerNode(NodeKind::Region, e->region);
        return;
      case dpl::ExprKind::Equal:
        registerNode(NodeKind::Region, e->region);
        return;
    }
    DPART_UNREACHABLE("bad ExprKind");
  }

  void collectNodes() {
    for (std::size_t i = 0; i < loops.size(); ++i) {
      registerNode(NodeKind::Loop, std::to_string(i));
      const System& sys = *loops[i].system;
      for (const std::string& s : sys.symbols()) {
        registerNode(NodeKind::Sym, s);
        registerNode(NodeKind::Region, sys.regionOf(s));
      }
      for (const Pred& p : sys.preds()) {
        registerExprNodes(p.expr);
        if (!p.region.empty()) registerNode(NodeKind::Region, p.region);
      }
      for (const Subset& sc : sys.subsets()) {
        registerExprNodes(sc.lhs);
        registerExprNodes(sc.rhs);
      }
      for (const std::string& t : loops[i].reduceTargets) {
        registerNode(NodeKind::Sym, t);
      }
    }
    // Freeze: node index = rank in sorted key order. This order is input-name
    // dependent and is used only as a stable working order; canonical ranks
    // come from colors alone.
    nodes.reserve(nodeIndex.size());
    for (auto& [key, idx] : nodeIndex) {
      idx = nodes.size();
      nodes.push_back(key);
    }
  }

  /// Kind-intrinsic initial color, independent of any input name. `f_ID` is
  /// the one exception: it is structural (every program has it; it is never
  /// renamed), so it gets a reserved color of its own.
  void initColors() {
    color.assign(nodes.size(), 0);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const NodeKey& k = nodes[i];
      std::uint64_t c = fnv64("kind");
      c = mix(c, static_cast<std::uint64_t>(k.kind));
      switch (k.kind) {
        case NodeKind::Sym:
          break;  // fixedness enters via declaration conjuncts per system
        case NodeKind::Region:
          break;
        case NodeKind::Fn:
          c = mix(c, k.name == kIdentityFn ? 2
                     : rangeFns.contains(k.name) ? 1
                                                 : 0);
          break;
        case NodeKind::Loop: {
          const std::size_t li = std::stoul(k.name);
          c = mix(c, loops[li].relaxed ? 1 : 0);
          c = mix(c, li >= externalStart ? 1 : 0);
          break;
        }
      }
      color[i] = c;
    }
  }

  void touch(std::size_t nodeIdx, std::uint64_t conjunctSig,
             std::uint64_t pos) {
    touches[nodeIdx].push_back(mix(conjunctSig, pos));
  }

  /// Compiles an expression into tokens: constants marking the structure,
  /// color references at every node position. Mirrors the shape the old
  /// per-round recursive signature walk hashed; only the numeric values
  /// differ, and nothing downstream depends on those (canonical ranks come
  /// from color ORDER, the rendering from ranks).
  void compileExpr(const dpl::ExprPtr& e, std::uint64_t path, Compiled& out) {
    DPART_CHECK(e != nullptr, "canonicalize: null expression");
    out.tokens.push_back(
        Token{-1, mix(fnv64("expr"), static_cast<std::uint64_t>(e->kind))});
    switch (e->kind) {
      case dpl::ExprKind::Symbol: {
        const std::size_t n = node(NodeKind::Sym, e->name);
        out.mentions.emplace_back(n, path);
        out.tokens.push_back(Token{static_cast<std::int64_t>(n), 0});
        return;
      }
      case dpl::ExprKind::Union:
      case dpl::ExprKind::Intersect:
      case dpl::ExprKind::Subtract:
        compileExpr(e->lhs, mix(path, 1), out);
        compileExpr(e->rhs, mix(path, 2), out);
        return;
      case dpl::ExprKind::Image:
      case dpl::ExprKind::Preimage: {
        compileExpr(e->arg, mix(path, 1), out);
        const std::size_t fn = node(NodeKind::Fn, e->fn);
        const std::size_t rg = node(NodeKind::Region, e->region);
        out.mentions.emplace_back(fn, mix(path, 3));
        out.mentions.emplace_back(rg, mix(path, 4));
        out.tokens.push_back(Token{static_cast<std::int64_t>(fn), 0});
        out.tokens.push_back(Token{static_cast<std::int64_t>(rg), 0});
        return;
      }
      case dpl::ExprKind::Equal: {
        const std::size_t rg = node(NodeKind::Region, e->region);
        out.mentions.emplace_back(rg, mix(path, 4));
        out.tokens.push_back(Token{static_cast<std::int64_t>(rg), 0});
        return;
      }
    }
    DPART_UNREACHABLE("bad ExprKind");
  }

  void compileConjunct(std::uint64_t tag, std::size_t loopIdx,
                       const std::vector<const dpl::ExprPtr*>& exprs,
                       const std::vector<std::size_t>& extraNodes) {
    Compiled c;
    c.tag = tag;
    c.loopNode = node(NodeKind::Loop, std::to_string(loopIdx));
    std::uint64_t slot = fnv64("slot");
    for (const dpl::ExprPtr* e : exprs) {
      slot = mix(slot, 1);
      c.tokens.push_back(Token{-1, slot});
      compileExpr(*e, slot, c);
    }
    for (std::size_t n : extraNodes) {
      slot = mix(slot, 2);
      c.mentions.emplace_back(n, slot);
      c.tokens.push_back(Token{static_cast<std::int64_t>(n), 0});
    }
    conjuncts.push_back(std::move(c));
  }

  void compileAllConjuncts() {
    for (std::size_t i = 0; i < loops.size(); ++i) {
      const System& sys = *loops[i].system;
      for (const std::string& s : sys.symbols()) {
        std::uint64_t tag = fnv64("decl");
        tag = mix(tag, sys.isFixed(s) ? 1 : 0);
        compileConjunct(tag, i, {},
                        {node(NodeKind::Sym, s),
                         node(NodeKind::Region, sys.regionOf(s))});
      }
      for (const Pred& p : sys.preds()) {
        // Symbol PART preds are implied by declarations; skip them so the
        // graph does not double-count what `decl` conjuncts already carry.
        if (p.kind == Pred::Kind::Part &&
            p.expr->kind == dpl::ExprKind::Symbol) {
          continue;
        }
        std::uint64_t tag = fnv64("pred");
        tag = mix(tag, static_cast<std::uint64_t>(p.kind));
        tag = mix(tag, p.assumed ? 1 : 0);
        std::vector<std::size_t> extra;
        if (!p.region.empty()) extra.push_back(node(NodeKind::Region, p.region));
        compileConjunct(tag, i, {&p.expr}, extra);
      }
      for (const Subset& sc : sys.subsets()) {
        std::uint64_t tag = fnv64("subset");
        tag = mix(tag, sc.assumed ? 1 : 0);
        compileConjunct(tag, i, {&sc.lhs, &sc.rhs}, {});
      }
      for (const std::string& t : loops[i].reduceTargets) {
        compileConjunct(fnv64("reduce-target"), i, {},
                        {node(NodeKind::Sym, t)});
      }
    }
  }

  /// One refinement round over the compiled conjuncts; returns the
  /// partition (node -> class rank).
  std::vector<std::size_t> refineRound() {
    const std::uint64_t atLoop = fnv64("@loop");
    const std::uint64_t rf = fnv64("rf");
    touches.resize(nodes.size());
    for (std::vector<std::uint64_t>& t : touches) t.clear();
    for (const Compiled& c : conjuncts) {
      std::uint64_t sig = mix(c.tag, color[c.loopNode]);
      for (const Token& t : c.tokens) {
        sig = mix(sig, t.colorOf >= 0
                           ? color[static_cast<std::size_t>(t.colorOf)]
                           : t.value);
      }
      touch(c.loopNode, sig, atLoop);
      for (const auto& [n, pos] : c.mentions) touch(n, sig, pos);
    }
    std::vector<std::uint64_t> next(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      // Sort in place (multiset semantics) and fold; the buffer's capacity
      // is reused across rounds.
      std::sort(touches[i].begin(), touches[i].end());
      std::uint64_t h = mix(color[i], rf);
      for (std::uint64_t v : touches[i]) h = mix(h, v);
      next[i] = h;
    }
    color = std::move(next);
    // Partition = ranks of the distinct colors.
    std::vector<std::uint64_t> distinct = color;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    std::vector<std::size_t> part(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      part[i] = static_cast<std::size_t>(
          std::lower_bound(distinct.begin(), distinct.end(), color[i]) -
          distinct.begin());
    }
    return part;
  }

  /// Refines to a fixed point of the partition. Convergence is detected on
  /// the CLASS COUNT, not the rank vector: colors are rehashed every round,
  /// so rank labels permute even once the partition is stable, but
  /// refinement only ever splits classes — the count is monotone and stops
  /// growing exactly at the fixed point. (Comparing rank vectors here made
  /// every fixpoint run to its |nodes|-round safety cap.)
  std::vector<std::size_t> refineToFixpoint() {
    std::vector<std::size_t> part = refineRound();
    if (part.empty()) return part;
    std::size_t classes =
        1 + *std::max_element(part.begin(), part.end());
    // The partition only ever splits, so at most |nodes| productive rounds.
    for (std::size_t round = 0; round <= nodes.size(); ++round) {
      std::vector<std::size_t> next = refineRound();
      const std::size_t nextClasses =
          1 + *std::max_element(next.begin(), next.end());
      part = std::move(next);
      if (nextClasses <= classes) return part;
      classes = nextClasses;
    }
    return part;
  }

  /// Splits residual tied classes one node at a time. The choice of which
  /// node to individualize is a heuristic (first member in input-name order
  /// of the lowest-rank non-singleton class): a "wrong" choice can only make
  /// two isomorphic inputs land on different canonical forms (a cache miss,
  /// caught by the rendering guard) — never on the same form, because the
  /// rendering is a faithful image of the input.
  void individualize() {
    std::vector<std::size_t> part = refineToFixpoint();
    for (;;) {
      // Class rank -> members (in node order, i.e. sorted input names).
      std::map<std::size_t, std::vector<std::size_t>> classes;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        classes[part[i]].push_back(i);
      }
      const auto tied =
          std::find_if(classes.begin(), classes.end(),
                       [](const auto& c) { return c.second.size() > 1; });
      if (tied == classes.end()) return;
      color[tied->second.front()] =
          mix(color[tied->second.front()], fnv64("indiv"));
      part = refineToFixpoint();
    }
  }

  CanonicalForm finish() {
    CanonicalForm out;
    // Canonical names: rank nodes of each kind by final color. All colors
    // are distinct after individualization.
    struct Ranked {
      std::uint64_t color;
      std::size_t idx;
    };
    std::map<NodeKind, std::vector<Ranked>> byKind;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      byKind[nodes[i].kind].push_back(Ranked{color[i], i});
    }
    std::vector<std::string> loopNames(loops.size());
    for (auto& [kind, ranked] : byKind) {
      std::sort(ranked.begin(), ranked.end(), [](const Ranked& a,
                                                 const Ranked& b) {
        return a.color < b.color;
      });
      std::size_t rank = 0;
      for (const Ranked& r : ranked) {
        const std::string& name = nodes[r.idx].name;
        switch (kind) {
          case NodeKind::Sym:
            out.toCanonical.symbols[name] = "s" + std::to_string(rank);
            break;
          case NodeKind::Region:
            out.toCanonical.regions[name] = "r" + std::to_string(rank);
            break;
          case NodeKind::Fn:
            if (name != kIdentityFn) {
              out.toCanonical.fns[name] = "f" + std::to_string(rank);
            }
            break;
          case NodeKind::Loop:
            loopNames[std::stoul(name)] = "L" + std::to_string(rank);
            break;
        }
        ++rank;
      }
    }

    // Rendering: the full canonicalized constraint state, loops in canonical
    // order, conjuncts sorted textually. Byte-equality of two renderings is
    // byte-equality of the inputs' canonical images — the collision guard.
    std::vector<std::string> loopTexts(loops.size());
    for (std::size_t i = 0; i < loops.size(); ++i) {
      const System& sys = *loops[i].system;
      std::ostringstream os;
      os << "loop " << loopNames[i] << " relaxed=" << (loops[i].relaxed ? 1 : 0)
         << " external=" << (i >= externalStart ? 1 : 0) << '\n';
      std::vector<std::string> lines;
      for (const std::string& s : sys.symbols()) {
        lines.push_back("  decl " + out.toCanonical.symbol(s) + " : " +
                        out.toCanonical.region(sys.regionOf(s)) +
                        (sys.isFixed(s) ? " fixed" : ""));
      }
      for (const Pred& p : sys.preds()) {
        if (p.kind == Pred::Kind::Part &&
            p.expr->kind == dpl::ExprKind::Symbol) {
          continue;
        }
        Pred q = p;
        q.expr = mapExpr(p.expr, out.toCanonical);
        q.region = out.toCanonical.region(p.region);
        lines.push_back(std::string("  pred ") + (q.assumed ? "assumed " : "") +
                        q.toString());
      }
      for (const Subset& sc : sys.subsets()) {
        Subset q = sc;
        q.lhs = mapExpr(sc.lhs, out.toCanonical);
        q.rhs = mapExpr(sc.rhs, out.toCanonical);
        lines.push_back(std::string("  sub ") + (q.assumed ? "assumed " : "") +
                        q.toString());
      }
      std::vector<std::string> targets;
      targets.reserve(loops[i].reduceTargets.size());
      for (const std::string& t : loops[i].reduceTargets) {
        targets.push_back(out.toCanonical.symbol(t));
      }
      std::sort(targets.begin(), targets.end());
      for (const std::string& t : targets) lines.push_back("  reduce " + t);
      std::sort(lines.begin(), lines.end());
      for (const std::string& l : lines) os << l << '\n';
      loopTexts[i] = os.str();
    }
    std::sort(loopTexts.begin(), loopTexts.end());

    std::ostringstream os;
    os << "options " << optionBits << '\n';
    std::vector<std::string> rf;
    for (const std::string& f : rangeFns) {
      // Range fns the systems never mention cannot affect the solve.
      if (out.toCanonical.fns.contains(f)) {
        rf.push_back(out.toCanonical.fn(f));
      }
    }
    std::sort(rf.begin(), rf.end());
    os << "rangefns";
    for (const std::string& f : rf) os << ' ' << f;
    os << '\n';
    for (const std::string& t : loopTexts) os << t;
    out.rendering = os.str();
    out.hash = fnv64(out.rendering);
    return out;
  }
};

}  // namespace

const std::string& NameMaps::symbol(const std::string& name) const {
  auto it = symbols.find(name);
  return it == symbols.end() ? name : it->second;
}

const std::string& NameMaps::region(const std::string& name) const {
  auto it = regions.find(name);
  return it == regions.end() ? name : it->second;
}

const std::string& NameMaps::fn(const std::string& name) const {
  auto it = fns.find(name);
  return it == fns.end() ? name : it->second;
}

NameMaps NameMaps::inverted() const {
  NameMaps out;
  auto invert = [](const std::map<std::string, std::string>& m,
                   std::map<std::string, std::string>& into) {
    for (const auto& [k, v] : m) {
      DPART_CHECK(into.emplace(v, k).second,
                  "NameMaps::inverted: non-injective map at '" + v + "'");
    }
  };
  invert(symbols, out.symbols);
  invert(regions, out.regions);
  invert(fns, out.fns);
  return out;
}

dpl::ExprPtr mapExpr(const dpl::ExprPtr& e, const NameMaps& m) {
  DPART_CHECK(e != nullptr, "mapExpr: null expression");
  switch (e->kind) {
    case dpl::ExprKind::Symbol:
      return dpl::symbol(m.symbol(e->name));
    case dpl::ExprKind::Union:
      return dpl::unionOf(mapExpr(e->lhs, m), mapExpr(e->rhs, m));
    case dpl::ExprKind::Intersect:
      return dpl::intersectOf(mapExpr(e->lhs, m), mapExpr(e->rhs, m));
    case dpl::ExprKind::Subtract:
      return dpl::subtractOf(mapExpr(e->lhs, m), mapExpr(e->rhs, m));
    case dpl::ExprKind::Image:
      return dpl::image(mapExpr(e->arg, m), m.fn(e->fn), m.region(e->region));
    case dpl::ExprKind::Preimage:
      return dpl::preimage(m.region(e->region), m.fn(e->fn),
                           mapExpr(e->arg, m));
    case dpl::ExprKind::Equal:
      return dpl::equalOf(m.region(e->region));
  }
  DPART_UNREACHABLE("bad ExprKind");
}

System mapSystem(const System& s, const NameMaps& m) {
  System out;
  for (const std::string& sym : s.symbols()) {
    out.declareSymbol(m.symbol(sym), m.region(s.regionOf(sym)),
                      s.isFixed(sym));
  }
  for (const Pred& p : s.preds()) {
    // Symbol PART preds were re-added by declareSymbol above.
    if (p.kind == Pred::Kind::Part && p.expr->kind == dpl::ExprKind::Symbol) {
      continue;
    }
    switch (p.kind) {
      case Pred::Kind::Part:
        out.addPart(mapExpr(p.expr, m), m.region(p.region), p.assumed);
        break;
      case Pred::Kind::Disj:
        out.addDisj(mapExpr(p.expr, m), p.assumed);
        break;
      case Pred::Kind::Comp:
        out.addComp(mapExpr(p.expr, m), m.region(p.region), p.assumed);
        break;
    }
  }
  for (const Subset& sc : s.subsets()) {
    out.addSubset(mapExpr(sc.lhs, m), mapExpr(sc.rhs, m), sc.assumed);
  }
  return out;
}

CanonicalForm canonicalize(const std::vector<CanonicalLoop>& loops,
                           const std::vector<const System*>& externals,
                           const std::set<std::string>& rangeFns,
                           std::uint64_t optionBits) {
  Canonicalizer c;
  c.loops = loops;
  c.externalStart = loops.size();
  for (const System* ext : externals) {
    c.loops.push_back(CanonicalLoop{ext, false, {}});
  }
  c.rangeFns = rangeFns;
  c.optionBits = optionBits;
  c.collectNodes();
  c.initColors();
  c.compileAllConjuncts();
  c.individualize();
  return c.finish();
}

}  // namespace dpart::constraint
