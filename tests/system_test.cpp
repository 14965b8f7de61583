#include "constraint/system.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "constraint/graphviz.hpp"
#include "support/check.hpp"

namespace dpart::constraint {
namespace {

using dpl::equalOf;
using dpl::image;
using dpl::preimage;
using dpl::symbol;

TEST(System, DeclareAndQuerySymbols) {
  System sys;
  sys.declareSymbol("P1", "R");
  sys.declareSymbol("pX", "S", /*fixed=*/true);
  EXPECT_TRUE(sys.hasSymbol("P1"));
  EXPECT_FALSE(sys.hasSymbol("P2"));
  EXPECT_EQ(sys.regionOf("P1"), "R");
  EXPECT_FALSE(sys.isFixed("P1"));
  EXPECT_TRUE(sys.isFixed("pX"));
  EXPECT_EQ(sys.symbols(), (std::set<std::string>{"P1", "pX"}));
  EXPECT_EQ(sys.openSymbols(), (std::set<std::string>{"P1"}));
  EXPECT_THROW((void)sys.regionOf("nope"), Error);
}

TEST(System, RedeclareSameRegionIsIdempotent) {
  System sys;
  sys.declareSymbol("P1", "R");
  sys.declareSymbol("P1", "R");
  EXPECT_EQ(sys.preds().size(), 1u);  // one PART pred, not two
  EXPECT_THROW(sys.declareSymbol("P1", "S"), Error);
}

TEST(System, RedeclareCanPromoteToFixed) {
  System sys;
  sys.declareSymbol("P1", "R");
  sys.declareSymbol("P1", "R", /*fixed=*/true);
  EXPECT_TRUE(sys.isFixed("P1"));
}

TEST(System, RequiresDisjCompAreSymbolSpecific) {
  System sys;
  sys.declareSymbol("P1", "R");
  sys.declareSymbol("P2", "R");
  sys.addDisj(symbol("P1"));
  sys.addComp(symbol("P2"), "R");
  // DISJ on a non-symbol expression does not mark the symbols inside it.
  sys.addDisj(dpl::unionOf(symbol("P1"), symbol("P2")));
  EXPECT_TRUE(sys.requiresDisj("P1"));
  EXPECT_FALSE(sys.requiresDisj("P2"));
  EXPECT_TRUE(sys.requiresComp("P2"));
  EXPECT_FALSE(sys.requiresComp("P1"));
}

TEST(System, MergeMarksAssumed) {
  System ext;
  ext.declareSymbol("pX", "R");
  ext.addComp(symbol("pX"), "R");
  ext.addSubset(symbol("pX"), symbol("pX"));

  System sys;
  sys.declareSymbol("P1", "R");
  sys.merge(ext, /*assumed=*/true);
  EXPECT_TRUE(sys.isFixed("pX"));  // assumed merge fixes the symbols
  bool sawAssumedComp = false;
  for (const Pred& p : sys.preds()) {
    if (p.kind == Pred::Kind::Comp) sawAssumedComp = p.assumed;
  }
  EXPECT_TRUE(sawAssumedComp);
  ASSERT_EQ(sys.subsets().size(), 1u);
  EXPECT_TRUE(sys.subsets()[0].assumed);
}

TEST(System, SubstitutedGroundsAndDropsTautologies) {
  System sys;
  sys.declareSymbol("P1", "R");
  sys.declareSymbol("P2", "S");
  sys.addComp(symbol("P1"), "R");
  sys.addSubset(image(symbol("P1"), "f", "S"), symbol("P2"));
  sys.addSubset(symbol("P1"), symbol("P1"));  // tautology

  System g = sys.substituted({{"P1", equalOf("R")}});
  EXPECT_FALSE(g.hasSymbol("P1"));
  EXPECT_TRUE(g.hasSymbol("P2"));
  // The tautology vanished; the image subset got grounded.
  ASSERT_EQ(g.subsets().size(), 1u);
  EXPECT_EQ(g.subsets()[0].toString(), "image(equal(R), f, S) <= P2");
  // COMP obligation survives, grounded.
  bool sawComp = false;
  for (const Pred& p : g.preds()) {
    if (p.kind == Pred::Kind::Comp) {
      sawComp = true;
      EXPECT_EQ(p.expr->toString(), "equal(R)");
    }
  }
  EXPECT_TRUE(sawComp);
}

TEST(System, SubstitutedDeduplicates) {
  System sys;
  sys.declareSymbol("P1", "R");
  sys.declareSymbol("P2", "R");
  sys.addSubset(symbol("P1"), symbol("P2"));
  sys.addSubset(symbol("P1"), symbol("P2"));
  System g = sys.substituted({});
  EXPECT_EQ(g.subsets().size(), 1u);

  // What the deduplication key distinguishes: the assumed flag, and every
  // fn and region an expression or a PART/COMP predicate carries. The
  // first occurrence of a repeated conjunct keeps its position.
  sys = System();
  sys.declareSymbol("P1", "R");
  sys.declareSymbol("P2", "R");
  sys.addComp(symbol("P1"), "R");
  sys.addDisj(symbol("P2"));
  sys.addComp(symbol("P1"), "R", /*assumed=*/true);
  sys.addComp(symbol("P1"), "R");
  sys.addDisj(symbol("P2"));
  sys.addPart(image(symbol("P1"), "f", "R"), "R");
  sys.addPart(image(symbol("P1"), "f", "R"), "S");
  sys.addSubset(image(symbol("P1"), "f", "R"), symbol("P2"));
  sys.addSubset(image(symbol("P1"), "g", "R"), symbol("P2"));
  sys.addSubset(image(symbol("P1"), "f", "R"), symbol("P2"));
  sys.addSubset(image(symbol("P1"), "f", "S"), symbol("P2"));
  sys.addSubset(image(symbol("P1"), "f", "R"), symbol("P2"),
                /*assumed=*/true);

  g = sys.substituted({});
  std::vector<std::string> preds;
  for (const Pred& p : g.preds()) {
    preds.push_back(p.toString() + (p.assumed ? " #a" : ""));
  }
  EXPECT_EQ(preds, (std::vector<std::string>{
                       "PART(P1, R)", "PART(P2, R)", "COMP(P1, R)",
                       "DISJ(P2)", "COMP(P1, R) #a", "PART(image(P1, f, R), R)",
                       "PART(image(P1, f, R), S)"}));
  std::vector<std::string> subsets;
  for (const Subset& sc : g.subsets()) {
    subsets.push_back(sc.toString() + (sc.assumed ? " #a" : ""));
  }
  EXPECT_EQ(subsets, (std::vector<std::string>{
                         "image(P1, f, R) <= P2", "image(P1, g, R) <= P2",
                         "image(P1, f, S) <= P2",
                         "image(P1, f, R) <= P2 #a"}));
}

TEST(System, RenameSymbolMergesDeclarations) {
  System sys;
  sys.declareSymbol("P1", "R");
  sys.declareSymbol("P2", "R");
  sys.addComp(symbol("P2"), "R");
  sys.addSubset(image(symbol("P2"), "f", "R"), symbol("P1"));
  sys.renameSymbol("P2", "P1");
  EXPECT_FALSE(sys.hasSymbol("P2"));
  EXPECT_TRUE(sys.requiresComp("P1"));
  ASSERT_EQ(sys.subsets().size(), 1u);
  EXPECT_EQ(sys.subsets()[0].toString(), "image(P1, f, R) <= P1");
}

TEST(System, RenameAcrossRegionsThrows) {
  System sys;
  sys.declareSymbol("P1", "R");
  sys.declareSymbol("P2", "S");
  EXPECT_THROW(sys.renameSymbol("P2", "P1"), Error);
}

TEST(System, DepthFollowsSubsetChains) {
  System sys;
  sys.declareSymbol("P1", "R");
  sys.declareSymbol("P2", "S");
  sys.declareSymbol("P3", "T");
  sys.addSubset(image(symbol("P1"), "f", "S"), symbol("P2"));
  sys.addSubset(image(symbol("P2"), "g", "T"), symbol("P3"));
  EXPECT_EQ(sys.depths({"P1", "P2", "P3"}), (std::vector<int>{0, 1, 2}));
}

TEST(System, DepthTerminatesOnRecursiveConstraints) {
  // PENNANT Hint2's recursive external constraint must not hang depths().
  System sys;
  sys.declareSymbol("rs_p", "rs", /*fixed=*/true);
  sys.addSubset(image(symbol("rs_p"), "mapss3", "rs"), symbol("rs_p"));
  // A self-loop adds no chain link.
  EXPECT_EQ(sys.depths({"rs_p"}), std::vector<int>{0});
}

TEST(System, DepthOnACycleOfFixedSymbolsIsBoundedBySymbolCount) {
  // A two-symbol cycle makes chains unbounded; they are capped at one more
  // than the symbol count, so each symbol reads 3.
  System sys;
  sys.declareSymbol("a", "R", /*fixed=*/true);
  sys.declareSymbol("b", "R", /*fixed=*/true);
  sys.addSubset(image(symbol("a"), "f", "R"), symbol("b"));
  sys.addSubset(image(symbol("b"), "g", "R"), symbol("a"));
  EXPECT_EQ(sys.depths({"a", "b"}), (std::vector<int>{3, 3}));
}

TEST(System, DepthOfALadderIsLinearInItsLevels) {
  // 40 levels above a base, two symbols per level, each symbol an image
  // bound of both symbols of the level above: 2^40 chains reach the top,
  // so a walk that re-explores every path never returns.
  constexpr int kLevels = 40;
  System sys;
  auto name = [](char side, int level) {
    return std::string(1, side) + std::to_string(level);
  };
  for (int l = 0; l <= kLevels; ++l) {
    sys.declareSymbol(name('a', l), "R");
    sys.declareSymbol(name('b', l), "R");
  }
  for (int l = 0; l < kLevels; ++l) {
    for (char from : {'a', 'b'}) {
      for (char to : {'a', 'b'}) {
        sys.addSubset(image(symbol(name(from, l)), "f", "R"),
                      symbol(name(to, l + 1)));
      }
    }
  }
  EXPECT_EQ(sys.depths({name('a', 0), name('b', 1), name('b', kLevels)}),
            (std::vector<int>{0, 1, kLevels}));
}

// The walk depths() is measured against: every path re-explored, with one
// more than the symbol count as fuel, one unit per link.
int fuelBoundedDepth(const System& sys, const std::string& symbol) {
  const std::function<int(const std::string&, int)> go =
      [&](const std::string& sym, int fuel) -> int {
    if (fuel <= 0) return 0;
    int best = 0;
    for (const Subset& sc : sys.subsets()) {
      if (sc.rhs->kind != dpl::ExprKind::Symbol || sc.rhs->name != sym) {
        continue;
      }
      std::set<std::string> lhsSyms;
      sc.lhs->collectSymbols(lhsSyms);
      for (const std::string& s : lhsSyms) {
        if (s != sym) best = std::max(best, 1 + go(s, fuel - 1));
      }
      if (lhsSyms.empty()) best = std::max(best, 1);
    }
    return best;
  };
  return go(symbol, static_cast<int>(sys.symbols().size()) + 1);
}

TEST(System, DepthsMatchTheFuelBoundedWalk) {
  // Small random systems with self-loops, cycles, shared bounds, unions
  // and symbol-free bounds.
  std::mt19937 rng(20261018);
  auto pick = [&rng](int n) { return static_cast<int>(rng() % n); };
  for (int trial = 0; trial < 300; ++trial) {
    System sys;
    const int n = 2 + pick(5);
    std::vector<std::string> names;
    for (int i = 0; i < n; ++i) {
      names.push_back("s" + std::to_string(i));
      sys.declareSymbol(names.back(), "R", /*fixed=*/pick(2) == 0);
    }
    const int subsets = pick(2 * n + 1);
    for (int k = 0; k < subsets; ++k) {
      const ExprPtr a = symbol(names[pick(n)]);
      const ExprPtr b = symbol(names[pick(n)]);
      const ExprPtr lhs = std::vector<ExprPtr>{
          a, image(a, "f", "R"), dpl::unionOf(a, b), equalOf("R")}[pick(4)];
      sys.addSubset(lhs, symbol(names[pick(n)]));
    }
    std::vector<int> expected;
    for (const std::string& s : names) {
      expected.push_back(fuelBoundedDepth(sys, s));
    }
    ASSERT_EQ(sys.depths(names), expected) << sys.toString();
  }
}

TEST(System, ToStringListsEverything) {
  System sys;
  sys.declareSymbol("P1", "R");
  sys.declareSymbol("pX", "R", /*fixed=*/true);
  sys.addComp(symbol("P1"), "R");
  sys.addSubset(symbol("pX"), symbol("P1"));
  const std::string s = sys.toString();
  EXPECT_NE(s.find("P1 : partition of R"), std::string::npos);
  EXPECT_NE(s.find("fixed pX"), std::string::npos);
  EXPECT_NE(s.find("COMP(P1, R)"), std::string::npos);
  EXPECT_NE(s.find("pX <= P1"), std::string::npos);
}

TEST(SymbolGen, FreshNamesAreSequentialAndPrefixed) {
  SymbolGen gen;
  EXPECT_EQ(gen.fresh(), "P1");
  EXPECT_EQ(gen.fresh(), "P2");
  SymbolGen custom("Q");
  EXPECT_EQ(custom.fresh(), "Q1");
}

// ---- Graphviz export ----

TEST(Graphviz, RendersFigure1cStyleGraph) {
  System sys;
  sys.declareSymbol("P1", "Particles");
  sys.addComp(symbol("P1"), "Particles");
  sys.declareSymbol("P2", "Cells");
  sys.addSubset(image(symbol("P1"), "cell", "Cells"), symbol("P2"));
  sys.declareSymbol("P3", "Cells");
  sys.addSubset(image(symbol("P2"), "h", "Cells"), symbol("P3"));
  sys.declareSymbol("pExt", "Cells", /*fixed=*/true);
  sys.addDisj(symbol("pExt"));
  sys.addSubset(preimage("Particles", "cell", symbol("pExt")), symbol("P1"));

  const std::string dot = toGraphviz(sys, "fig1c");
  EXPECT_NE(dot.find("digraph \"fig1c\""), std::string::npos);
  // Complete iteration partition is shaded.
  EXPECT_NE(dot.find("\"P1\" [label=\"P1\\nParticles\", style=filled"),
            std::string::npos);
  // Fixed partitions are boxes; DISJ gets double peripheries.
  EXPECT_NE(dot.find("\"pExt\" [label=\"pExt\\nCells\", shape=box, "
                     "peripheries=2]"),
            std::string::npos);
  // Labeled image edges.
  EXPECT_NE(dot.find("\"P1\" -> \"P2\" [label=\"cell\"];"),
            std::string::npos);
  EXPECT_NE(dot.find("\"P2\" -> \"P3\" [label=\"h\"];"), std::string::npos);
  // The preimage subset appears as an annotation.
  EXPECT_NE(dot.find("shape=note"), std::string::npos);
  EXPECT_NE(dot.find("preimage(Particles, cell, pExt) <= P1"),
            std::string::npos);
}

TEST(Graphviz, EscapesQuotes) {
  System sys;
  sys.declareSymbol("P\"1", "R");
  const std::string dot = toGraphviz(sys);
  EXPECT_NE(dot.find("P\\\"1"), std::string::npos);
}

}  // namespace
}  // namespace dpart::constraint
