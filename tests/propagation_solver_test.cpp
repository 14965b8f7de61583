// Unit tests for the CP propagation layer under the solver: interval bounds
// arithmetic, the DomainStore, the vocabulary rules (prunes, refutations,
// first-conflict provenance) and the restartable search heuristics.

#include "constraint/propagate.hpp"

#include <gtest/gtest.h>

#include "constraint/solver.hpp"
#include "constraint/system.hpp"

namespace dpart::constraint {
namespace {

using dpl::equalOf;
using dpl::image;
using dpl::preimage;
using dpl::subtractOf;
using dpl::symbol;
using dpl::unionOf;

constexpr std::size_t kMax = PieceBounds::kUnbounded;

class BoundsTest : public ::testing::Test {
 protected:
  BoundsTest() {
    sizes["R"] = 100;
    sizes["S"] = 10;
    env.regionSizes = &sizes;
    env.pieces = 4;
    env.rangeFns = &rangeFns;
    env.regionOf = [this](const std::string& sym) {
      auto it = symbolRegions.find(sym);
      return it == symbolRegions.end() ? std::string() : it->second;
    };
  }

  std::map<std::string, std::size_t> sizes;
  std::set<std::string> rangeFns;
  std::map<std::string, std::string> symbolRegions;
  BoundsEnv env;
};

TEST_F(BoundsTest, EqualIsExact) {
  const PieceBounds b = boundsOf(*equalOf("R"), env);
  EXPECT_EQ(b.maxPieceLo, 25u);  // ceil(100/4)
  EXPECT_EQ(b.maxPieceHi, 25u);
  EXPECT_EQ(b.totalLo, 100u);
  EXPECT_EQ(b.totalHi, 100u);
}

TEST_F(BoundsTest, EqualOfUnevenRegionRoundsUp) {
  sizes["T"] = 10;
  const PieceBounds b = boundsOf(*equalOf("T"), env);
  EXPECT_EQ(b.maxPieceLo, 3u);  // ceil(10/4)
  EXPECT_EQ(b.maxPieceHi, 3u);
}

TEST_F(BoundsTest, FixedSymbolIsAnyPartitionOfItsRegion) {
  symbolRegions["X"] = "S";
  const PieceBounds b = boundsOf(*symbol("X"), env);
  EXPECT_EQ(b.maxPieceLo, 0u);
  EXPECT_EQ(b.maxPieceHi, 10u);
  EXPECT_EQ(b.totalLo, 0u);
  EXPECT_EQ(b.totalHi, 40u);  // 4 pieces x 10
}

TEST_F(BoundsTest, UnknownSymbolIsUnbounded) {
  const PieceBounds b = boundsOf(*symbol("Y"), env);
  EXPECT_EQ(b.maxPieceHi, kMax);
  EXPECT_EQ(b.totalHi, kMax);
}

TEST_F(BoundsTest, UnionAddsUppersKeepsMaxLowers) {
  symbolRegions["X"] = "S";
  const PieceBounds b = boundsOf(*unionOf(equalOf("S"), symbol("X")), env);
  // equal(S): maxPiece exactly 3 (ceil(10/4)), total exactly 10.
  EXPECT_EQ(b.maxPieceLo, 3u);
  EXPECT_EQ(b.maxPieceHi, 10u);  // 3 + 10, clamped to |S| = 10
  EXPECT_EQ(b.totalLo, 10u);
  EXPECT_EQ(b.totalHi, 50u);  // 10 + 40
}

TEST_F(BoundsTest, IntersectTakesMinUppers) {
  symbolRegions["X"] = "S";
  const PieceBounds b =
      boundsOf(*dpl::intersectOf(equalOf("S"), symbol("X")), env);
  EXPECT_EQ(b.maxPieceLo, 0u);
  EXPECT_EQ(b.maxPieceHi, 3u);
  EXPECT_EQ(b.totalHi, 10u);
}

TEST_F(BoundsTest, SubtractLowersByUpperOfSubtrahend) {
  symbolRegions["X"] = "S";
  const PieceBounds b = boundsOf(*subtractOf(equalOf("R"), symbol("X")), env);
  // 25 - up-to-10 per piece; 100 - up-to-40 total.
  EXPECT_EQ(b.maxPieceLo, 15u);
  EXPECT_EQ(b.maxPieceHi, 25u);
  EXPECT_EQ(b.totalLo, 60u);
  EXPECT_EQ(b.totalHi, 100u);
}

TEST_F(BoundsTest, PointImageBoundedByArgAndTarget) {
  const PieceBounds b = boundsOf(*image(equalOf("R"), "f", "S"), env);
  // A point function maps <= 25 arg elements into <= |S| = 10 targets.
  EXPECT_EQ(b.maxPieceHi, 10u);
  EXPECT_EQ(b.totalHi, 40u);
}

TEST_F(BoundsTest, RangeImageOnlyBoundedByTarget) {
  rangeFns.insert("F");
  const PieceBounds b = boundsOf(*image(equalOf("S"), "F", "R"), env);
  // One range-valued entry can cover many targets: arg size is no bound.
  EXPECT_EQ(b.maxPieceHi, 100u);
  EXPECT_EQ(b.totalHi, 400u);
}

TEST_F(BoundsTest, PreimageBoundedBySourceRegion) {
  const PieceBounds b = boundsOf(*preimage("R", "f", equalOf("S")), env);
  EXPECT_EQ(b.maxPieceHi, 100u);
  EXPECT_EQ(b.totalHi, 400u);
}

TEST_F(BoundsTest, TotalLowerLiftsMaxPieceLower) {
  // equal(R) u equal(R): total >= 100 over 4 pieces forces a >= 25 piece.
  const PieceBounds b = boundsOf(*unionOf(equalOf("R"), equalOf("R")), env);
  EXPECT_GE(b.maxPieceLo, 25u);
}

// ---- DomainStore ----------------------------------------------------------

TEST(DomainStoreTest, PaperOrderIsIdentity) {
  DomainStore dom;
  dom.add("A", equalOf("R"));
  dom.add("B", equalOf("S"));
  dom.add("A", preimage("R", "f", equalOf("S")));
  EXPECT_EQ(dom.order(SearchHeuristic::PaperOrder),
            (std::vector<std::size_t>{0, 1, 2}));
}

TEST(DomainStoreTest, SmallestDomainGroupsBySymbol) {
  DomainStore dom;
  dom.add("A", equalOf("R"));
  dom.add("B", equalOf("S"));
  dom.add("A", preimage("R", "f", equalOf("S")));
  // B has 1 live candidate, A has 2: B's indices come first.
  EXPECT_EQ(dom.order(SearchHeuristic::SmallestDomain),
            (std::vector<std::size_t>{1, 0, 2}));
  EXPECT_EQ(dom.liveCount("A"), 2u);
  dom.kill(0);
  EXPECT_EQ(dom.liveCount("A"), 1u);
}

// ---- Vocabulary rules through the full solver ------------------------------

class VocabSolveTest : public ::testing::Test {
 protected:
  SolverConfig config(SolverVocabulary vocab) {
    SolverConfig cfg;
    cfg.vocab = std::move(vocab);
    cfg.regionSizes = {{"R", 100}, {"S", 10}};
    cfg.pieces = 4;
    return cfg;
  }

  System iterSystem() {
    System sys;
    sys.declareSymbol("P1", "R");
    sys.addPart(symbol("P1"), "R");
    sys.addDisj(symbol("P1"));
    sys.addComp(symbol("P1"), "R");
    return sys;
  }
};

TEST_F(VocabSolveTest, EmptyVocabularySolvesAsUsual) {
  Solver solver(iterSystem(), {}, config({}));
  const Solution sol = solver.solve();
  ASSERT_TRUE(sol.ok);
  EXPECT_EQ(sol.assignments.at("P1")->toString(), "equal(R)");
  EXPECT_FALSE(sol.conflict.valid());
}

TEST_F(VocabSolveTest, CapacityPigeonholeRefutesCompleteSymbol) {
  SolverVocabulary vocab;
  vocab.capacity["P1"] = 24;  // < ceil(100/4)
  Solver solver(iterSystem(), {}, config(std::move(vocab)));
  const Solution sol = solver.solve();
  ASSERT_FALSE(sol.ok);
  ASSERT_TRUE(sol.conflict.valid());
  EXPECT_EQ(sol.conflict.rule, "capacity-comp");
  EXPECT_EQ(sol.conflict.symbol, "P1");
  EXPECT_NE(sol.conflict.detail.find("cap=24"), std::string::npos);
  EXPECT_NE(sol.failure.find("capacity-comp"), std::string::npos);
}

TEST_F(VocabSolveTest, CapacityAtTheBoundSolves) {
  SolverVocabulary vocab;
  vocab.capacity["P1"] = 25;  // exactly ceil(100/4)
  Solver solver(iterSystem(), {}, config(std::move(vocab)));
  const Solution sol = solver.solve();
  ASSERT_TRUE(sol.ok);
  EXPECT_GE(sol.stats.propagations, 1u);
}

TEST_F(VocabSolveTest, ReplicationCeilingBelowOneRefutesComplete) {
  SolverVocabulary vocab;
  vocab.replication["P1"] = {0.0, 0.5};  // total <= 50 < |R|
  Solver solver(iterSystem(), {}, config(std::move(vocab)));
  const Solution sol = solver.solve();
  ASSERT_FALSE(sol.ok);
  ASSERT_TRUE(sol.conflict.valid());
  EXPECT_EQ(sol.conflict.rule, "replicate-comp");
}

TEST_F(VocabSolveTest, ReplicationFloorAboveOneRefutesDisjoint) {
  SolverVocabulary vocab;
  vocab.replication["P1"] = {2.0, 0.0};  // total >= 200 > |R|
  Solver solver(iterSystem(), {}, config(std::move(vocab)));
  const Solution sol = solver.solve();
  ASSERT_FALSE(sol.ok);
  ASSERT_TRUE(sol.conflict.valid());
  EXPECT_EQ(sol.conflict.rule, "replicate-disj");
}

TEST_F(VocabSolveTest, SelfAntiAffinityRefutesCompleteSymbol) {
  SolverVocabulary vocab;
  vocab.antiAffine.push_back({"P1", "P1", "R.a", "R.b"});
  Solver solver(iterSystem(), {}, config(std::move(vocab)));
  const Solution sol = solver.solve();
  ASSERT_FALSE(sol.ok);
  ASSERT_TRUE(sol.conflict.valid());
  EXPECT_EQ(sol.conflict.rule, "anti-self");
  // Provenance names the originating fields, not just symbols.
  EXPECT_NE(sol.conflict.detail.find("R.a"), std::string::npos);
}

TEST_F(VocabSolveTest, ColocationForcesIdenticalAssignments) {
  System sys;
  sys.declareSymbol("P1", "R");
  sys.addPart(symbol("P1"), "R");
  sys.addDisj(symbol("P1"));
  sys.addComp(symbol("P1"), "R");
  sys.declareSymbol("P2", "R");
  sys.addPart(symbol("P2"), "R");
  SolverVocabulary vocab;
  vocab.colocated.push_back({"P1", "P2", "R.a", "R.b"});
  Solver solver(sys, {}, config(std::move(vocab)));
  const Solution sol = solver.solve();
  ASSERT_TRUE(sol.ok);
  EXPECT_EQ(sol.assignments.at("P1")->toString(),
            sol.assignments.at("P2")->toString());
  EXPECT_GE(sol.stats.prunes + sol.stats.branches, 1u);
}

TEST_F(VocabSolveTest, ColocationAcrossRegionsIsInfeasibleWithProvenance) {
  // P1 (over R) can only become equal(R), P2 (over S) only equal(S): the
  // colocate prune empties P2's domain and the first conflict names the
  // rule, the symbol and the wanted expression.
  System sys;
  sys.declareSymbol("P1", "R");
  sys.addPart(symbol("P1"), "R");
  sys.addDisj(symbol("P1"));
  sys.addComp(symbol("P1"), "R");
  sys.declareSymbol("P2", "S");
  sys.addPart(symbol("P2"), "S");
  sys.addDisj(symbol("P2"));
  sys.addComp(symbol("P2"), "S");
  SolverVocabulary vocab;
  vocab.colocated.push_back({"P1", "P2", "R.a", "S.b"});
  Solver solver(sys, {}, config(std::move(vocab)));
  const Solution sol = solver.solve();
  ASSERT_FALSE(sol.ok);
  ASSERT_TRUE(sol.conflict.valid());
  EXPECT_EQ(sol.conflict.rule, "colocate");
  EXPECT_EQ(sol.conflict.symbol, "P2");
  EXPECT_NE(sol.conflict.detail.find("want=equal(R)"), std::string::npos);
}

TEST_F(VocabSolveTest, ColocationPrunesSurviveUnrelatedBranches) {
  // Regression: candidate lists are rebuilt at every search node, so the
  // colocate prune must run at every node, even when the intervening branch
  // assigned an unrelated symbol. Branch order is alphabetical here (equal
  // depth): A (pair member), then M (unrelated), then Z (partner) — the
  // prune on Z fires two branches below A's assignment. A solver that ran
  // the rule only after a branch on A or Z solved this with Z = equal(T),
  // silently dropping the constraint.
  SolverConfig cfg = config({});
  cfg.regionSizes["T"] = 8;
  cfg.vocab.colocated.push_back({"A", "Z", "R.a", "T.b"});
  System sys;
  for (const auto& [name, region] :
       std::vector<std::pair<std::string, std::string>>{
           {"A", "R"}, {"M", "S"}, {"Z", "T"}}) {
    sys.declareSymbol(name, region);
    sys.addPart(symbol(name), region);
    sys.addDisj(symbol(name));
    sys.addComp(symbol(name), region);
  }
  Solver solver(sys, {}, cfg);
  const Solution sol = solver.solve();
  ASSERT_FALSE(sol.ok);
  ASSERT_TRUE(sol.conflict.valid());
  EXPECT_EQ(sol.conflict.rule, "colocate");
  EXPECT_EQ(sol.conflict.symbol, "Z");
}

TEST_F(VocabSolveTest, AntiAffinityBetweenDistinctSymbols) {
  // Both symbols' only candidate is equal(R); anti-affinity prunes P2's
  // copy (identical to P1's assignment, provably non-empty pieces) and the
  // system becomes infeasible.
  System sys;
  sys.declareSymbol("P1", "R");
  sys.addPart(symbol("P1"), "R");
  sys.addDisj(symbol("P1"));
  sys.addComp(symbol("P1"), "R");
  sys.declareSymbol("P2", "R");
  sys.addPart(symbol("P2"), "R");
  sys.addDisj(symbol("P2"));
  sys.addComp(symbol("P2"), "R");
  SolverVocabulary vocab;
  vocab.antiAffine.push_back({"P1", "P2", "R.a", "R.b"});
  Solver solver(sys, {}, config(std::move(vocab)));
  const Solution sol = solver.solve();
  ASSERT_FALSE(sol.ok);
  ASSERT_TRUE(sol.conflict.valid());
  EXPECT_EQ(sol.conflict.rule, "anti");
  EXPECT_NE(sol.conflict.detail.find("partner=P1"), std::string::npos);
}

TEST_F(VocabSolveTest, RestartsFireWhenBudgetExhausts) {
  // Three symbols need a depth-4 chain to solve; a 1-step first budget
  // forces at least one restart (with the flipped heuristic and a grown
  // budget) before the search can reach a leaf.
  System sys = iterSystem();
  sys.declareSymbol("P2", "R");
  sys.addPart(symbol("P2"), "R");
  sys.declareSymbol("P3", "R");
  sys.addPart(symbol("P3"), "R");
  SolverConfig cfg = config({});
  cfg.search.restartBudget = 1;  // force budget exhaustion + restart
  cfg.search.restartGrowth = 2.0;
  Solver solver(sys, {}, cfg);
  solver.setMaxSteps(64);
  const Solution sol = solver.solve();
  EXPECT_GE(sol.stats.restarts, 1u);
  ASSERT_TRUE(sol.ok);  // a grown budget eventually fits the search
  EXPECT_EQ(sol.assignments.at("P1")->toString(), "equal(R)");
}

TEST_F(VocabSolveTest, SmallestDomainHeuristicSolvesTheSameSystem) {
  SolverConfig cfg = config({});
  cfg.search.heuristic = SearchHeuristic::SmallestDomain;
  Solver solver(iterSystem(), {}, cfg);
  const Solution sol = solver.solve();
  ASSERT_TRUE(sol.ok);
  EXPECT_EQ(sol.assignments.at("P1")->toString(), "equal(R)");
}

TEST(SearchHeuristicTest, Names) {
  EXPECT_STREQ(toString(SearchHeuristic::PaperOrder), "paper");
  EXPECT_STREQ(toString(SearchHeuristic::SmallestDomain), "smallest");
}

TEST(ConflictInfoTest, ToStringCarriesProvenance) {
  ConflictInfo c;
  EXPECT_FALSE(c.valid());
  c.symbol = "P1";
  c.rule = "capacity-comp";
  c.detail = "cap=3";
  EXPECT_TRUE(c.valid());
  EXPECT_EQ(c.toString(), "capacity-comp on P1 (cap=3)");
}

}  // namespace
}  // namespace dpart::constraint
