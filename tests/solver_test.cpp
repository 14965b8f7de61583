#include "constraint/solver.hpp"

#include <gtest/gtest.h>

#include "constraint/entail.hpp"

namespace dpart::constraint {
namespace {

using dpl::equalOf;
using dpl::image;
using dpl::preimage;
using dpl::symbol;
using dpl::unionOf;

// ---- Entailment engine (Fig. 8 lemmas) ----

class EntailTest : public ::testing::Test {
 protected:
  System sys;
  // Entailment references its range-fn set, so the sets outlive it.
  const std::set<std::string> pointFnsOnly;
  const std::set<std::string> rangeF{"F"};
  const std::set<std::string> rangef{"f"};
};

TEST_F(EntailTest, L1EqualIsPartDisjComp) {
  Entailment ent(sys, pointFnsOnly);
  EXPECT_TRUE(ent.provePart(equalOf("R"), "R"));
  EXPECT_TRUE(ent.proveDisj(equalOf("R")));
  EXPECT_TRUE(ent.proveComp(equalOf("R"), "R"));
  EXPECT_FALSE(ent.proveComp(equalOf("R"), "S"));
}

TEST_F(EntailTest, L2L3ImagePreimageArePartitions) {
  Entailment ent(sys, pointFnsOnly);
  EXPECT_TRUE(ent.provePart(image(equalOf("R"), "f", "S"), "S"));
  EXPECT_FALSE(ent.provePart(image(equalOf("R"), "f", "S"), "R"));
  EXPECT_TRUE(ent.provePart(preimage("R", "f", equalOf("S")), "R"));
}

TEST_F(EntailTest, L4SetOpsPreservePart) {
  Entailment ent(sys, pointFnsOnly);
  auto a = equalOf("R");
  auto b = image(equalOf("R"), "f", "R");
  EXPECT_TRUE(ent.provePart(unionOf(a, b), "R"));
  EXPECT_TRUE(ent.provePart(dpl::intersectOf(a, b), "R"));
  EXPECT_TRUE(ent.provePart(dpl::subtractOf(a, b), "R"));
}

TEST_F(EntailTest, L7PreimagePreservesCompleteness) {
  Entailment ent(sys, pointFnsOnly);
  EXPECT_TRUE(ent.proveComp(preimage("R", "f", equalOf("S")), "R"));
  // ...but images do not.
  EXPECT_FALSE(ent.proveComp(image(equalOf("S"), "f", "R"), "R"));
}

TEST_F(EntailTest, L7ExcludedForRangeValuedFns) {
  Entailment ent(sys, rangeF);
  EXPECT_FALSE(ent.proveComp(preimage("R", "F", equalOf("S")), "R"));
}

TEST_F(EntailTest, L9L10L12DisjointnessPropagation) {
  Entailment ent(sys, pointFnsOnly);
  auto img = image(equalOf("R"), "f", "S");  // not provably disjoint
  EXPECT_FALSE(ent.proveDisj(img));
  EXPECT_TRUE(ent.proveDisj(dpl::intersectOf(img, equalOf("S"))));
  EXPECT_FALSE(ent.proveDisj(dpl::intersectOf(img, img)));
  EXPECT_TRUE(ent.proveDisj(dpl::subtractOf(equalOf("S"), img)));
  EXPECT_FALSE(ent.proveDisj(dpl::subtractOf(img, equalOf("S"))));
  EXPECT_TRUE(ent.proveDisj(preimage("R", "f", equalOf("S"))));
}

TEST_F(EntailTest, L12ExcludedForRangeValuedFns) {
  Entailment ent(sys, rangeF);
  EXPECT_FALSE(ent.proveDisj(preimage("R", "F", equalOf("S"))));
  EXPECT_TRUE(ent.proveDisj(preimage("R", "f", equalOf("S"))));
}

TEST_F(EntailTest, L6UnionCompleteness) {
  Entailment ent(sys, pointFnsOnly);
  auto img = image(equalOf("S"), "f", "R");
  EXPECT_TRUE(ent.proveComp(unionOf(equalOf("R"), img), "R"));
  EXPECT_TRUE(ent.proveComp(unionOf(img, equalOf("R")), "R"));
  EXPECT_FALSE(ent.proveComp(unionOf(img, img), "R"));
}

TEST_F(EntailTest, ImageOfPreimageSubset) {
  Entailment ent(sys, pointFnsOnly);
  // image(preimage(R, f, equal(S)), f, S) <= equal(S).
  auto pre = preimage("R", "f", equalOf("S"));
  EXPECT_TRUE(ent.proveSubset(image(pre, "f", "S"), equalOf("S")));
  // Not for a different function.
  EXPECT_FALSE(ent.proveSubset(image(pre, "g", "S"), equalOf("S")));
}

TEST_F(EntailTest, SubsetStructuralRules) {
  Entailment ent(sys, pointFnsOnly);
  auto a = equalOf("R");
  auto b = image(equalOf("R"), "f", "R");
  EXPECT_TRUE(ent.proveSubset(dpl::intersectOf(a, b), a));
  EXPECT_TRUE(ent.proveSubset(dpl::subtractOf(a, b), a));
  EXPECT_TRUE(ent.proveSubset(a, unionOf(b, a)));
  EXPECT_TRUE(ent.proveSubset(unionOf(a, a), a));
  EXPECT_FALSE(ent.proveSubset(unionOf(a, b), a));
}

TEST_F(EntailTest, HypothesisSubsetAndTransitivity) {
  sys.declareSymbol("A", "R");
  sys.declareSymbol("B", "R");
  sys.declareSymbol("C", "R");
  sys.addSubset(symbol("A"), symbol("B"));
  sys.addSubset(symbol("B"), symbol("C"));
  Entailment ent(sys, pointFnsOnly);
  EXPECT_TRUE(ent.proveSubset(symbol("A"), symbol("B")));
  EXPECT_TRUE(ent.proveSubset(symbol("A"), symbol("C")));
  EXPECT_FALSE(ent.proveSubset(symbol("C"), symbol("A")));
}

TEST_F(EntailTest, L8DisjointnessFlowsRightToLeft) {
  sys.declareSymbol("A", "R");
  sys.declareSymbol("B", "R");
  sys.addSubset(symbol("A"), symbol("B"));
  sys.addDisj(symbol("B"));
  Entailment ent(sys, pointFnsOnly);
  EXPECT_TRUE(ent.proveDisj(symbol("A")));
  EXPECT_FALSE(ent.proveDisj(symbol("B")) &&
               ent.proveDisj(symbol("C")));  // C unknown
}

TEST_F(EntailTest, L5CompletenessFlowsUpward) {
  sys.declareSymbol("A", "R");
  sys.declareSymbol("B", "R");
  sys.addSubset(symbol("A"), symbol("B"));
  sys.addComp(symbol("A"), "R");
  Entailment ent(sys, pointFnsOnly);
  EXPECT_TRUE(ent.proveComp(symbol("B"), "R"));
}

TEST_F(EntailTest, L14ViaHypothesis) {
  sys.declareSymbol("E1", "R2");
  sys.declareSymbol("E2", "R1");
  sys.addSubset(symbol("E1"), preimage("R2", "f", symbol("E2")));
  Entailment ent(sys, pointFnsOnly);
  EXPECT_TRUE(ent.proveSubset(image(symbol("E1"), "f", "R1"), symbol("E2")));
  // L14 does not hold for range-valued functions.
  Entailment entRange(sys, rangef);
  EXPECT_FALSE(
      entRange.proveSubset(image(symbol("E1"), "f", "R1"), symbol("E2")));
}

TEST_F(EntailTest, LeafCheckProvesEachConjunctFromTheOthers) {
  // The only support for the required COMP is the conjunct itself, which
  // the leaf check must not use as its own hypothesis.
  sys.declareSymbol("pX", "R", /*fixed=*/true);
  sys.addComp(symbol("pX"), "R");
  EXPECT_EQ(checkResolved(sys, {}), "COMP(pX, R)");
  // An assumed copy of the same conjunct is a hypothesis, so it proves it.
  sys.addComp(symbol("pX"), "R", /*assumed=*/true);
  EXPECT_EQ(checkResolved(sys, {}), "");
}

// ---- Solver (Algorithm 2) ----

// Example 2 system: PART(P1,R), COMP(P1,R), DISJ(P1), PART(P2,S),
// image(P1,g,S) <= P2, PART(P3,R), P1 <= P3.
System example2System() {
  System sys;
  sys.declareSymbol("P1", "R");
  sys.addComp(symbol("P1"), "R");
  sys.addDisj(symbol("P1"));
  sys.declareSymbol("P2", "S");
  sys.addSubset(image(symbol("P1"), "g", "S"), symbol("P2"));
  sys.declareSymbol("P3", "R");
  sys.addSubset(symbol("P1"), symbol("P3"));
  return sys;
}

TEST(SolverTest, Example2EqualThenStrengthen) {
  Solver solver(example2System(), {});
  Solution sol = solver.solve();
  ASSERT_TRUE(sol.ok) << sol.failure;
  EXPECT_EQ(sol.assignments.at("P1")->toString(), "equal(R)");
  EXPECT_EQ(sol.assignments.at("P2")->toString(),
            "image(equal(R), g, S)");
  EXPECT_EQ(sol.assignments.at("P3")->toString(), "equal(R)");
  // After CSE the program reads P1 = equal(R); P2 = image(P1,...); P3 = P1,
  // matching the paper's printed solution.
  const std::string prog = sol.program().toString();
  EXPECT_NE(prog.find("P1 = equal(R)"), std::string::npos);
  EXPECT_NE(prog.find("P2 = image(P1, g, S)"), std::string::npos);
  EXPECT_NE(prog.find("P3 = P1"), std::string::npos);
}

TEST(SolverTest, Example3PreimageUnderDisjointness) {
  System sys = example2System();
  sys.addDisj(symbol("P2"));
  Solver solver(sys, {});
  Solution sol = solver.solve();
  ASSERT_TRUE(sol.ok) << sol.failure;
  // The paper's Example 3: P2 = equal(S), P1 = preimage(R, g, P2).
  EXPECT_EQ(sol.assignments.at("P2")->toString(), "equal(S)");
  EXPECT_EQ(sol.assignments.at("P1")->toString(),
            "preimage(R, g, equal(S))");
  const std::string prog = sol.program().toString();
  EXPECT_NE(prog.find("P2 = equal(S)"), std::string::npos);
  EXPECT_NE(prog.find("P1 = preimage(R, g, P2)"), std::string::npos);
}

TEST(SolverTest, Figure2ProgramBShape) {
  // Figure 1c constraints after unification (Fig. 9b):
  //   COMP(P1, Particles), COMP(P2, Cells),
  //   image(P1, cell, Cells) <= P2, image(P2, h, Cells) <= P3.
  System sys;
  sys.declareSymbol("P1", "Particles");
  sys.addComp(symbol("P1"), "Particles");
  sys.declareSymbol("P2", "Cells");
  sys.addComp(symbol("P2"), "Cells");
  sys.addSubset(image(symbol("P1"), "cell", "Cells"), symbol("P2"));
  sys.declareSymbol("P3", "Cells");
  sys.addSubset(image(symbol("P2"), "h", "Cells"), symbol("P3"));

  Solver solver(sys, {});
  Solution sol = solver.solve();
  ASSERT_TRUE(sol.ok) << sol.failure;
  // Program B: P2 = equal(Cells); P1 = preimage(Particles, cell, P2);
  // P3 = image(P2, h, Cells) — 3 constructed partitions, not program A's 5.
  EXPECT_EQ(sol.assignments.at("P2")->toString(), "equal(Cells)");
  EXPECT_EQ(sol.assignments.at("P1")->toString(),
            "preimage(Particles, cell, equal(Cells))");
  EXPECT_EQ(sol.assignments.at("P3")->toString(),
            "image(equal(Cells), h, Cells)");
  EXPECT_EQ(sol.program().constructedPartitions(), 3u);
}

TEST(SolverTest, TrivialSolutionAlwaysExistsForInferredShapes) {
  // A chain with no DISJ/COMP pressure resolves by equal + strengthening.
  System sys;
  sys.declareSymbol("P1", "R");
  sys.addComp(symbol("P1"), "R");
  sys.declareSymbol("P2", "S");
  sys.addSubset(image(symbol("P1"), "f", "S"), symbol("P2"));
  sys.declareSymbol("P3", "T");
  sys.addSubset(image(symbol("P2"), "g", "T"), symbol("P3"));
  Solver solver(sys, {});
  Solution sol = solver.solve();
  ASSERT_TRUE(sol.ok) << sol.failure;
  EXPECT_EQ(sol.assignments.at("P3")->toString(),
            "image(image(equal(R), f, S), g, T)");
}

TEST(SolverTest, MultipleBoundsUnionize) {
  // Two uncentered reads into the same partition symbol.
  System sys;
  sys.declareSymbol("P1", "R");
  sys.addComp(symbol("P1"), "R");
  sys.declareSymbol("P2", "S");
  sys.addSubset(image(symbol("P1"), "f", "S"), symbol("P2"));
  sys.addSubset(image(symbol("P1"), "g", "S"), symbol("P2"));
  Solver solver(sys, {});
  Solution sol = solver.solve();
  ASSERT_TRUE(sol.ok) << sol.failure;
  const std::string p2 = sol.assignments.at("P2")->toString();
  EXPECT_NE(p2.find(" u "), std::string::npos);
  EXPECT_NE(p2.find("image(equal(R), f, S)"), std::string::npos);
  EXPECT_NE(p2.find("image(equal(R), g, S)"), std::string::npos);
}

TEST(SolverTest, Figure11MultipleUncenteredReductionsWithoutRelaxationFails) {
  // Example 7: DISJ(P1) with *two* uncentered reductions through different
  // functions and both reduction partitions forced disjoint: unsolvable
  // (the union of preimages is not provably disjoint).
  System sys;
  sys.declareSymbol("P1", "R");
  sys.addComp(symbol("P1"), "R");
  sys.addDisj(symbol("P1"));
  sys.declareSymbol("P2", "S");
  sys.addSubset(image(symbol("P1"), "f", "S"), symbol("P2"));
  sys.addDisj(symbol("P2"));
  sys.declareSymbol("P3", "S");
  sys.addSubset(image(symbol("P1"), "g", "S"), symbol("P3"));
  sys.addDisj(symbol("P3"));
  Solver solver(sys, {});
  Solution sol = solver.solve();
  EXPECT_FALSE(sol.ok);
}

TEST(SolverTest, Figure11RelaxedFormSolvable) {
  // After the Section 5.1 relaxation the DISJ on the iteration space is
  // dropped, guarded reductions demand disjoint *complete* reduction
  // partitions, and the iteration space must cover their preimages so that
  // every contribution is produced by some task. The solver then uses the
  // union of preimages for P1 (the paper's Example 7 outcome).
  System sys;
  sys.declareSymbol("P1", "R");
  sys.addComp(symbol("P1"), "R");
  sys.declareSymbol("P2", "S");
  sys.addDisj(symbol("P2"));
  sys.addComp(symbol("P2"), "S");
  sys.declareSymbol("P3", "S");
  sys.addDisj(symbol("P3"));
  sys.addComp(symbol("P3"), "S");
  sys.addSubset(preimage("R", "f", symbol("P2")), symbol("P1"));
  sys.addSubset(preimage("R", "g", symbol("P3")), symbol("P1"));
  Solver solver(sys, {});
  Solution sol = solver.solve();
  ASSERT_TRUE(sol.ok) << sol.failure;
  EXPECT_EQ(sol.assignments.at("P2")->toString(), "equal(S)");
  EXPECT_EQ(sol.assignments.at("P3")->toString(), "equal(S)");
  EXPECT_EQ(sol.assignments.at("P1")->toString(),
            "(preimage(R, f, equal(S)) u preimage(R, g, equal(S)))");
}

TEST(SolverTest, ExternalCandidatePreferredOverEqual) {
  // Circuit-style hint: DISJ and COMP asserted on pn_private u pn_shared.
  System ext;
  ext.declareSymbol("pn_private", "rn", /*fixed=*/true);
  ext.declareSymbol("pn_shared", "rn", /*fixed=*/true);
  auto u = unionOf(symbol("pn_private"), symbol("pn_shared"));
  ext.addDisj(u, /*assumed=*/true);
  ext.addComp(u, "rn", /*assumed=*/true);

  System sys;
  sys.declareSymbol("P1", "rn");
  sys.addComp(symbol("P1"), "rn");
  sys.merge(ext, /*assumed=*/true);

  Solver solver(sys, {});
  Solution sol = solver.solve();
  ASSERT_TRUE(sol.ok) << sol.failure;
  EXPECT_EQ(sol.assignments.at("P1")->toString(),
            "(pn_private u pn_shared)");
}

TEST(SolverTest, FixedSymbolsAreNeverAssigned) {
  System sys;
  sys.declareSymbol("pX", "R", /*fixed=*/true);
  sys.declareSymbol("P1", "R");
  sys.addComp(symbol("P1"), "R");
  Solver solver(sys, {});
  Solution sol = solver.solve();
  ASSERT_TRUE(sol.ok) << sol.failure;
  EXPECT_FALSE(sol.assignments.contains("pX"));
}

TEST(SolverTest, SpmvFigure10Program) {
  // Figure 10b: P1 = equal(Y); P2 = image(P1, f_ID, Ranges);
  // P3 = IMAGE(P2, Ranges[.], Mat); P4 = image(P3, Mat[.].ind, X).
  System sys;
  sys.declareSymbol("P1", "Y");
  sys.addComp(symbol("P1"), "Y");
  sys.declareSymbol("P2", "Ranges");
  sys.addSubset(image(symbol("P1"), "f_ID", "Ranges"), symbol("P2"));
  sys.declareSymbol("P3", "Mat");
  sys.addSubset(image(image(symbol("P1"), "f_ID", "Ranges"),
                      "Ranges[.].span", "Mat"),
                symbol("P3"));
  sys.declareSymbol("P4", "X");
  sys.addSubset(image(symbol("P3"), "Mat[.].ind", "X"), symbol("P4"));

  Solver solver(sys, {"Ranges[.].span"});
  Solution sol = solver.solve();
  ASSERT_TRUE(sol.ok) << sol.failure;
  const std::string prog = sol.program().toString();
  EXPECT_NE(prog.find("P1 = equal(Y)"), std::string::npos);
  EXPECT_NE(prog.find("P2 = image(P1, f_ID, Ranges)"), std::string::npos);
  EXPECT_NE(prog.find("P3 = image(P2, Ranges[.].span, Mat)"),
            std::string::npos);
  EXPECT_NE(prog.find("P4 = image(P3, Mat[.].ind, X)"), std::string::npos);
}

TEST(SolverTest, UnsolvableRecursiveConstraintFails) {
  // Section 3.2's recursion example: image(P1, f, R) <= P1 with no fixed
  // partition provided is unsatisfiable in the constraint language.
  System sys;
  sys.declareSymbol("P1", "R");
  sys.addComp(symbol("P1"), "R");
  sys.addSubset(image(symbol("P1"), "f", "R"), symbol("P1"));
  Solver solver(sys, {});
  solver.setMaxSteps(5000);
  Solution sol = solver.solve();
  EXPECT_FALSE(sol.ok);
}

TEST(SolverTest, RecursiveConstraintWithFixedPartitionSolvable) {
  // PENNANT Hint2: recursive constraints on a *fixed* partition are fine —
  // they are user-asserted hypotheses, not synthesis obligations.
  System sys;
  sys.declareSymbol("rs_p", "rs", /*fixed=*/true);
  sys.addSubset(image(symbol("rs_p"), "mapss3", "rs"), symbol("rs_p"),
                /*assumed=*/true);
  sys.declareSymbol("P1", "rs");
  sys.addComp(symbol("P1"), "rs");
  sys.addComp(symbol("rs_p"), "rs", /*assumed=*/true);
  Solver solver(sys, {});
  Solution sol = solver.solve();
  ASSERT_TRUE(sol.ok) << sol.failure;
  EXPECT_EQ(sol.assignments.at("P1")->toString(), "rs_p");
}

}  // namespace
}  // namespace dpart::constraint
