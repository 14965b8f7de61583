// Soundness of the lemma engine (paper Fig. 8) against ground truth: for
// randomly generated expression trees over randomly partitioned regions,
// anything Entailment proves — PART, DISJ, COMP, or a subset — must hold
// for the actually evaluated partitions. (The prover is deliberately
// incomplete, so no converse check.)

#include <gtest/gtest.h>

#include "constraint/entail.hpp"
#include "dpl/evaluator.hpp"
#include "support/rng.hpp"

namespace dpart::constraint {
namespace {

using dpl::ExprPtr;
using region::Index;
using region::IndexSet;
using region::Partition;
using region::World;

// Every fn here is point-valued (Entailment references this set).
const std::set<std::string> kPointFnsOnly;

struct Ground {
  World world;
  System hypotheses;
  dpl::Evaluator evaluator{world, 3};
  std::vector<ExprPtr> pool;  // generated expressions
  Rng rng{0};

  explicit Ground(std::uint64_t seed) : rng(seed) {
    world.addRegion("R", 24);
    world.addRegion("S", 18);
    table.resize(24);
    for (auto& v : table) v = rng.range(0, 18);
    world.defineAffineFn("f", "R", "S", [this](Index i) {
      return table[static_cast<std::size_t>(i)];
    });
    world.defineAffineFn("g", "S", "R",
                         [](Index i) { return (i * 5 + 1) % 24; });

    // Three bound symbols with random shapes; their true properties are
    // asserted as hypotheses (like user-provided external partitions).
    bind("A", "R");
    bind("B", "R");
    bind("C", "S");
    pool.push_back(dpl::equalOf("R"));
    pool.push_back(dpl::equalOf("S"));
  }

  void bind(const std::string& name, const std::string& regionName) {
    const Index n = world.region(regionName).size();
    std::vector<IndexSet> subs;
    const bool disjoint = rng.chance(0.5);
    IndexSet taken;
    for (int j = 0; j < 3; ++j) {
      std::vector<Index> idx;
      for (Index i = 0; i < n; ++i) {
        if (rng.chance(0.35)) idx.push_back(i);
      }
      IndexSet s = IndexSet::fromIndices(std::move(idx));
      if (disjoint) {
        s = s.subtract(taken);
        taken = taken.unionWith(s);
      }
      subs.push_back(std::move(s));
    }
    Partition p(regionName, std::move(subs));
    hypotheses.declareSymbol(name, regionName, /*fixed=*/true);
    if (p.isDisjoint()) hypotheses.addDisj(dpl::symbol(name), true);
    if (p.isComplete(n)) hypotheses.addComp(dpl::symbol(name), regionName, true);
    evaluator.bind(name, std::move(p));
    pool.push_back(dpl::symbol(name));
  }

  // Random expression of bounded depth over one region.
  ExprPtr randomExpr(int depth) {
    if (depth == 0 || rng.chance(0.3)) {
      return pool[rng.below(pool.size())];
    }
    switch (rng.below(6)) {
      case 0:
        return dpl::unionOf(randomExprOver("R", depth - 1),
                            randomExprOver("R", depth - 1));
      case 1:
        return dpl::intersectOf(randomExprOver("S", depth - 1),
                                randomExprOver("S", depth - 1));
      case 2:
        return dpl::subtractOf(randomExprOver("R", depth - 1),
                               randomExprOver("R", depth - 1));
      case 3:
        return dpl::image(randomExprOver("R", depth - 1), "f", "S");
      case 4:
        return dpl::preimage("R", "f", randomExprOver("S", depth - 1));
      default:
        return dpl::image(randomExprOver("S", depth - 1), "g", "R");
    }
  }

  // Random expression guaranteed to partition `regionName`.
  ExprPtr randomExprOver(const std::string& regionName, int depth) {
    for (int tries = 0; tries < 50; ++tries) {
      ExprPtr e = randomExpr(depth);
      Entailment ent(hypotheses, kPointFnsOnly);
      if (ent.regionOf(e) == regionName) return e;
    }
    return dpl::equalOf(regionName);
  }

  std::vector<Index> table;
};

class EntailSoundnessTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EntailSoundnessTest, ProvenPredicatesHoldOnGroundTruth) {
  Ground ground(GetParam());
  Entailment ent(ground.hypotheses, kPointFnsOnly);
  for (int k = 0; k < 40; ++k) {
    ExprPtr e = ground.randomExpr(3);
    const std::string regionName = ent.regionOf(e);
    if (regionName.empty()) continue;
    Partition p = ground.evaluator.eval(e);
    const Index n = ground.world.region(regionName).size();

    if (ent.provePart(e, regionName)) {
      EXPECT_EQ(p.regionName(), regionName) << e->toString();
      for (std::size_t j = 0; j < p.count(); ++j) {
        EXPECT_TRUE(IndexSet::interval(0, n).containsAll(p.sub(j)))
            << e->toString();
      }
    }
    if (ent.proveDisj(e)) {
      EXPECT_TRUE(p.isDisjoint()) << "proved DISJ but not disjoint: "
                                  << e->toString();
    }
    if (ent.proveComp(e, regionName)) {
      EXPECT_TRUE(p.isComplete(n)) << "proved COMP but not complete: "
                                   << e->toString();
    }
  }
}

TEST_P(EntailSoundnessTest, ProvenSubsetsHoldOnGroundTruth) {
  Ground ground(GetParam() + 1000);
  Entailment ent(ground.hypotheses, kPointFnsOnly);
  int proven = 0;
  for (int k = 0; k < 60; ++k) {
    ExprPtr a = ground.randomExpr(2);
    ExprPtr b = ground.randomExpr(2);
    if (ent.regionOf(a).empty() || ent.regionOf(a) != ent.regionOf(b)) {
      continue;
    }
    if (!ent.proveSubset(a, b)) continue;
    ++proven;
    Partition pa = ground.evaluator.eval(a);
    Partition pb = ground.evaluator.eval(b);
    ASSERT_EQ(pa.count(), pb.count());
    for (std::size_t j = 0; j < pa.count(); ++j) {
      EXPECT_TRUE(pb.sub(j).containsAll(pa.sub(j)))
          << a->toString() << "  <=  " << b->toString();
    }
  }
  // The generator produces plenty of trivially provable pairs (x <= x u y,
  // x n y <= x, ...); make sure the test isn't vacuous.
  EXPECT_GT(proven, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EntailSoundnessTest,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace dpart::constraint
