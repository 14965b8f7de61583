#include "region/index_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "region/arena.hpp"
#include "region/dpl_ops.hpp"
#include "support/rng.hpp"

namespace dpart::region {
namespace {

TEST(IndexSet, DefaultIsEmpty) {
  IndexSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0);
  EXPECT_EQ(s.runCount(), 0u);
  EXPECT_FALSE(s.contains(0));
}

TEST(IndexSet, IntervalBasics) {
  IndexSet s = IndexSet::interval(3, 8);
  EXPECT_EQ(s.size(), 5);
  EXPECT_EQ(s.runCount(), 1u);
  EXPECT_EQ(s.lowerBound(), 3);
  EXPECT_EQ(s.upperBound(), 8);
  EXPECT_FALSE(s.contains(2));
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(7));
  EXPECT_FALSE(s.contains(8));
}

TEST(IndexSet, EmptyInterval) {
  EXPECT_TRUE(IndexSet::interval(5, 5).empty());
  EXPECT_TRUE(IndexSet::interval(5, 2).empty());
}

TEST(IndexSet, FromIndicesSortsAndDedups) {
  IndexSet s = IndexSet::fromIndices({5, 1, 2, 2, 3, 9, 1});
  EXPECT_EQ(s.size(), 5);
  EXPECT_EQ(s.toVector(), (std::vector<Index>{1, 2, 3, 5, 9}));
  EXPECT_EQ(s.runCount(), 3u);  // [1,4) {5} {9}
}

TEST(IndexSet, InitializerList) {
  IndexSet s{4, 0, 1};
  EXPECT_EQ(s.toVector(), (std::vector<Index>{0, 1, 4}));
}

TEST(IndexSet, FromRunsCoalescesOverlapsAndAdjacency) {
  IndexSet s = IndexSet::fromRuns({{0, 3}, {3, 5}, {7, 9}, {8, 12}});
  EXPECT_EQ(s.runCount(), 2u);
  EXPECT_EQ(s, IndexSet::interval(0, 5).unionWith(IndexSet::interval(7, 12)));
}

TEST(IndexSet, UnionBasic) {
  IndexSet a = IndexSet::interval(0, 4);
  IndexSet b = IndexSet::interval(2, 8);
  EXPECT_EQ(a.unionWith(b), IndexSet::interval(0, 8));
}

TEST(IndexSet, UnionDisjointKeepsRuns) {
  IndexSet a = IndexSet::interval(0, 2);
  IndexSet b = IndexSet::interval(5, 7);
  IndexSet u = a.unionWith(b);
  EXPECT_EQ(u.size(), 4);
  EXPECT_EQ(u.runCount(), 2u);
}

TEST(IndexSet, IntersectBasic) {
  IndexSet a = IndexSet::fromRuns({{0, 5}, {10, 15}});
  IndexSet b = IndexSet::fromRuns({{3, 12}});
  EXPECT_EQ(a.intersectWith(b), IndexSet::fromRuns({{3, 5}, {10, 12}}));
}

TEST(IndexSet, IntersectEmpty) {
  IndexSet a = IndexSet::interval(0, 5);
  IndexSet b = IndexSet::interval(5, 10);
  EXPECT_TRUE(a.intersectWith(b).empty());
  EXPECT_FALSE(a.intersects(b));
}

TEST(IndexSet, SubtractCarvesHoles) {
  IndexSet a = IndexSet::interval(0, 10);
  IndexSet b = IndexSet::fromRuns({{2, 4}, {6, 7}});
  EXPECT_EQ(a.subtract(b), IndexSet::fromRuns({{0, 2}, {4, 6}, {7, 10}}));
}

TEST(IndexSet, SubtractAll) {
  IndexSet a = IndexSet::interval(3, 6);
  EXPECT_TRUE(a.subtract(IndexSet::interval(0, 100)).empty());
}

TEST(IndexSet, ContainsAll) {
  IndexSet a = IndexSet::fromRuns({{0, 10}, {20, 30}});
  EXPECT_TRUE(a.containsAll(IndexSet::fromRuns({{2, 5}, {25, 30}})));
  EXPECT_FALSE(a.containsAll(IndexSet::fromRuns({{5, 12}})));
  EXPECT_TRUE(a.containsAll(IndexSet{}));
  EXPECT_FALSE(IndexSet{}.containsAll(a));
}

TEST(IndexSet, ToStringFormat) {
  IndexSet s = IndexSet::fromRuns({{0, 4}, {7, 8}});
  EXPECT_EQ(s.toString(), "{[0,4) 7}");
}

TEST(IndexSetBuilder, AscendingFastPath) {
  IndexSetBuilder b;
  for (Index i = 0; i < 10; ++i) b.add(i * 2);
  IndexSet s = b.build();
  EXPECT_EQ(s.size(), 10);
  EXPECT_EQ(s.runCount(), 10u);
}

TEST(IndexSetBuilder, AdjacentCoalesce) {
  IndexSetBuilder b;
  b.add(0);
  b.add(1);
  b.addRun(2, 5);
  IndexSet s = b.build();
  EXPECT_EQ(s, IndexSet::interval(0, 5));
  EXPECT_EQ(s.runCount(), 1u);
}

TEST(IndexSetBuilder, UnsortedInput) {
  IndexSetBuilder b;
  b.add(9);
  b.add(1);
  b.addRun(3, 6);
  b.add(2);
  EXPECT_EQ(b.build(), IndexSet::fromIndices({1, 2, 3, 4, 5, 9}));
}

TEST(IndexSetBuilder, DuplicatesAndOverlapsCollapse) {
  IndexSetBuilder b;
  b.add(7);
  b.add(7);
  b.addRun(3, 9);
  b.add(4);
  b.addRun(2, 5);
  b.add(9);
  b.add(7);
  const IndexSet s = b.build();
  EXPECT_EQ(s, IndexSet::interval(2, 10));
  EXPECT_EQ(s.runCount(), 1u);
}

TEST(IndexSetBuilder, ReuseAfterBuildOrClear) {
  IndexSetBuilder b;
  b.add(5000);
  b.add(3);  // steps back: scatter mode
  EXPECT_EQ(b.build(), IndexSet({3, 5000}));
  // Nothing of the scattered set survives: an ascending set follows.
  b.addRun(10, 20);
  b.add(20);
  EXPECT_EQ(b.build(), IndexSet::interval(10, 21));
  // And a scattered one again, touching the chunk used before.
  b.add(5001);
  b.add(4);
  EXPECT_EQ(b.build(), IndexSet({4, 5001}));
  EXPECT_TRUE(b.build().empty());
  // clear() drops what is pending in either mode, and a later scatter over
  // the same chunks starts from empty bitmaps.
  b.add(9000);
  b.add(1);
  b.clear();
  b.add(9001);
  b.add(2);
  EXPECT_EQ(b.build(), IndexSet({2, 9001}));
  b.addRun(50, 60);
  b.clear();
  EXPECT_TRUE(b.build().empty());
}

// The scatter's scratch is bounded by the chunks touched, not by the span of
// the input: 1,000 non-monotone points over 2^31 indices touch at most 1,000
// chunks (512 KiB of bitmaps), where a bitmap over the span would need
// 256 MiB.
TEST(IndexSetBuilder, ScratchIsBoundedByTheChunksTouched) {
  constexpr Index kSpan = Index{1} << 31;
  constexpr std::size_t kPoints = 1000;
  constexpr std::size_t kBound = 4u << 20;  // 4 MiB
  Rng rng(0x5ca7);
  std::vector<Index> points;
  for (std::size_t k = 0; k < kPoints; ++k) {
    points.push_back(rng.range(0, kSpan));
  }
  IndexSetBuilder b;
  for (const Index i : points) b.add(i);
  const IndexSet s = b.build();
  EXPECT_LT(b.scratchBytes(), kBound);
  std::vector<Index> sorted = points;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_EQ(s.toVector(), sorted);

  // The serial image path feeds the calling thread's arena builder.
  World world;
  Region& src = world.addRegion("Src", static_cast<Index>(kPoints));
  world.addRegion("Dst", kSpan);
  src.addField("to", FieldType::Idx);
  std::copy(points.begin(), points.end(), src.idx("to").begin());
  world.defineFieldFn("Src", "to", "Dst");
  const Partition image = imagePartition(
      world, equalPartition(world, "Src", 1), "Src[.].to", "Dst");
  EXPECT_EQ(image.sub(0).toVector(), sorted);
  EXPECT_LT(ScratchArena::local().builder.scratchBytes(), kBound);
}

// ---- Property tests: IndexSet ops agree with std::set reference ----

class IndexSetPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static IndexSet randomSet(Rng& rng, std::set<Index>& ref) {
    std::vector<Index> v;
    const int n = static_cast<int>(rng.below(40));
    for (int i = 0; i < n; ++i) {
      Index x = rng.range(0, 64);
      v.push_back(x);
      ref.insert(x);
    }
    return IndexSet::fromIndices(std::move(v));
  }
};

TEST_P(IndexSetPropertyTest, SetAlgebraMatchesStdSet) {
  Rng rng(GetParam());
  std::set<Index> ra, rb;
  IndexSet a = randomSet(rng, ra);
  IndexSet b = randomSet(rng, rb);

  std::set<Index> runion = ra;
  runion.insert(rb.begin(), rb.end());
  std::set<Index> rinter, rdiff;
  std::set_intersection(ra.begin(), ra.end(), rb.begin(), rb.end(),
                        std::inserter(rinter, rinter.end()));
  std::set_difference(ra.begin(), ra.end(), rb.begin(), rb.end(),
                      std::inserter(rdiff, rdiff.end()));

  auto toVec = [](const std::set<Index>& s) {
    return std::vector<Index>(s.begin(), s.end());
  };
  EXPECT_EQ(a.unionWith(b).toVector(), toVec(runion));
  EXPECT_EQ(a.intersectWith(b).toVector(), toVec(rinter));
  EXPECT_EQ(a.subtract(b).toVector(), toVec(rdiff));
  EXPECT_EQ(a.intersects(b), !rinter.empty());
  EXPECT_EQ(a.containsAll(b),
            std::includes(ra.begin(), ra.end(), rb.begin(), rb.end()));
  for (Index i = 0; i < 64; ++i) {
    EXPECT_EQ(a.contains(i), ra.contains(i)) << "index " << i;
  }
}

TEST_P(IndexSetPropertyTest, AlgebraicIdentities) {
  Rng rng(GetParam() * 7919 + 13);
  std::set<Index> ra, rb, rc;
  IndexSet a = randomSet(rng, ra);
  IndexSet b = randomSet(rng, rb);
  IndexSet c = randomSet(rng, rc);

  // Commutativity / associativity / distributivity / De Morgan-ish.
  EXPECT_EQ(a.unionWith(b), b.unionWith(a));
  EXPECT_EQ(a.intersectWith(b), b.intersectWith(a));
  EXPECT_EQ(a.unionWith(b).unionWith(c), a.unionWith(b.unionWith(c)));
  EXPECT_EQ(a.intersectWith(b.unionWith(c)),
            a.intersectWith(b).unionWith(a.intersectWith(c)));
  EXPECT_EQ(a.subtract(b).subtract(c), a.subtract(b.unionWith(c)));
  // a = (a-b) u (a n b), disjointly.
  EXPECT_EQ(a.subtract(b).unionWith(a.intersectWith(b)), a);
  EXPECT_FALSE(a.subtract(b).intersects(b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexSetPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace dpart::region
