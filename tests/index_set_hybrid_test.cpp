// Randomized differential suite for the hybrid (run/bitmap chunked) IndexSet
// representation: every operation is checked against a naive sorted-vector
// reference model across sparse, dense, and adversarial input shapes, plus
// directed cases at the container-switch crossover, snapshot round-trips
// of both container kinds, and IndexSetBuilder's scattered input against
// directly assembled canonical runs.

#include "region/index_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "region/snapshot.hpp"
#include "support/rng.hpp"
#include "support/serialize.hpp"

namespace dpart::region {
namespace {

// Inside TEST bodies the unqualified name Run resolves to the inherited
// testing::Test::Run() member, so run-list construction lives in these
// namespace-scope helpers.
using RunVec = std::vector<Run>;

Run makeRun(Index lo, Index hi) { return Run{lo, hi}; }

/// Singleton runs {i, i+1} for i in [lo, hi) stepping by `step`.
RunVec singletons(Index lo, Index hi, Index step) {
  RunVec out;
  for (Index i = lo; i < hi; i += step) out.push_back(Run{i, i + 1});
  return out;
}

// ---- Naive reference model: a sorted vector of indices ----

using Model = std::vector<Index>;

Model modelUnion(const Model& a, const Model& b) {
  Model out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

Model modelIntersect(const Model& a, const Model& b) {
  Model out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

Model modelSubtract(const Model& a, const Model& b) {
  Model out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

bool modelIncludes(const Model& a, const Model& b) {
  return std::includes(a.begin(), a.end(), b.begin(), b.end());
}

bool modelIntersects(const Model& a, const Model& b) {
  return !modelIntersect(a, b).empty();
}

std::size_t modelRunCount(const Model& m) {
  std::size_t runs = 0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i == 0 || m[i] != m[i - 1] + 1) ++runs;
  }
  return runs;
}

/// Full structural audit of one set against its model: cardinality, logical
/// run count, ordering of runs(), per-chunk canonicality (container choice
/// must match the crossover rule), and point membership at the edges.
void auditAgainstModel(const IndexSet& s, const Model& m) {
  ASSERT_EQ(s.size(), static_cast<Index>(m.size()));
  ASSERT_EQ(s.toVector(), m);
  ASSERT_EQ(s.runCount(), modelRunCount(m));
  // runs() must be the canonical (sorted, disjoint, non-adjacent) sequence
  // covering exactly size() elements.
  Index covered = 0;
  const auto runs = s.runs();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    ASSERT_LT(runs[i].lo, runs[i].hi);
    if (i > 0) {
      ASSERT_LT(runs[i - 1].hi, runs[i].lo);
    }
    covered += runs[i].size();
  }
  ASSERT_EQ(covered, s.size());
  ASSERT_EQ(runs.size(), s.runCount());
  // Canonical container rule: every chunk past the crossover is a bitmap,
  // everything at or below it is runs.
  s.visitChunks([](const IndexSet::ChunkView& c) {
    if (!c.words.empty()) {
      ASSERT_TRUE(c.runs.empty());
      ASSERT_EQ(c.words.size(), detail::kChunkWords);
    } else {
      ASSERT_FALSE(c.runs.empty());
      ASSERT_LE(c.runs.size(), detail::kRunCrossover);
    }
  });
  if (!m.empty()) {
    ASSERT_EQ(s.lowerBound(), m.front());
    ASSERT_EQ(s.upperBound(), m.back() + 1);
    ASSERT_TRUE(s.contains(m.front()));
    ASSERT_TRUE(s.contains(m.back()));
    ASSERT_FALSE(s.contains(m.front() - 1));
    ASSERT_FALSE(s.contains(m.back() + 1));
  }
}

// ---- Random input shapes ----

enum class Shape { Sparse, Dense, Blocks, AltSingles, Interval };

Model randomModel(Rng& rng, Shape shape, Index universe) {
  Model m;
  switch (shape) {
    case Shape::Sparse:
      for (Index i = 0; i < universe; ++i) {
        if (rng.chance(1.0 / 64)) m.push_back(i);
      }
      break;
    case Shape::Dense:
      for (Index i = 0; i < universe; ++i) {
        if (rng.chance(0.5)) m.push_back(i);
      }
      break;
    case Shape::Blocks: {
      Index i = 0;
      while (i < universe) {
        const Index len = rng.range(1, 200);
        const Index hi = std::min(universe, i + len);
        if (rng.chance(0.5)) {
          for (Index k = i; k < hi; ++k) m.push_back(k);
        }
        i = hi;
      }
      break;
    }
    case Shape::AltSingles: {
      // Adversarial: alternating singletons, worst case for run containers
      // (maximal run count) — must flip every touched chunk to bitmap.
      const Index phase = rng.range(0, 2);
      for (Index i = phase; i < universe; i += 2) m.push_back(i);
      break;
    }
    case Shape::Interval: {
      const Index lo = rng.range(0, universe);
      const Index hi = rng.range(lo, universe + 1);
      for (Index i = lo; i < hi; ++i) m.push_back(i);
      break;
    }
  }
  return m;
}

IndexSet fromModel(const Model& m) {
  return IndexSet::fromIndices(Model(m));
}

TEST(IndexSetHybrid, DifferentialAgainstModel) {
  constexpr Shape kShapes[] = {Shape::Sparse, Shape::Dense, Shape::Blocks,
                               Shape::AltSingles, Shape::Interval};
  Rng rng(0xc0ffee);
  for (int round = 0; round < 40; ++round) {
    // Universe straddles several chunks so chunk-boundary coalescing and the
    // galloping directory merge both get exercised.
    const Index universe = 3 * detail::kChunkBits + rng.range(0, 1000);
    const Shape sa = kShapes[rng.below(std::size(kShapes))];
    const Shape sb = kShapes[rng.below(std::size(kShapes))];
    const Model ma = randomModel(rng, sa, universe);
    const Model mb = randomModel(rng, sb, universe);
    const IndexSet a = fromModel(ma);
    const IndexSet b = fromModel(mb);
    ASSERT_NO_FATAL_FAILURE(auditAgainstModel(a, ma));
    ASSERT_NO_FATAL_FAILURE(auditAgainstModel(b, mb));

    ASSERT_NO_FATAL_FAILURE(
        auditAgainstModel(a.unionWith(b), modelUnion(ma, mb)));
    ASSERT_NO_FATAL_FAILURE(
        auditAgainstModel(a.intersectWith(b), modelIntersect(ma, mb)));
    ASSERT_NO_FATAL_FAILURE(
        auditAgainstModel(a.subtract(b), modelSubtract(ma, mb)));
    ASSERT_NO_FATAL_FAILURE(
        auditAgainstModel(b.subtract(a), modelSubtract(mb, ma)));

    ASSERT_EQ(a.containsAll(b), modelIncludes(ma, mb));
    ASSERT_EQ(b.containsAll(a), modelIncludes(mb, ma));
    ASSERT_EQ(a.intersects(b), modelIntersects(ma, mb));
    ASSERT_EQ(b.intersects(a), modelIntersects(mb, ma));

    // Algebraic cross-checks that hold for any pair.
    ASSERT_TRUE(a.unionWith(b).containsAll(a));
    ASSERT_TRUE(a.containsAll(a.intersectWith(b)));
    ASSERT_FALSE(a.subtract(b).intersects(b));
    ASSERT_EQ(a.subtract(b).unionWith(a.intersectWith(b)), a);

    // Canonical representation: equal contents compare equal regardless of
    // construction route.
    RunVec viaRuns(a.runs().begin(), a.runs().end());
    ASSERT_EQ(IndexSet::fromRuns(std::move(viaRuns)), a);
  }
}

// ---- IndexSetBuilder: scattered input against canonical assembly ----

/// The test's own canonical form of arbitrary runs: sorted by lo, empty runs
/// dropped, overlapping and adjacent runs coalesced.
RunVec canonicalRuns(RunVec runs) {
  std::sort(runs.begin(), runs.end(),
            [](const Run& a, const Run& b) { return a.lo < b.lo; });
  RunVec out;
  for (const Run& r : runs) {
    if (r.hi <= r.lo) continue;
    if (!out.empty() && r.lo <= out.back().hi) {
      out.back().hi = std::max(out.back().hi, r.hi);
    } else {
      out.push_back(r);
    }
  }
  return out;
}

/// Feeds `runs` to a builder in the given order and checks the result
/// against the canonical runs assembled directly (IndexSet::fromRuns of
/// canonical input never reaches the builder).
void expectBuilderMatchesCanonical(IndexSetBuilder& b, const RunVec& runs) {
  for (const Run& r : runs) {
    if (r.size() == 1) {
      b.add(r.lo);
    } else {
      b.addRun(r.lo, r.hi);
    }
  }
  const IndexSet built = b.build();
  const RunVec canon = canonicalRuns(runs);
  const IndexSet want = IndexSet::fromRuns(canon);
  ASSERT_EQ(built, want);
  ASSERT_EQ(built.runCount(), canon.size());
  ASSERT_EQ(built.chunkCount(), want.chunkCount());
  ASSERT_EQ(built.bitmapChunkCount(), want.bitmapChunkCount());
  Model model;
  for (const Run& r : canon) {
    for (Index i = r.lo; i < r.hi; ++i) model.push_back(i);
  }
  ASSERT_EQ(built.toVector(), model);
}

TEST(IndexSetBuilder, ScatteredInputMatchesCanonicalAssembly) {
  Rng rng(0xb17d);
  IndexSetBuilder b;  // reused across rounds: build() must reset it fully
  for (int round = 0; round < 200; ++round) {
    RunVec runs;
    const auto n = static_cast<std::size_t>(rng.below(120));
    for (std::size_t k = 0; k < n; ++k) {
      // Negative and positive chunks; singletons, short runs, runs ending on
      // a chunk boundary, and runs covering whole chunks.
      const Index lo =
          rng.range(-3 * detail::kChunkBits, 5 * detail::kChunkBits);
      Index len = 1;
      switch (rng.below(5)) {
        case 0:
          len = 1;
          break;
        case 1:
          len = rng.range(0, 12);
          break;
        case 2:
          len = detail::kChunkBits - (lo - detail::chunkIdOf(lo) *
                                               detail::kChunkBits);
          break;
        case 3:
          len = rng.range(detail::kChunkBits, 3 * detail::kChunkBits);
          break;
        default:
          len = rng.range(0, 200);
          break;
      }
      runs.push_back(makeRun(lo, lo + len));
    }
    if (rng.chance(0.3)) {  // an ascending prefix before the first step back
      std::sort(runs.begin(), runs.begin() + static_cast<std::ptrdiff_t>(
                                                 runs.size() / 2),
                [](const auto& x, const auto& y) { return x.lo < y.lo; });
    }
    ASSERT_NO_FATAL_FAILURE(expectBuilderMatchesCanonical(b, runs))
        << "round " << round;
  }
}

TEST(IndexSetBuilder, RunCrossoverInBothDirections) {
  for (std::uint32_t nruns :
       {detail::kRunCrossover, detail::kRunCrossover + 1}) {
    // Descending singletons: scattered into a bitmap, assembled as runs up
    // to the crossover and as a bitmap past it.
    RunVec runs = singletons(0, static_cast<Index>(2 * nruns), 2);
    std::reverse(runs.begin(), runs.end());
    IndexSetBuilder b;
    ASSERT_NO_FATAL_FAILURE(expectBuilderMatchesCanonical(b, runs));
    // Ascending: the run path renders the chunk as a bitmap past it.
    std::reverse(runs.begin(), runs.end());
    ASSERT_NO_FATAL_FAILURE(expectBuilderMatchesCanonical(b, runs));
  }
  // A scattered chunk that passes the crossover and then fills up again
  // assembles back into a single run container.
  RunVec runs = singletons(1, detail::kChunkBits, 2);
  std::reverse(runs.begin(), runs.end());
  runs.push_back(makeRun(0, detail::kChunkBits - 7));
  runs.push_back(makeRun(detail::kChunkBits - 9, detail::kChunkBits));
  IndexSetBuilder b;
  for (const auto& r : runs) b.addRun(r.lo, r.hi);
  const IndexSet full = b.build();
  EXPECT_EQ(full, IndexSet::interval(0, detail::kChunkBits));
  EXPECT_EQ(full.bitmapChunkCount(), 0u);
}

TEST(IndexSetBuilder, NegativeIndicesUseFloorChunkIds) {
  const RunVec runs = {makeRun(5, 6),
                       makeRun(-1, 0),
                       makeRun(-detail::kChunkBits - 1, -detail::kChunkBits),
                       makeRun(-detail::kChunkBits, -detail::kChunkBits + 3),
                       makeRun(-2 * detail::kChunkBits,
                               -detail::kChunkBits - 1),
                       makeRun(-3, 5)};
  IndexSetBuilder b;
  ASSERT_NO_FATAL_FAILURE(expectBuilderMatchesCanonical(b, runs));
}

TEST(IndexSetBuilder, RunsAdjacentAcrossAChunkBoundaryCoalesce) {
  const Index edge = 2 * detail::kChunkBits;
  IndexSetBuilder b;
  b.addRun(edge, edge + 4);
  b.addRun(edge - 6, edge);  // steps back: scatter mode
  b.add(edge - 100);
  const IndexSet s = b.build();
  EXPECT_EQ(s.chunkCount(), 2u);
  EXPECT_EQ(s.runCount(), 2u);
  ASSERT_EQ(s.runs().size(), 2u);
  EXPECT_EQ(s.runs()[1], makeRun(edge - 6, edge + 4));
}

TEST(IndexSetBuilder, RunsCoveringWholeChunksAfterScatter) {
  IndexSetBuilder b;
  // Step back first, then a run covering chunks 1..4 whole, with a partial
  // head in chunk 0 and a partial tail in chunk 5; then bits inside a full
  // chunk, and a run covering chunk 0 (a bitmap by now) whole.
  const RunVec runs = {makeRun(90, 91),
                       makeRun(7, 8),
                       makeRun(100, 5 * detail::kChunkBits + 7),
                       makeRun(2 * detail::kChunkBits + 3,
                               2 * detail::kChunkBits + 5),
                       makeRun(0, detail::kChunkBits),
                       makeRun(9 * detail::kChunkBits,
                               9 * detail::kChunkBits + 1),
                       makeRun(6 * detail::kChunkBits, 9 * detail::kChunkBits)};
  ASSERT_NO_FATAL_FAILURE(expectBuilderMatchesCanonical(b, runs));
}

TEST(IndexSetHybrid, ContainerSwitchBoundary) {
  // Exactly kRunCrossover chunk-local runs must stay a run container; one
  // more must switch to a bitmap. Singleton runs spaced by 2 give precise
  // control of the chunk-local run count.
  for (std::uint32_t nruns :
       {detail::kRunCrossover, detail::kRunCrossover + 1}) {
    const RunVec runs = singletons(0, static_cast<Index>(2 * nruns), 2);
    ASSERT_EQ(runs.size(), nruns);
    const IndexSet s = IndexSet::fromRuns(runs);
    ASSERT_EQ(s.chunkCount(), 1u);
    EXPECT_EQ(s.bitmapChunkCount(), nruns > detail::kRunCrossover ? 1u : 0u);
    EXPECT_EQ(s.runCount(), nruns);
    EXPECT_EQ(s.size(), static_cast<Index>(nruns));
  }
}

TEST(IndexSetHybrid, OpResultsConvertBackAcrossCrossover) {
  // a: alternating singletons (bitmap chunk); removing the odd singletons
  // leaves one run — the result must convert back to a run container.
  const IndexSet evens = IndexSet::fromRuns(singletons(0, detail::kChunkBits, 2));
  ASSERT_EQ(evens.bitmapChunkCount(), 1u);

  // Union with the odds fills the chunk: dense but 1 run -> run container.
  const IndexSet odds = IndexSet::fromRuns(singletons(1, detail::kChunkBits, 2));
  const IndexSet full = evens.unionWith(odds);
  EXPECT_EQ(full, IndexSet::interval(0, detail::kChunkBits));
  EXPECT_EQ(full.bitmapChunkCount(), 0u);
  EXPECT_EQ(full.runCount(), 1u);

  // Subtracting the evens from the full interval reproduces the odds, which
  // must flip back to a bitmap container.
  const IndexSet backToOdds = full.subtract(evens);
  EXPECT_EQ(backToOdds, odds);
  EXPECT_EQ(backToOdds.bitmapChunkCount(), 1u);
}

TEST(IndexSetHybrid, RunsSplitAcrossChunkBoundariesStayLogical) {
  // One logical run spanning three chunks: physically split per chunk, but
  // runCount()/runs() must still report a single run.
  const Index lo = detail::kChunkBits / 2;
  const Index hi = 5 * detail::kChunkBits / 2;
  const IndexSet s = IndexSet::interval(lo, hi);
  EXPECT_EQ(s.chunkCount(), 3u);
  EXPECT_EQ(s.runCount(), 1u);
  ASSERT_EQ(s.runs().size(), 1u);
  EXPECT_EQ(s.runs()[0], makeRun(lo, hi));
  EXPECT_EQ(s, IndexSet::fromIndices(s.toVector()));
}

TEST(IndexSetHybrid, NegativeIndicesUseFloorChunkIds) {
  const IndexSet s = IndexSet::interval(-detail::kChunkBits - 5, 7);
  EXPECT_EQ(s.runCount(), 1u);
  EXPECT_EQ(s.size(), detail::kChunkBits + 12);
  EXPECT_TRUE(s.contains(-detail::kChunkBits - 5));
  EXPECT_TRUE(s.contains(-1));
  EXPECT_TRUE(s.contains(6));
  EXPECT_FALSE(s.contains(7));
  EXPECT_FALSE(s.contains(-detail::kChunkBits - 6));
  EXPECT_EQ(s.lowerBound(), -detail::kChunkBits - 5);
  EXPECT_EQ(s.upperBound(), 7);
}

TEST(IndexSetHybrid, SnapshotRoundTripBothContainerKinds) {
  // One set holding a run chunk, a bitmap chunk, and a chunk-spanning run:
  // the v2 encoding must reproduce it bit-exactly through the framed binary
  // stream, for both the run-list and the chunked form.
  RunVec runs;
  runs.push_back(makeRun(10, 40));  // sparse chunk 0: run container
  // chunk 1: alternating singletons -> bitmap container
  const RunVec alt = singletons(detail::kChunkBits, 2 * detail::kChunkBits, 2);
  runs.insert(runs.end(), alt.begin(), alt.end());
  runs.push_back(makeRun(2 * detail::kChunkBits + 100,
                         4 * detail::kChunkBits - 100));  // spans chunks 2..3
  const IndexSet original = IndexSet::fromRuns(std::move(runs));
  ASSERT_GT(original.bitmapChunkCount(), 0u);
  ASSERT_LT(original.bitmapChunkCount(), original.chunkCount());

  BinaryWriter w;
  writeIndexSet(w, original);
  const std::vector<std::uint8_t> payload = w.take();
  BinaryReader r(payload);
  const IndexSet restored = readIndexSet(r);
  r.expectEnd();
  EXPECT_EQ(restored, original);
  EXPECT_EQ(restored.bitmapChunkCount(), original.bitmapChunkCount());

  // Pure-run set round-trips through the compact run-list encoding.
  const IndexSet interval = IndexSet::interval(0, 1'000'000);
  BinaryWriter w2;
  writeIndexSet(w2, interval);
  EXPECT_LT(w2.size(), 100u);  // no bitmap explosion for interval data
  const std::vector<std::uint8_t> payload2 = w2.take();
  BinaryReader r2(payload2);
  EXPECT_EQ(readIndexSet(r2), interval);
}

TEST(IndexSetHybrid, V1RunLengthStreamStillDecodes) {
  // A hand-built v1 payload (bare run list, no container tag) must decode
  // once the reader is branched to the old format version.
  BinaryWriter w;
  w.u64(2);
  w.i64(3);
  w.i64(8);
  w.i64(4096);
  w.i64(4100);
  const std::vector<std::uint8_t> payload = w.take();
  BinaryReader r(payload);
  r.setFormatVersion(1);
  const IndexSet decoded = readIndexSet(r);
  r.expectEnd();
  EXPECT_EQ(decoded,
            IndexSet::fromRuns({{3, 8}, {4096, 4100}}));
}

TEST(IndexSetHybrid, StatsCountersAdvance) {
  const IndexSet::Stats before = IndexSet::stats();
  // Alternating singletons: the chunk switches to a bitmap container.
  const IndexSet a = IndexSet::fromRuns(singletons(0, detail::kChunkBits, 2));
  const IndexSet b = IndexSet::interval(0, detail::kChunkBits);
  const IndexSet both = a.intersectWith(b);  // bitmap path: word-at-a-time
  EXPECT_EQ(both, a);
  const IndexSet::Stats after = IndexSet::stats();
  EXPECT_GT(after.containerSwitches, before.containerSwitches);
  EXPECT_GT(after.bitmapOpWords, before.bitmapOpWords);
}

TEST(IndexSetHybrid, LazyRunsCacheIsStableAndCopied) {
  const IndexSet s =
      IndexSet::fromRuns(singletons(0, 3 * detail::kChunkBits, 2));
  ASSERT_GT(s.bitmapChunkCount(), 0u);
  const auto first = s.runs();
  const auto second = s.runs();
  EXPECT_EQ(first.data(), second.data());  // cached, not rebuilt
  IndexSet copy = s;  // copies contents, not the cache
  EXPECT_EQ(copy, s);
  EXPECT_EQ(RunVec(copy.runs().begin(), copy.runs().end()),
            RunVec(first.begin(), first.end()));
  const IndexSet moved = std::move(copy);
  EXPECT_EQ(moved, s);
}

}  // namespace
}  // namespace dpart::region
