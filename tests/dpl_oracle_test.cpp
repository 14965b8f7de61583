// Brute-force oracle for image and preimage at sizes past one 4096-index
// chunk: every partition the kernels build, serially and on a 4-thread pool,
// must equal a reference the test derives from its own fn tables and its own
// lists of subregion members: every (piece, element) pair the definition
// yields, sorted and deduplicated per piece. The reference never touches
// IndexSet, the owner table or the run index.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "region/dpl_ops.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace dpart::region {
namespace {

constexpr Index kSmall = 3 * detail::kChunkBits + 17;
constexpr Index kLarge = Index{1} << 20;

/// The members of each subregion, ascending: the test's own model of a
/// partition.
using Model = std::vector<std::vector<Index>>;
/// The expected members of each subregion, ascending and duplicate-free.
using Reference = std::vector<std::vector<Index>>;

void sortUnique(Reference& ref) {
  for (std::vector<Index>& members : ref) {
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
  }
}

enum class Map { Monotone, Reversed, DenseRandom, SparseRandom, OutOfRange };
enum class Source { Blocks, Aliased, WithEmpty };

const char* name(Map m) {
  switch (m) {
    case Map::Monotone:
      return "monotone";
    case Map::Reversed:
      return "reversed";
    case Map::DenseRandom:
      return "dense-random";
    case Map::SparseRandom:
      return "sparse-random";
    case Map::OutOfRange:
      return "out-of-range";
  }
  return "?";
}

const char* name(Source s) {
  switch (s) {
    case Source::Blocks:
      return "blocks";
    case Source::Aliased:
      return "aliased";
    case Source::WithEmpty:
      return "with-empty";
  }
  return "?";
}

/// Point fn table S -> T, T of size m.
std::vector<Index> pointTable(Map map, Index n, Index m, Rng& rng) {
  std::vector<Index> to(static_cast<std::size_t>(n));
  for (Index k = 0; k < n; ++k) {
    Index v = 0;
    switch (map) {
      case Map::Monotone:  // an affine shift: CSR-like, ascending
        v = k / 2 + 7;
        break;
      case Map::Reversed:
        v = m - 1 - k;
        break;
      case Map::DenseRandom:
        v = rng.range(0, m);
        break;
      case Map::SparseRandom:
        v = rng.chance(1.0 / 32) ? rng.range(0, m) : -1;
        break;
      case Map::OutOfRange:
        v = rng.range(-m, 2 * m);
        break;
    }
    to[static_cast<std::size_t>(k)] = v;
  }
  return to;
}

/// Range fn table S -> T: empty and inverted runs, runs overhanging either
/// end of T, a few runs spanning several chunks, and short runs otherwise.
std::vector<Run> rangeTable(Index n, Index m, Rng& rng) {
  std::vector<Run> span(static_cast<std::size_t>(n));
  for (Index k = 0; k < n; ++k) {
    const std::uint64_t kind = rng.below(16);
    Index lo = rng.range(0, m);
    Index hi = lo + rng.range(1, 9);
    if (kind == 0) {
      hi = lo;  // empty
    } else if (kind == 1) {
      hi = lo - rng.range(1, 5);  // inverted: empty too
    } else if (kind == 2) {
      lo = -rng.range(1, 40);  // overhangs the low end
      hi = rng.range(-8, 40);
    } else if (kind == 3) {
      lo = m - rng.range(-8, 40);  // overhangs the high end
      hi = m + rng.range(1, 40);
    } else if (kind == 4 && rng.chance(1.0 / 256)) {
      hi = lo + rng.range(2 * detail::kChunkBits, 3 * detail::kChunkBits + 99);
    }
    span[static_cast<std::size_t>(k)] = Run{lo, hi};
  }
  return span;
}

/// A partition of [0, size) into `pieces` subregions, per source kind:
/// contiguous blocks; random subsets, overlapping in about a third of the
/// elements and all holding one common element; or strided subregions with
/// every third one empty.
Model sourceModel(Source source, Index size, std::size_t pieces, Rng& rng) {
  Model model(pieces);
  const auto p = static_cast<Index>(pieces);
  for (Index k = 0; k < size; ++k) {
    switch (source) {
      case Source::Blocks:
        model[static_cast<std::size_t>(k * p / size)].push_back(k);
        break;
      case Source::Aliased: {
        if (k == size / 2) {
          for (std::vector<Index>& members : model) members.push_back(k);
          break;
        }
        const auto a = static_cast<std::size_t>(rng.below(pieces));
        const auto b = static_cast<std::size_t>(rng.below(pieces));
        model[a].push_back(k);
        if (b != a && rng.chance(0.5)) model[b].push_back(k);
        break;
      }
      case Source::WithEmpty: {
        const auto j = static_cast<std::size_t>(k % p);
        if (j % 3 != 1 && !rng.chance(0.1)) model[j].push_back(k);
        break;
      }
    }
  }
  return model;
}

Partition toPartition(const std::string& region, const Model& model) {
  std::vector<IndexSet> subs;
  for (const std::vector<Index>& members : model) {
    subs.push_back(IndexSet::fromIndices(members));
  }
  return Partition(region, std::move(subs));
}

/// Maximal runs of an ascending, duplicate-free vector.
std::vector<Run> runsOf(const std::vector<Index>& v) {
  std::vector<Run> runs;
  for (const Index i : v) {
    if (!runs.empty() && runs.back().hi == i) {
      ++runs.back().hi;
    } else {
      runs.push_back(Run{i, i + 1});
    }
  }
  return runs;
}

void expectEqual(const Partition& got, const Reference& want,
                 const std::string& what) {
  ASSERT_EQ(got.count(), want.size()) << what;
  for (std::size_t j = 0; j < want.size(); ++j) {
    const std::vector<Index>& members = want[j];
    const IndexSet& sub = got.sub(j);
    ASSERT_EQ(sub.toVector(), members) << what << " piece " << j;
    const std::vector<Run> runs = runsOf(members);
    ASSERT_EQ(sub.runCount(), runs.size()) << what << " piece " << j;
    // Canonical containers: the same set assembled from canonical runs.
    ASSERT_EQ(sub, IndexSet::fromRuns(runs)) << what << " piece " << j;
  }
}

/// S (size n) with fields `to` (point, into T) and `span` (range, into T).
struct OracleWorld {
  OracleWorld(Index n, Index m, std::vector<Index> toTable,
              std::vector<Run> spanTable)
      : n(n), m(m), to(std::move(toTable)), span(std::move(spanTable)) {
    Region& s = world.addRegion("S", n);
    world.addRegion("T", m);
    s.addField("to", FieldType::Idx);
    s.addField("span", FieldType::Range);
    std::copy(to.begin(), to.end(), s.idx("to").begin());
    std::copy(span.begin(), span.end(), s.range("span").begin());
    world.defineFieldFn("S", "to", "T");
    world.defineRangeFn("S", "span", "T");
  }

  /// Calls f(t) for every element t of T that S element k maps to.
  template <typename F>
  void forImage(bool ranged, Index k, F&& f) const {
    const auto kk = static_cast<std::size_t>(k);
    if (!ranged) {
      if (to[kk] >= 0 && to[kk] < m) f(to[kk]);
      return;
    }
    for (Index t = std::max<Index>(span[kk].lo, 0);
         t < std::min(span[kk].hi, m); ++t) {
      f(t);
    }
  }

  Reference imageReference(bool ranged, const Model& src) const {
    Reference ref(src.size());
    for (std::size_t j = 0; j < src.size(); ++j) {
      for (const Index k : src[j]) {
        forImage(ranged, k, [&](Index t) { ref[j].push_back(t); });
      }
    }
    sortUnique(ref);
    return ref;
  }

  Reference preimageReference(bool ranged, const Model& dst) const {
    std::vector<std::vector<std::size_t>> holders(static_cast<std::size_t>(m));
    for (std::size_t j = 0; j < dst.size(); ++j) {
      for (const Index t : dst[j]) {
        holders[static_cast<std::size_t>(t)].push_back(j);
      }
    }
    Reference ref(dst.size());
    for (Index k = 0; k < n; ++k) {
      forImage(ranged, k, [&](Index t) {
        for (const std::size_t j : holders[static_cast<std::size_t>(t)]) {
          ref[j].push_back(k);
        }
      });
    }
    sortUnique(ref);
    return ref;
  }

  Index n;
  Index m;
  std::vector<Index> to;
  std::vector<Run> span;
  World world;
};

constexpr Source kSources[] = {Source::Blocks, Source::Aliased,
                               Source::WithEmpty};

/// Image of every source kind at every piece count, serial and pooled.
void checkImage(const OracleWorld& w, bool ranged,
                const std::vector<std::size_t>& pieceCounts,
                std::span<const Source> sources, const std::string& what,
                ThreadPool& pool) {
  const char* fn = ranged ? "S[.].span" : "S[.].to";
  for (const Source source : sources) {
    for (const std::size_t pieces : pieceCounts) {
      Rng rng(pieces * 131 + static_cast<std::uint64_t>(source));
      const Model model = sourceModel(source, w.n, pieces, rng);
      const Partition src = toPartition("S", model);
      const Reference ref = w.imageReference(ranged, model);
      const std::string tag = what + " image " + fn + " source=" +
                              name(source) +
                              " pieces=" + std::to_string(pieces);
      expectEqual(imagePartition(w.world, src, fn, "T"), ref, tag + " serial");
      expectEqual(imagePartition(w.world, src, fn, "T", &pool), ref,
                  tag + " pooled");
    }
  }
}

/// Preimage over every partition kind of T at every piece count.
void checkPreimage(const OracleWorld& w, bool ranged,
                   const std::vector<std::size_t>& pieceCounts,
                   std::span<const Source> sources, const std::string& what,
                   ThreadPool& pool) {
  const char* fn = ranged ? "S[.].span" : "S[.].to";
  for (const Source source : sources) {
    for (const std::size_t pieces : pieceCounts) {
      Rng rng(pieces * 137 + static_cast<std::uint64_t>(source));
      const Model model = sourceModel(source, w.m, pieces, rng);
      const Partition dst = toPartition("T", model);
      const Reference ref = w.preimageReference(ranged, model);
      const std::string tag = what + " preimage " + fn + " source=" +
                              name(source) +
                              " pieces=" + std::to_string(pieces);
      expectEqual(preimagePartition(w.world, "S", fn, dst), ref,
                  tag + " serial");
      expectEqual(preimagePartition(w.world, "S", fn, dst, &pool), ref,
                  tag + " pooled");
    }
  }
}

const std::vector<std::size_t> kPieceCounts = {1, 3, 8, 256};
constexpr Map kMaps[] = {Map::Monotone, Map::Reversed, Map::DenseRandom,
                         Map::SparseRandom, Map::OutOfRange};

TEST(DplOracle, PointImageMatchesBruteForce) {
  ThreadPool pool(4);
  for (const Map map : kMaps) {
    Rng rng(0x1a6e + static_cast<std::uint64_t>(map));
    const OracleWorld w(kSmall, kSmall, pointTable(map, kSmall, kSmall, rng),
                        rangeTable(kSmall, kSmall, rng));
    checkImage(w, /*ranged=*/false, kPieceCounts, kSources, name(map), pool);
  }
}

TEST(DplOracle, PointPreimageMatchesBruteForce) {
  ThreadPool pool(4);
  for (const Map map : kMaps) {
    Rng rng(0x93e1 + static_cast<std::uint64_t>(map));
    const OracleWorld w(kSmall, kSmall, pointTable(map, kSmall, kSmall, rng),
                        rangeTable(kSmall, kSmall, rng));
    checkPreimage(w, /*ranged=*/false, kPieceCounts, kSources, name(map),
                  pool);
  }
}

TEST(DplOracle, RangeImageAndPreimageMatchBruteForce) {
  ThreadPool pool(4);
  Rng rng(0x5a9e);
  const OracleWorld w(kSmall, kSmall,
                      pointTable(Map::Monotone, kSmall, kSmall, rng),
                      rangeTable(kSmall, kSmall, rng));
  checkImage(w, /*ranged=*/true, kPieceCounts, kSources, "ranges", pool);
  checkPreimage(w, /*ranged=*/true, kPieceCounts, kSources, "ranges", pool);
}

// Range preimage over a source whose first subregion holds all of T and
// whose other 255 each hold one interval of up to 300 elements. The first
// subregion's run keeps the run index's prefix maximum at the end of T, so
// each query skips the runs that end before it through the max-hi tree,
// and many earlier runs still reach past the ones it skips.
TEST(DplOracle, RangePreimageUnderALongEarlyRunMatchesBruteForce) {
  ThreadPool pool(4);
  Rng rng(0x10e9);
  const OracleWorld w(kSmall, kSmall,
                      pointTable(Map::Monotone, kSmall, kSmall, rng),
                      rangeTable(kSmall, kSmall, rng));
  Model model(256);
  model[0].resize(static_cast<std::size_t>(w.m));
  std::iota(model[0].begin(), model[0].end(), Index{0});
  for (std::size_t j = 1; j < model.size(); ++j) {
    const Index lo = rng.range(0, w.m);
    model[j].resize(static_cast<std::size_t>(
        std::min(w.m, lo + rng.range(1, 300)) - lo));
    std::iota(model[j].begin(), model[j].end(), lo);
  }
  const Partition dst = toPartition("T", model);
  const Reference ref = w.preimageReference(/*ranged=*/true, model);
  expectEqual(preimagePartition(w.world, "S", "S[.].span", dst), ref,
              "long early run serial");
  expectEqual(preimagePartition(w.world, "S", "S[.].span", dst, &pool), ref,
              "long early run pooled");
}

// One region of 2^20 elements at 256 pieces: a dense random map sends every
// subregion's image into all 256 chunks in random order, so the scatter's
// chunk directory grows by insertion at every position, and bitmap
// containers remain in every chunk.
TEST(DplOracle, MillionElementRegionMatchesBruteForce) {
  ThreadPool pool(4);
  constexpr Source kAliasedBlocks[] = {Source::Blocks, Source::Aliased};
  Rng rng(0x7001);
  const OracleWorld w(kLarge, kLarge,
                      pointTable(Map::DenseRandom, kLarge, kLarge, rng),
                      rangeTable(kLarge, kLarge, rng));
  checkImage(w, /*ranged=*/false, {256}, kAliasedBlocks, "dense-random",
             pool);
  checkPreimage(w, /*ranged=*/false, {256}, kAliasedBlocks, "dense-random",
                pool);
}

// A fn that throws part-way through a subregion leaves what that subregion
// had accumulated in the thread's scratch builder; the next image on the
// same thread must not see it. The strided source gives piece 0 one run per
// element, and the fn throws at its last one.
TEST(DplOracle, ImageAfterAThrowingFnMatchesBruteForce) {
  ThreadPool pool(4);
  Rng rng(0x7e57);
  OracleWorld w(kSmall, kSmall,
                pointTable(Map::DenseRandom, kSmall, kSmall, rng),
                rangeTable(kSmall, kSmall, rng));
  const Model strided = sourceModel(Source::WithEmpty, w.n, 3, rng);
  const Index throwAt = strided[0].back();
  w.world.defineAffineFn("throwing", "S", "T", [&w, throwAt](Index k) {
    if (k == throwAt) throw std::runtime_error("fn failed");
    return w.to[static_cast<std::size_t>(k)];
  });
  const Partition src = toPartition("S", strided);
  EXPECT_THROW(imagePartition(w.world, src, "throwing", "T"),
               std::runtime_error);
  EXPECT_THROW(imagePartition(w.world, src, "throwing", "T", &pool),
               std::runtime_error);
  constexpr Source kBlocks[] = {Source::Blocks};
  checkImage(w, /*ranged=*/false, {3, 256}, kBlocks, "after a throw", pool);
}

// The dense random case must reach what it is meant to: bitmap containers
// holding more than 32 runs in a chunk.
TEST(DplOracle, DenseRandomImageFillsBitmapContainers) {
  Rng rng(0x1a6e + static_cast<std::uint64_t>(Map::DenseRandom));
  const OracleWorld w(kSmall, kSmall,
                      pointTable(Map::DenseRandom, kSmall, kSmall, rng),
                      rangeTable(kSmall, kSmall, rng));
  const Partition image =
      imagePartition(w.world, equalPartition(w.world, "S", 3), "S[.].to", "T");
  for (const IndexSet& sub : image.subregions()) {
    EXPECT_GT(sub.bitmapChunkCount(), 0u);
    EXPECT_GT(sub.runCount(), 32 * sub.chunkCount());
  }
}

}  // namespace
}  // namespace dpart::region
