#include "region/dpl_ops.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
#include <vector>

#include "region/arena.hpp"
#include "region/owner_table.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"

namespace dpart::region {

namespace {

// Interval index over the runs of a partition, for range-valued preimage:
// "which subregions overlap run [a,b)" without a scan. Immutable after
// construction, so the sharded preimage scan shares one instance across
// workers.
class RunIndex {
 public:
  explicit RunIndex(const Partition& p) {
    std::vector<std::size_t> bounds{0};
    for (std::size_t j = 0; j < p.count(); ++j) {
      for (const Run& r : p.sub(j).runs()) entries_.push_back({r, j});
      bounds.push_back(entries_.size());
    }
    // Each subregion's runs already ascend: merging the lists pairwise
    // orders all entries by lo in O(runs * log(pieces)).
    const auto byLo = [](const Entry& a, const Entry& b) {
      return a.run.lo < b.run.lo;
    };
    std::vector<Entry> merged(entries_.size());
    const std::size_t n = p.count();
    for (std::size_t width = 1; width < n; width *= 2) {
      const auto at = [&](std::size_t list) {
        return static_cast<std::ptrdiff_t>(bounds[std::min(list, n)]);
      };
      for (std::size_t b = 0; b < n; b += 2 * width) {
        std::merge(entries_.begin() + at(b), entries_.begin() + at(b + width),
                   entries_.begin() + at(b + width),
                   entries_.begin() + at(b + 2 * width),
                   merged.begin() + at(b), byLo);
      }
      entries_.swap(merged);
    }
    // maxHiPrefix_[i] = max hi over entries_[0..i]: a walk left stops once
    // no earlier run reaches the query. maxHi_ is a max-hi tree over the
    // entries (leaf i at leaves_ + i) that skips the runs ending before the
    // query which one long early run keeps the prefix maximum above.
    maxHiPrefix_.resize(entries_.size());
    Index maxHi = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      maxHi = std::max(maxHi, entries_[i].run.hi);
      maxHiPrefix_[i] = maxHi;
    }
    leaves_ = std::bit_ceil(std::max<std::size_t>(entries_.size(), 1));
    maxHi_.assign(2 * leaves_, std::numeric_limits<Index>::min());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      maxHi_[leaves_ + i] = entries_[i].run.hi;
    }
    for (std::size_t i = leaves_ - 1; i > 0; --i) {
      maxHi_[i] = std::max(maxHi_[2 * i], maxHi_[2 * i + 1]);
    }
  }

  // Calls visit(j) for each subregion j whose index set intersects [a, b).
  // A subregion is reported once per overlapping run. Walking left from
  // the first run that starts at or after b costs O(1) per overlap and
  // O(log runs) per stretch of runs that end by a.
  template <typename Visit>
  void forOverlaps(Index a, Index b, Visit&& visit) const {
    if (entries_.empty() || b <= a) return;
    auto pos = static_cast<std::size_t>(
        std::lower_bound(entries_.begin(), entries_.end(), b,
                         [](const Entry& e, Index v) { return e.run.lo < v; }) -
        entries_.begin());
    while (pos > 0 && maxHiPrefix_[pos - 1] > a) {
      const Entry& e = entries_[pos - 1];
      if (e.run.hi > a) {
        visit(e.owner);
        --pos;
      } else {
        pos = lastReachingPast(pos - 1, a) + 1;
      }
    }
  }

 private:
  struct Entry {
    Run run;
    std::size_t owner;
  };

  // The last entry before `end` whose run ends after a; one must exist.
  std::size_t lastReachingPast(std::size_t end, Index a) const {
    std::size_t node = leaves_ + end - 1;
    while (maxHi_[node] <= a) {
      while (node % 2 == 0) node /= 2;  // a left child: its parent's left
      --node;                           // neighbor is the next one left
    }
    while (node < leaves_) {
      node = maxHi_[2 * node + 1] > a ? 2 * node + 1 : 2 * node;
    }
    return node - leaves_;
  }

  std::vector<Entry> entries_;
  std::vector<Index> maxHiPrefix_;
  std::size_t leaves_ = 0;
  std::vector<Index> maxHi_;
};

// Runs fn(0..n-1), fanning out across the pool when one is supplied.
template <typename Fn>
void forSubtasks(ThreadPool* pool, std::size_t n, Fn&& fn) {
  if (pool != nullptr && n > 1) {
    pool->parallelFor(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace

Partition equalPartition(const World& world, const std::string& regionName,
                         std::size_t pieces) {
  DPART_CHECK(pieces > 0, "equal() needs at least one piece");
  const Index n = world.region(regionName).size();
  std::vector<IndexSet> subs;
  subs.reserve(pieces);
  const Index base = n / static_cast<Index>(pieces);
  const Index rem = n % static_cast<Index>(pieces);
  Index lo = 0;
  for (std::size_t j = 0; j < pieces; ++j) {
    const Index len = base + (static_cast<Index>(j) < rem ? 1 : 0);
    subs.push_back(IndexSet::interval(lo, lo + len));
    lo += len;
  }
  return Partition(regionName, std::move(subs));
}

Partition equalWeighted(const World& world, const std::string& regionName,
                        std::span<const double> weights, std::size_t pieces) {
  DPART_CHECK(pieces > 0, "equalWeighted() needs at least one piece");
  const Index n = world.region(regionName).size();
  DPART_CHECK(static_cast<Index>(weights.size()) == n,
              "equalWeighted() needs one weight per index of '" + regionName +
                  "' (got " + std::to_string(weights.size()) + ", region has " +
                  std::to_string(n) + ")");

  // prefix[k] = sum of clamped weights [0, k). All-zero weight mass carries
  // no balance signal, so it degrades to the unweighted operator.
  std::vector<double> prefix(static_cast<std::size_t>(n) + 1, 0.0);
  for (Index i = 0; i < n; ++i) {
    const double w = weights[static_cast<std::size_t>(i)];
    prefix[static_cast<std::size_t>(i) + 1] =
        prefix[static_cast<std::size_t>(i)] + (w > 0 ? w : 0.0);
  }
  const double total = prefix.back();
  if (total <= 0) return equalPartition(world, regionName, pieces);

  std::vector<IndexSet> subs;
  subs.reserve(pieces);
  Index lo = 0;
  for (std::size_t j = 0; j < pieces; ++j) {
    Index hi;
    if (j + 1 == pieces) {
      hi = n;  // last piece absorbs the remainder exactly
    } else if (lo >= n) {
      hi = n;  // more pieces than indices: trailing pieces are empty
    } else {
      // First index whose weight prefix reaches this cut's share of the
      // total. Searching from lo+1 keeps the piece non-empty even through
      // zero-weight stretches.
      const double target =
          total * static_cast<double>(j + 1) / static_cast<double>(pieces);
      const auto cut = std::lower_bound(
          prefix.begin() + static_cast<std::ptrdiff_t>(lo) + 1, prefix.end(),
          target);
      hi = std::min<Index>(static_cast<Index>(cut - prefix.begin()), n);
      // Leave at least one index for each remaining piece when enough
      // indices remain (mirrors equal's no-gratuitously-empty-pieces shape).
      const Index remaining = static_cast<Index>(pieces - 1 - j);
      if (n - remaining > lo) hi = std::min(hi, n - remaining);
      hi = std::max(hi, std::min<Index>(n, lo + 1));
    }
    subs.push_back(IndexSet::interval(lo, hi));
    lo = hi;
  }
  return Partition(regionName, std::move(subs));
}

Partition imagePartition(const World& world, const Partition& src,
                         const std::string& fnId,
                         const std::string& targetRegion, ThreadPool* pool) {
  const FnDef& f = world.fn(fnId);
  const BatchFn fn(world, f);
  const Index targetSize = world.region(targetRegion).size();
  std::vector<IndexSet> subs(src.count());
  forSubtasks(pool, src.count(), [&](std::size_t j) {
    ScratchArena& arena = ScratchArena::local();
    IndexSetBuilder& out = arena.builder;
    out.clear();  // a throwing fn can leave an earlier piece unfinished
    if (f.isRangeValued()) {
      std::vector<Run>& vals = arena.runVals;
      for (const Run& r : src.sub(j).runs()) {
        vals.resize(static_cast<std::size_t>(r.size()));
        fn.ranges(r, vals);
        for (const Run& v : vals) {
          out.addRun(std::max<Index>(v.lo, 0), std::min(v.hi, targetSize));
        }
      }
    } else {
      std::vector<Index>& vals = arena.indexVals;
      for (const Run& r : src.sub(j).runs()) {
        vals.resize(static_cast<std::size_t>(r.size()));
        fn.points(r, vals);
        for (const Index v : vals) {
          if (v >= 0 && v < targetSize) out.add(v);
        }
      }
    }
    subs[j] = out.build();
  });
  return Partition(targetRegion, std::move(subs));
}

Partition preimagePartition(const World& world,
                            const std::string& targetRegion,
                            const std::string& fnId, const Partition& src,
                            ThreadPool* pool) {
  const FnDef& f = world.fn(fnId);
  const BatchFn fn(world, f);
  const Index targetSize = world.region(targetRegion).size();
  // A point value is looked up in the source's owner table (O(k) for an
  // element held by k subregions); a range value queries the run index.
  std::optional<OwnerTable> owners;
  std::optional<RunIndex> overlaps;
  if (f.isRangeValued()) {
    overlaps.emplace(src);
  } else {
    owners.emplace(src, /*firstClaim=*/false);
  }

  // Shard the target scan. Oversubscribing the pool keeps workers busy when
  // owners cluster in one part of the target (e.g. the shared-node prefix of
  // the Circuit layout).
  std::size_t shards = 1;
  if (pool != nullptr && targetSize > 0) {
    shards = std::min<std::size_t>(pool->threadCount() * 4,
                                   static_cast<std::size_t>(targetSize));
  }

  // shardRuns[s][owner]: runs of target indices owned by `owner` found in
  // shard s. Shards cover ascending disjoint intervals of the target, so
  // concatenating a given owner's runs in shard order keeps them sorted.
  std::vector<std::vector<std::vector<Run>>> shardRuns(
      shards, std::vector<std::vector<Run>>(src.count()));

  forSubtasks(pool, shards, [&](std::size_t s) {
    const auto nShards = static_cast<Index>(shards);
    const Index lo = targetSize * static_cast<Index>(s) / nShards;
    const Index hi = targetSize * (static_cast<Index>(s) + 1) / nShards;
    auto& runs = shardRuns[s];
    Index k = 0;
    const auto record = [&](std::size_t owner) {
      auto& rs = runs[owner];
      if (!rs.empty() && rs.back().hi == k) {
        ++rs.back().hi;  // extend the contiguous tail
      } else if (rs.empty() || rs.back().hi < k) {
        rs.push_back(Run{k, k + 1});
      }  // else: k already recorded (owner had several overlapping runs)
    };
    constexpr Index kChunk = 4096;  // bounds scratch, amortizes batch setup
    ScratchArena& arena = ScratchArena::local();
    std::vector<Index>& pvals = arena.indexVals;
    std::vector<Run>& rvals = arena.runVals;
    for (Index base = lo; base < hi; base += kChunk) {
      const Run chunk{base, std::min(base + kChunk, hi)};
      const auto n = static_cast<std::size_t>(chunk.size());
      if (overlaps) {
        rvals.resize(n);
        fn.ranges(chunk, rvals);
        for (k = chunk.lo; k < chunk.hi; ++k) {
          const Run& v = rvals[static_cast<std::size_t>(k - chunk.lo)];
          overlaps->forOverlaps(v.lo, v.hi, record);
        }
      } else {
        pvals.resize(n);
        fn.points(chunk, pvals);
        for (k = chunk.lo; k < chunk.hi; ++k) {
          owners->forOwners(pvals[static_cast<std::size_t>(k - chunk.lo)],
                            record);
        }
      }
    }
  });

  // Merge step: per owner, the shard-local runs in shard order, coalesced
  // across shard boundaries by the (ascending, so bitmap-free) builder.
  std::vector<IndexSet> subs(src.count());
  forSubtasks(pool, src.count(), [&](std::size_t j) {
    IndexSetBuilder& merged = ScratchArena::local().builder;
    merged.clear();
    for (std::size_t s = 0; s < shards; ++s) {
      for (const Run& r : shardRuns[s][j]) merged.addRun(r.lo, r.hi);
    }
    subs[j] = merged.build();
  });
  return Partition(targetRegion, std::move(subs));
}

namespace {

template <typename Op>
Partition zipPartitions(const Partition& a, const Partition& b, Op&& op,
                        const char* what, ThreadPool* pool) {
  DPART_CHECK(a.regionName() == b.regionName(),
              std::string(what) + ": operands partition different regions (" +
                  a.regionName() + " vs " + b.regionName() + ")");
  DPART_CHECK(a.count() == b.count(),
              std::string(what) + ": operand subregion counts differ");
  std::vector<IndexSet> subs(a.count());
  forSubtasks(pool, a.count(),
              [&](std::size_t j) { subs[j] = op(a.sub(j), b.sub(j)); });
  return Partition(a.regionName(), std::move(subs));
}

}  // namespace

Partition unionPartitions(const Partition& a, const Partition& b,
                          ThreadPool* pool) {
  return zipPartitions(
      a, b, [](const IndexSet& x, const IndexSet& y) { return x.unionWith(y); },
      "union", pool);
}

Partition intersectPartitions(const Partition& a, const Partition& b,
                              ThreadPool* pool) {
  return zipPartitions(
      a, b,
      [](const IndexSet& x, const IndexSet& y) { return x.intersectWith(y); },
      "intersect", pool);
}

Partition subtractPartitions(const Partition& a, const Partition& b,
                             ThreadPool* pool) {
  return zipPartitions(
      a, b, [](const IndexSet& x, const IndexSet& y) { return x.subtract(y); },
      "subtract", pool);
}

}  // namespace dpart::region
