#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace dpart::region {

/// Index of an element within a region. Regions are indexed [0, size).
using Index = std::int64_t;

/// Half-open run of consecutive indices [lo, hi).
struct Run {
  Index lo = 0;
  Index hi = 0;  // exclusive

  [[nodiscard]] Index size() const { return hi - lo; }
  friend bool operator==(const Run&, const Run&) = default;
};

namespace detail {

/// The index space is cut into fixed-width chunks; each chunk of a set is
/// stored as whichever container is smaller for its contents. 4096 indices
/// per chunk keeps a bitmap container at 64 words (512 bytes — one cache
/// line octet), small enough to live on the stack during set operations.
inline constexpr Index kChunkBits = 4096;
inline constexpr std::size_t kChunkWords =
    static_cast<std::size_t>(kChunkBits) / 64;

/// Container crossover: a run container costs 16 bytes per run, a bitmap a
/// flat 512 bytes, so a chunk holding more than 32 local runs is stored as a
/// bitmap. The rule depends only on the chunk's contents, which keeps the
/// representation canonical: equal sets have identical containers.
inline constexpr std::uint32_t kRunCrossover = 32;

/// Per-chunk directory entry. Containers live in the owning set's shared
/// pools (one runs pool, one words pool) so a set costs O(1) allocations
/// regardless of chunk count; `off`/`len` locate this chunk's slice.
struct Chunk {
  Index id = 0;             // covers [id*kChunkBits, (id+1)*kChunkBits)
  std::uint32_t off = 0;    // first element of the slice in the pool
  std::uint32_t len = 0;    // runs: run count; bitmap: kChunkWords
  std::uint32_t card = 0;   // set members within the chunk (> 0)
  std::uint32_t nruns = 0;  // chunk-local run count (both containers)
  bool bitmap = false;
  friend bool operator==(const Chunk&, const Chunk&) = default;
};

/// Floor-division chunk id (indices may be negative in intermediate sets).
inline Index chunkIdOf(Index i) {
  return i >= 0 ? i / kChunkBits : -(((-i) + kChunkBits - 1) / kChunkBits);
}

struct Assembler;

}  // namespace detail

/// A set of indices, logically a sorted sequence of disjoint, non-adjacent
/// runs — but stored as a Roaring-style hybrid: the index space is split
/// into fixed-width chunks (detail::kChunkBits indices), and each chunk
/// holds its members either as chunk-local runs (interval-shaped data) or
/// as a packed 64-bit-word bitmap (dense data), switching automatically at
/// the run-count crossover. Set algebra runs chunk-at-a-time: run containers
/// use linear merges exactly like the original flat representation, bitmap
/// containers use word-at-a-time (autovectorizable) boolean ops, and
/// mismatched chunk directories are reconciled with a galloping skip.
///
/// IndexSet is the concrete representation of subregions: every DPL operator
/// ultimately manipulates IndexSets. `runCount()` still exposes the logical
/// run count — the fragmentation of a subregion, which the runtime and the
/// cluster simulator charge for (non-contiguous subregions are how the paper
/// explains the MiniAero and PENNANT performance gaps) — independent of the
/// physical container a chunk happens to use.
class IndexSet {
 public:
  IndexSet() = default;
  IndexSet(const IndexSet& other);
  IndexSet(IndexSet&& other) noexcept;
  IndexSet& operator=(const IndexSet& other);
  IndexSet& operator=(IndexSet&& other) noexcept;
  ~IndexSet();

  /// The contiguous set [lo, hi). Empty if hi <= lo.
  static IndexSet interval(Index lo, Index hi);

  /// Builds a set from arbitrary (possibly unsorted, duplicated) indices.
  static IndexSet fromIndices(std::vector<Index> indices);

  /// Builds a set from arbitrary (possibly unsorted, overlapping or empty)
  /// runs. Canonical input is assembled as it is; anything else goes
  /// through IndexSetBuilder, so an untrusted stream is renormalized.
  static IndexSet fromRuns(std::vector<Run> runs);

  IndexSet(std::initializer_list<Index> indices);

  [[nodiscard]] bool empty() const { return chunks_.empty(); }
  [[nodiscard]] Index size() const { return size_; }

  /// Number of logical runs (maximal intervals), container-independent.
  [[nodiscard]] std::size_t runCount() const { return runCount_; }

  /// The logical runs, sorted. Materialized lazily from the chunk
  /// containers on first call (thread-safe) and cached for the set's
  /// lifetime; run-shaped sets serve the pool directly without a copy.
  [[nodiscard]] std::span<const Run> runs() const;

  /// Smallest index in the set. Precondition: !empty().
  [[nodiscard]] Index lowerBound() const;
  /// One past the largest index in the set. Precondition: !empty().
  [[nodiscard]] Index upperBound() const;

  [[nodiscard]] bool contains(Index i) const;
  [[nodiscard]] bool containsAll(const IndexSet& other) const;
  [[nodiscard]] bool intersects(const IndexSet& other) const;

  [[nodiscard]] IndexSet unionWith(const IndexSet& other) const;
  [[nodiscard]] IndexSet intersectWith(const IndexSet& other) const;
  [[nodiscard]] IndexSet subtract(const IndexSet& other) const;

  /// Calls fn(i) for every index in ascending order.
  void forEach(const std::function<void(Index)>& fn) const;

  /// All indices, ascending. Intended for tests and small sets.
  [[nodiscard]] std::vector<Index> toVector() const;

  /// Human-readable form like "{[0,4) [7,9)}".
  [[nodiscard]] std::string toString() const;

  // ---- Representation introspection (tests, snapshots, observability) ----

  /// Number of populated chunks.
  [[nodiscard]] std::size_t chunkCount() const { return chunks_.size(); }
  /// Number of chunks currently stored as bitmaps.
  [[nodiscard]] std::size_t bitmapChunkCount() const;

  /// One chunk of the hybrid representation, exposed read-only. Exactly one
  /// of `runs` / `words` is non-empty, matching the chunk's container.
  struct ChunkView {
    Index base = 0;  // chunk covers [base, base + detail::kChunkBits)
    std::span<const Run> runs;
    std::span<const std::uint64_t> words;
  };
  /// Visits every chunk in ascending index order. This is the hook the
  /// snapshot writer uses to serialize dense chunks as raw bitmap words.
  void visitChunks(const std::function<void(const ChunkView&)>& fn) const;

  /// Process-global set-algebra tallies, harvested into PerfCounters by the
  /// evaluator: container conversions performed while canonicalizing chunk
  /// results, and 64-bit words processed by the bitmap op kernels.
  struct Stats {
    std::uint64_t containerSwitches = 0;
    std::uint64_t bitmapOpWords = 0;
  };
  static Stats stats();

  friend bool operator==(const IndexSet& a, const IndexSet& b) {
    // The representation is canonical (container choice is a pure function
    // of chunk contents; pools are laid out in chunk order), so structural
    // equality is exactly set equality. The lazy runs cache is excluded.
    return a.size_ == b.size_ && a.runCount_ == b.runCount_ &&
           a.chunks_ == b.chunks_ && a.words_ == b.words_ &&
           a.runPool_ == b.runPool_;
  }

 private:
  friend struct detail::Assembler;

  [[nodiscard]] std::span<const Run> chunkRuns(const detail::Chunk& c) const {
    return {runPool_.data() + c.off, c.len};
  }
  [[nodiscard]] const std::uint64_t* chunkWords(const detail::Chunk& c) const {
    return words_.data() + c.off;
  }
  /// Returns the chunk as bitmap words, materializing run containers into
  /// `scratch` (kChunkWords capacity) when needed.
  [[nodiscard]] const std::uint64_t* wordsOrFill(const detail::Chunk& c,
                                                 std::uint64_t* scratch) const;
  [[nodiscard]] std::vector<Run> materializeRuns() const;

  std::vector<detail::Chunk> chunks_;      // ascending by id
  std::vector<std::uint64_t> words_;       // bitmap containers, concatenated
  std::vector<Run> runPool_;               // run containers, concatenated
  Index size_ = 0;
  std::size_t runCount_ = 0;
  /// True when runPool_ already equals the logical run sequence (no bitmap
  /// chunks, no runs split at chunk boundaries): runs() then returns the
  /// pool itself.
  bool poolIsLogicalRuns_ = false;
  mutable std::atomic<const std::vector<Run>*> runsCache_{nullptr};
};

std::ostream& operator<<(std::ostream& os, const IndexSet& set);

/// Accumulates indices and runs in any order and builds their union as an
/// IndexSet, without sorting. Ascending input coalesces into runs, and a
/// monotone producer (identity, affine shift, CSR rows) pays for no bitmap.
/// The first run that starts below the previous one switches the builder to
/// scatter mode: every run so far and every later one sets bits in a
/// 4096-bit scratch bitmap per chunk it touches (a word at a time; a chunk
/// covered whole is only marked full), and build() assembles the canonical
/// containers from those chunks in ascending order. The chunk directory is
/// kept sorted on insert, as Roaring keeps its key array, and read through
/// a 256-entry direct-mapped cache of its entries. A value whose chunk is
/// cached costs O(1); any other costs a binary search of the directory, and
/// a chunk's first touch an insert that moves the entries above it. So
/// scatter mode costs O(elements + chunks^2): negligible beyond the
/// elements while at most 256 chunks are in play (a 2^20-index target).
/// Spread wider, cache collisions add a binary search each, and chunks
/// first touched in random order pay the chunks^2 term in full. The scratch
/// is bounded by the chunks touched, never by the span of the input.
///
/// build() and clear() leave the builder empty but keep its capacity, so one
/// builder can serve many sets (the DPL kernels keep one per thread in
/// ScratchArena and clear it at the start of each set, since a throwing fn
/// can leave a set unfinished).
class IndexSetBuilder {
 public:
  /// Pre-sizes the ascending run buffer: callers that know the run count of
  /// their input (e.g. the union of a partition's subregions) avoid growth
  /// reallocations.
  void reserve(std::size_t runs) { runs_.reserve(runs); }

  void add(Index i) {
    if (!scatter_) {
      if (runs_.empty() || i > runs_.back().hi) {
        runs_.push_back(Run{i, i + 1});
        return;
      }
      Run& last = runs_.back();
      if (i >= last.lo) {
        if (i == last.hi) ++last.hi;
        return;
      }
      startScatter();
    }
    setBit(i);
  }

  void addRun(Index lo, Index hi) {
    if (hi <= lo) return;
    if (!scatter_) {
      if (runs_.empty() || lo > runs_.back().hi) {
        runs_.push_back(Run{lo, hi});
        return;
      }
      Run& last = runs_.back();
      if (lo >= last.lo) {
        last.hi = std::max(last.hi, hi);
        return;
      }
      startScatter();
    }
    scatterRun(lo, hi);
  }

  /// The set of everything added since the last build() or clear();
  /// empties the builder.
  [[nodiscard]] IndexSet build();

  /// Drops everything added since the last build() or clear().
  void clear();

  /// Bytes of scratch capacity the builder holds (runs, chunk directory and
  /// bitmaps), kept across build() calls.
  [[nodiscard]] std::size_t scratchBytes() const;

 private:
  /// A touched chunk in scatter mode: its bitmap's slot in words_, or kFull.
  struct Touched {
    Index id = 0;
    std::uint32_t slot = 0;
  };
  static constexpr std::uint32_t kFull = ~std::uint32_t{0};
  static constexpr Index kNoChunk = std::numeric_limits<Index>::min();
  static constexpr std::size_t kCacheSize = 256;  // a power of two

  /// Chunk `id`'s directory entry, through the cache.
  Touched entry(Index id) {
    Touched& cached = cache_[static_cast<std::size_t>(id) & (kCacheSize - 1)];
    if (cached.id != id) cached = findOrAdd(id);
    return cached;
  }

  void setBit(Index i) {
    const Index id = detail::chunkIdOf(i);
    const std::uint32_t slot = entry(id).slot;
    if (slot != kFull) {
      const auto bit = static_cast<std::size_t>(i - id * detail::kChunkBits);
      words_[slot * detail::kChunkWords + bit / 64] |= std::uint64_t{1}
                                                       << (bit % 64);
    }
  }

  void startScatter();
  void scatterRun(Index lo, Index hi);
  /// Chunk `id`'s directory entry, adding a zeroed bitmap for a new chunk.
  Touched findOrAdd(Index id);
  /// Marks chunks [first, last] full, dropping any bitmap they had.
  void markFull(Index first, Index last);

  std::vector<Run> runs_;  // ascending mode: canonical runs so far
  bool scatter_ = false;
  std::vector<Touched> touched_;      // scatter mode: ascending by id
  std::vector<Touched> cache_;        // scatter mode: by id % kCacheSize
  std::vector<std::uint64_t> words_;  // scatter mode: kChunkWords per slot
};

}  // namespace dpart::region
