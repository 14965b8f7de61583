#include "region/index_set.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>

#include "support/check.hpp"

namespace dpart::region {

namespace {

using detail::Chunk;
using detail::chunkIdOf;
using detail::kChunkBits;
using detail::kChunkWords;
using detail::kRunCrossover;

// Process-global set-algebra tallies (see IndexSet::stats()). Ops accumulate
// locally and flush once per call, so the word-at-a-time loops stay free of
// atomic traffic and remain autovectorizable.
std::atomic<std::uint64_t> gContainerSwitches{0};
std::atomic<std::uint64_t> gBitmapOpWords{0};

struct StatTally {
  std::uint64_t switches = 0;
  std::uint64_t words = 0;
  StatTally() = default;
  StatTally(const StatTally&) = delete;
  StatTally& operator=(const StatTally&) = delete;
  ~StatTally() {
    if (switches != 0) {
      gContainerSwitches.fetch_add(switches, std::memory_order_relaxed);
    }
    if (words != 0) {
      gBitmapOpWords.fetch_add(words, std::memory_order_relaxed);
    }
  }
};

inline Index chunkBase(Index id) { return id * kChunkBits; }

inline std::uint32_t cardOfWords(const std::uint64_t* w) {
  std::uint32_t card = 0;
  for (std::size_t k = 0; k < kChunkWords; ++k) {
    card += static_cast<std::uint32_t>(std::popcount(w[k]));
  }
  return card;
}

/// Number of maximal 1-blocks in the bitmap: a run starts at every 1-bit
/// whose predecessor (carrying across words) is 0.
inline std::uint32_t runsInWords(const std::uint64_t* w) {
  std::uint32_t runs = 0;
  std::uint64_t carry = 0;
  for (std::size_t k = 0; k < kChunkWords; ++k) {
    runs += static_cast<std::uint32_t>(
        std::popcount(w[k] & ~((w[k] << 1) | carry)));
    carry = w[k] >> 63;
  }
  return runs;
}

/// Sets bits [lo, hi) of a chunk-local bitmap; 0 <= lo < hi <= kChunkBits.
inline void setBitRange(std::uint64_t* w, Index lo, Index hi) {
  const std::size_t wlo = static_cast<std::size_t>(lo) / 64;
  const std::size_t whi = static_cast<std::size_t>(hi - 1) / 64;
  const std::uint64_t firstMask = ~0ull << (static_cast<std::size_t>(lo) % 64);
  const std::uint64_t lastMask =
      ~0ull >> (63 - static_cast<std::size_t>(hi - 1) % 64);
  if (wlo == whi) {
    w[wlo] |= firstMask & lastMask;
    return;
  }
  w[wlo] |= firstMask;
  for (std::size_t k = wlo + 1; k < whi; ++k) w[k] = ~0ull;
  w[whi] |= lastMask;
}

/// Renders chunk-local absolute runs into a zeroed kChunkWords bitmap.
inline void fillWords(std::span<const Run> runs, Index base,
                      std::uint64_t* w) {
  std::fill(w, w + kChunkWords, 0ull);
  for (const Run& r : runs) setBitRange(w, r.lo - base, r.hi - base);
}

/// Calls push(lo, hi) for every maximal 1-block, in ascending order.
template <typename Push>
void scanWordRuns(const std::uint64_t* w, Index base, Push&& push) {
  Index openLo = 0;
  Index openHi = 0;
  bool open = false;
  for (std::size_t k = 0; k < kChunkWords; ++k) {
    std::uint64_t word = w[k];
    const Index wb = base + static_cast<Index>(k * 64);
    // Fast path for saturated words, but only when the pending run actually
    // reaches this word's base — otherwise the gap before `wb` must close
    // the run, which the general loop below handles.
    if (open && openHi == wb && word == ~0ull) {
      openHi = wb + 64;
      continue;
    }
    while (word != 0) {
      const int start = std::countr_zero(word);
      const int len = std::countr_one(word >> start);
      const Index lo = wb + start;
      const Index hi = lo + len;
      if (open && openHi == lo) {
        openHi = hi;
      } else {
        if (open) push(openLo, openHi);
        openLo = lo;
        openHi = hi;
        open = true;
      }
      if (start + len >= 64) break;
      word &= ~0ull << (start + len);
    }
  }
  if (open) push(openLo, openHi);
}

// ---- Run-container merges (both operands canonical within one chunk) ----

inline std::uint32_t mergeUnion(std::span<const Run> a, std::span<const Run> b,
                                Run* out) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::uint32_t n = 0;
  while (i < a.size() || j < b.size()) {
    const Run next = (j >= b.size() || (i < a.size() && a[i].lo <= b[j].lo))
                         ? a[i++]
                         : b[j++];
    if (n > 0 && next.lo <= out[n - 1].hi) {
      out[n - 1].hi = std::max(out[n - 1].hi, next.hi);
    } else {
      out[n++] = next;
    }
  }
  return n;
}

inline std::uint32_t mergeIntersect(std::span<const Run> a,
                                    std::span<const Run> b, Run* out) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::uint32_t n = 0;
  while (i < a.size() && j < b.size()) {
    const Index lo = std::max(a[i].lo, b[j].lo);
    const Index hi = std::min(a[i].hi, b[j].hi);
    if (lo < hi) out[n++] = Run{lo, hi};
    if (a[i].hi < b[j].hi) {
      ++i;
    } else {
      ++j;
    }
  }
  return n;
}

inline std::uint32_t mergeSubtract(std::span<const Run> a,
                                   std::span<const Run> b, Run* out) {
  std::size_t j = 0;
  std::uint32_t n = 0;
  for (const Run& r : a) {
    while (j < b.size() && b[j].hi <= r.lo) ++j;
    Index cur = r.lo;
    std::size_t jj = j;
    while (jj < b.size() && b[jj].lo < r.hi) {
      if (b[jj].lo > cur) out[n++] = Run{cur, b[jj].lo};
      cur = std::max(cur, b[jj].hi);
      ++jj;
    }
    if (cur < r.hi) out[n++] = Run{cur, r.hi};
  }
  return n;
}

inline bool runsInclude(std::span<const Run> outer, std::span<const Run> inner) {
  std::size_t i = 0;
  for (const Run& r : inner) {
    while (i < outer.size() && outer[i].hi <= r.lo) ++i;
    if (i >= outer.size() || outer[i].lo > r.lo || outer[i].hi < r.hi) {
      return false;
    }
  }
  return true;
}

inline bool runsIntersect(std::span<const Run> a, std::span<const Run> b) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].hi <= b[j].lo) {
      ++i;
    } else if (b[j].hi <= a[i].lo) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

/// Galloping advance: first position at or after `from` whose chunk id is
/// >= id. Exponential probe + binary search, so wildly asymmetric chunk
/// directories (one huge set, one tiny) skip in O(log gap) per probe.
std::size_t advanceTo(const std::vector<Chunk>& cs, std::size_t from,
                      Index id) {
  if (from >= cs.size() || cs[from].id >= id) return from;
  std::size_t lo = from;
  std::size_t step = 1;
  std::size_t hi = from + step;
  while (hi < cs.size() && cs[hi].id < id) {
    lo = hi;
    step *= 2;
    hi = lo + step;
  }
  hi = std::min(hi + 1, cs.size());
  const auto it = std::lower_bound(
      cs.begin() + static_cast<std::ptrdiff_t>(lo + 1),
      cs.begin() + static_cast<std::ptrdiff_t>(hi), id,
      [](const Chunk& c, Index v) { return c.id < v; });
  return static_cast<std::size_t>(it - cs.begin());
}

/// True when already in canonical form (sorted, disjoint, non-adjacent,
/// all non-empty) — one branch-friendly pass, much cheaper than sorting.
bool isCanonicalRuns(std::span<const Run> runs) {
  Index prevHi = std::numeric_limits<Index>::min();
  for (const Run& r : runs) {
    if (r.lo <= prevHi || r.hi <= r.lo) return false;
    prevHi = r.hi;
  }
  return true;
}

std::vector<Run>& tlsChunkBuf() {
  static thread_local std::vector<Run> buf;
  return buf;
}

}  // namespace

namespace detail {

/// Builds an IndexSet chunk by chunk in ascending id order, choosing the
/// canonical container per chunk and maintaining size / logical-run-count
/// accounting (adjacent chunks whose contents touch across the boundary
/// count as one logical run).
struct Assembler {
  IndexSet out;
  StatTally tally;
  bool prevAtEnd = false;
  Index prevId = 0;
  bool havePrev = false;

  void reserveChunks(std::size_t n) { out.chunks_.reserve(n); }
  void reserveWords(std::size_t n) { out.words_.reserve(n); }
  void reserveRuns(std::size_t n) { out.runPool_.reserve(n); }

  void account(Index id, bool firstAtStart, bool lastAtEnd,
               std::uint32_t nruns, std::uint32_t card) {
    out.size_ += card;
    out.runCount_ += nruns;
    if (havePrev && prevAtEnd && firstAtStart && id == prevId + 1) {
      --out.runCount_;
    }
    prevAtEnd = lastAtEnd;
    prevId = id;
    havePrev = true;
  }

  void pushRuns(Index id, const Run* runs, std::uint32_t n,
                std::uint32_t card) {
    const Index base = chunkBase(id);
    out.chunks_.push_back(Chunk{
        id, static_cast<std::uint32_t>(out.runPool_.size()), n, card, n,
        false});
    out.runPool_.insert(out.runPool_.end(), runs, runs + n);
    account(id, runs[0].lo == base, runs[n - 1].hi == base + kChunkBits, n,
            card);
  }

  void pushWords(Index id, const std::uint64_t* w, std::uint32_t card,
                 std::uint32_t nruns) {
    out.chunks_.push_back(Chunk{
        id, static_cast<std::uint32_t>(out.words_.size()),
        static_cast<std::uint32_t>(kChunkWords), card, nruns, true});
    out.words_.insert(out.words_.end(), w, w + kChunkWords);
    account(id, (w[0] & 1) != 0, (w[kChunkWords - 1] >> 63) != 0, nruns,
            card);
  }

  /// Chunk-local canonical runs (n >= 1): picks the container, rendering to
  /// a bitmap past the crossover.
  void addRunChunk(Index id, const Run* runs, std::uint32_t n) {
    std::uint32_t card = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      card += static_cast<std::uint32_t>(runs[i].size());
    }
    if (n > kRunCrossover) {
      std::uint64_t w[kChunkWords];
      fillWords({runs, n}, chunkBase(id), w);
      ++tally.switches;
      pushWords(id, w, card, n);
    } else {
      pushRuns(id, runs, n, card);
    }
  }

  /// Bitmap result of a word-at-a-time op (may be empty): drops empty
  /// chunks, converts back to runs below the crossover.
  void addWordChunk(Index id, const std::uint64_t* w) {
    const std::uint32_t card = cardOfWords(w);
    if (card == 0) return;
    const std::uint32_t nruns = runsInWords(w);
    if (nruns <= kRunCrossover) {
      Run buf[kRunCrossover];
      std::uint32_t n = 0;
      scanWordRuns(w, chunkBase(id), [&](Index lo, Index hi) {
        buf[n++] = Run{lo, hi};
      });
      ++tally.switches;
      pushRuns(id, buf, n, card);
    } else {
      pushWords(id, w, card, nruns);
    }
  }

  /// Verbatim chunk copy from another set (disjoint-id fast path).
  void copyChunk(const IndexSet& src, const Chunk& c) {
    if (c.bitmap) {
      pushWords(c.id, src.chunkWords(c), c.card, c.nruns);
    } else {
      pushRuns(c.id, src.chunkRuns(c).data(), c.len, c.card);
    }
  }

  IndexSet finish() {
    out.poolIsLogicalRuns_ =
        out.words_.empty() && out.runCount_ == out.runPool_.size();
    return std::move(out);
  }
};

}  // namespace detail

namespace {

/// Splits canonical runs at chunk boundaries and assembles containers.
IndexSet assembleFromCanonical(std::span<const Run> runs) {
  detail::Assembler as;
  if (!runs.empty()) {
    as.reserveChunks(static_cast<std::size_t>(
        std::min<Index>(static_cast<Index>(runs.size()) +
                            (runs.back().hi - runs.front().lo) / kChunkBits,
                        1 << 20)));
  }
  auto& chunkBuf = tlsChunkBuf();
  const std::size_t n = runs.size();
  std::size_t i = 0;
  Run pending{0, 0};  // tail of a boundary-crossing run, not yet emitted
  bool havePending = false;
  while (i < n || havePending) {
    const Index startLo = havePending ? pending.lo : runs[i].lo;
    const Index id = chunkIdOf(startLo);
    const Index chunkEnd = chunkBase(id) + kChunkBits;
    if (havePending && pending.hi > chunkEnd) {
      // A long run covering this whole chunk (and more).
      const Run full{pending.lo, chunkEnd};
      as.addRunChunk(id, &full, 1);
      pending.lo = chunkEnd;
      continue;
    }
    // Gather this chunk's slice of the canonical array.
    const std::size_t first = i;
    while (i < n && runs[i].lo < chunkEnd) ++i;
    const bool crosses = i > first && runs[i - 1].hi > chunkEnd;
    if (!havePending && !crosses) {
      // Common case: the slice lies entirely inside the chunk — assemble
      // straight off the caller's buffer, no staging copy.
      as.addRunChunk(id, runs.data() + first,
                     static_cast<std::uint32_t>(i - first));
      continue;
    }
    chunkBuf.clear();
    if (havePending) {
      chunkBuf.push_back(pending);
      havePending = false;
    }
    chunkBuf.insert(chunkBuf.end(), runs.begin() + first, runs.begin() + i);
    if (crosses) {
      pending = Run{chunkEnd, chunkBuf.back().hi};
      havePending = true;
      chunkBuf.back().hi = chunkEnd;
    }
    as.addRunChunk(id, chunkBuf.data(),
                   static_cast<std::uint32_t>(chunkBuf.size()));
  }
  return as.finish();
}

}  // namespace

// ---- Special members (the lazy runs cache needs manual handling) ----

IndexSet::IndexSet(const IndexSet& other)
    : chunks_(other.chunks_),
      words_(other.words_),
      runPool_(other.runPool_),
      size_(other.size_),
      runCount_(other.runCount_),
      poolIsLogicalRuns_(other.poolIsLogicalRuns_) {}

IndexSet::IndexSet(IndexSet&& other) noexcept
    : chunks_(std::move(other.chunks_)),
      words_(std::move(other.words_)),
      runPool_(std::move(other.runPool_)),
      size_(other.size_),
      runCount_(other.runCount_),
      poolIsLogicalRuns_(other.poolIsLogicalRuns_) {
  runsCache_.store(other.runsCache_.exchange(nullptr,
                                             std::memory_order_acq_rel),
                   std::memory_order_release);
  other.size_ = 0;
  other.runCount_ = 0;
  other.poolIsLogicalRuns_ = false;
  other.chunks_.clear();
  other.words_.clear();
  other.runPool_.clear();
}

IndexSet& IndexSet::operator=(const IndexSet& other) {
  if (this != &other) {
    IndexSet tmp(other);
    *this = std::move(tmp);
  }
  return *this;
}

IndexSet& IndexSet::operator=(IndexSet&& other) noexcept {
  if (this != &other) {
    chunks_ = std::move(other.chunks_);
    words_ = std::move(other.words_);
    runPool_ = std::move(other.runPool_);
    size_ = other.size_;
    runCount_ = other.runCount_;
    poolIsLogicalRuns_ = other.poolIsLogicalRuns_;
    delete runsCache_.exchange(
        other.runsCache_.exchange(nullptr, std::memory_order_acq_rel),
        std::memory_order_acq_rel);
    other.size_ = 0;
    other.runCount_ = 0;
    other.poolIsLogicalRuns_ = false;
    other.chunks_.clear();
    other.words_.clear();
    other.runPool_.clear();
  }
  return *this;
}

IndexSet::~IndexSet() {
  delete runsCache_.load(std::memory_order_acquire);
}

// ---- Factories ----

IndexSet IndexSet::interval(Index lo, Index hi) {
  if (hi <= lo) return {};
  const Run r{lo, hi};
  return assembleFromCanonical({&r, 1});
}

IndexSet IndexSet::fromIndices(std::vector<Index> indices) {
  IndexSetBuilder b;
  for (const Index i : indices) b.add(i);
  return b.build();
}

IndexSet IndexSet::fromRuns(std::vector<Run> runs) {
  if (isCanonicalRuns(runs)) return assembleFromCanonical(runs);
  IndexSetBuilder b;
  for (const Run& r : runs) b.addRun(r.lo, r.hi);
  return b.build();
}

IndexSet::IndexSet(std::initializer_list<Index> indices)
    : IndexSet(fromIndices(std::vector<Index>(indices))) {}

// ---- Queries ----

std::size_t IndexSet::bitmapChunkCount() const {
  std::size_t n = 0;
  for (const Chunk& c : chunks_) n += c.bitmap ? 1 : 0;
  return n;
}

Index IndexSet::lowerBound() const {
  DPART_CHECK(!empty());
  const Chunk& c = chunks_.front();
  if (!c.bitmap) return runPool_[c.off].lo;
  const std::uint64_t* w = chunkWords(c);
  for (std::size_t k = 0; k < kChunkWords; ++k) {
    if (w[k] != 0) {
      return chunkBase(c.id) + static_cast<Index>(k * 64) +
             std::countr_zero(w[k]);
    }
  }
  DPART_UNREACHABLE("bitmap chunk with card > 0 has a set bit");
}

Index IndexSet::upperBound() const {
  DPART_CHECK(!empty());
  const Chunk& c = chunks_.back();
  if (!c.bitmap) return runPool_[c.off + c.len - 1].hi;
  const std::uint64_t* w = chunkWords(c);
  for (std::size_t k = kChunkWords; k-- > 0;) {
    if (w[k] != 0) {
      return chunkBase(c.id) + static_cast<Index>(k * 64) + 64 -
             std::countl_zero(w[k]);
    }
  }
  DPART_UNREACHABLE("bitmap chunk with card > 0 has a set bit");
}

bool IndexSet::contains(Index i) const {
  const Index id = chunkIdOf(i);
  const auto it = std::lower_bound(
      chunks_.begin(), chunks_.end(), id,
      [](const Chunk& c, Index v) { return c.id < v; });
  if (it == chunks_.end() || it->id != id) return false;
  if (it->bitmap) {
    const std::size_t bit = static_cast<std::size_t>(i - chunkBase(id));
    return (chunkWords(*it)[bit / 64] >> (bit % 64) & 1) != 0;
  }
  const std::span<const Run> runs = chunkRuns(*it);
  const auto rit = std::upper_bound(
      runs.begin(), runs.end(), i,
      [](Index v, const Run& r) { return v < r.lo; });
  return rit != runs.begin() && i < (rit - 1)->hi;
}

bool IndexSet::containsAll(const IndexSet& other) const {
  if (other.empty()) return true;
  if (empty() || size_ < other.size_) return false;
  StatTally tally;
  std::uint64_t sa[kChunkWords];
  std::uint64_t sb[kChunkWords];
  std::size_t i = 0;
  for (const Chunk& B : other.chunks_) {
    i = advanceTo(chunks_, i, B.id);
    if (i >= chunks_.size() || chunks_[i].id != B.id) return false;
    const Chunk& A = chunks_[i];
    if (A.card < B.card) return false;
    if (!A.bitmap && !B.bitmap) {
      if (!runsInclude(chunkRuns(A), other.chunkRuns(B))) return false;
    } else {
      const std::uint64_t* pa = wordsOrFill(A, sa);
      const std::uint64_t* pb = other.wordsOrFill(B, sb);
      tally.words += kChunkWords;
      for (std::size_t k = 0; k < kChunkWords; ++k) {
        if ((pb[k] & ~pa[k]) != 0) return false;
      }
    }
  }
  return true;
}

bool IndexSet::intersects(const IndexSet& other) const {
  StatTally tally;
  std::uint64_t sa[kChunkWords];
  std::uint64_t sb[kChunkWords];
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < chunks_.size() && j < other.chunks_.size()) {
    const Chunk& A = chunks_[i];
    const Chunk& B = other.chunks_[j];
    if (A.id < B.id) {
      i = advanceTo(chunks_, i, B.id);
    } else if (B.id < A.id) {
      j = advanceTo(other.chunks_, j, A.id);
    } else {
      if (!A.bitmap && !B.bitmap) {
        if (runsIntersect(chunkRuns(A), other.chunkRuns(B))) return true;
      } else {
        const std::uint64_t* pa = wordsOrFill(A, sa);
        const std::uint64_t* pb = other.wordsOrFill(B, sb);
        tally.words += kChunkWords;
        for (std::size_t k = 0; k < kChunkWords; ++k) {
          if ((pa[k] & pb[k]) != 0) return true;
        }
      }
      ++i;
      ++j;
    }
  }
  return false;
}

// ---- Set algebra ----

IndexSet IndexSet::unionWith(const IndexSet& other) const {
  if (empty()) return other;
  if (other.empty()) return *this;
  detail::Assembler as;
  as.reserveChunks(chunks_.size() + other.chunks_.size());
  as.reserveWords(words_.size() + other.words_.size());
  as.reserveRuns(runPool_.size() + other.runPool_.size());
  std::uint64_t sa[kChunkWords];
  std::uint64_t sb[kChunkWords];
  std::uint64_t w[kChunkWords];
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < chunks_.size() && j < other.chunks_.size()) {
    const Chunk& A = chunks_[i];
    const Chunk& B = other.chunks_[j];
    if (A.id < B.id) {
      as.copyChunk(*this, A);
      ++i;
    } else if (B.id < A.id) {
      as.copyChunk(other, B);
      ++j;
    } else {
      if (!A.bitmap && !B.bitmap) {
        Run buf[2 * kRunCrossover];
        const std::uint32_t n =
            mergeUnion(chunkRuns(A), other.chunkRuns(B), buf);
        as.addRunChunk(A.id, buf, n);
      } else {
        const std::uint64_t* pa = wordsOrFill(A, sa);
        const std::uint64_t* pb = other.wordsOrFill(B, sb);
        for (std::size_t k = 0; k < kChunkWords; ++k) w[k] = pa[k] | pb[k];
        as.tally.words += kChunkWords;
        as.addWordChunk(A.id, w);
      }
      ++i;
      ++j;
    }
  }
  for (; i < chunks_.size(); ++i) as.copyChunk(*this, chunks_[i]);
  for (; j < other.chunks_.size(); ++j) as.copyChunk(other, other.chunks_[j]);
  return as.finish();
}

IndexSet IndexSet::intersectWith(const IndexSet& other) const {
  if (empty() || other.empty()) return {};
  detail::Assembler as;
  as.reserveChunks(std::min(chunks_.size(), other.chunks_.size()));
  std::uint64_t sa[kChunkWords];
  std::uint64_t sb[kChunkWords];
  std::uint64_t w[kChunkWords];
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < chunks_.size() && j < other.chunks_.size()) {
    const Chunk& A = chunks_[i];
    const Chunk& B = other.chunks_[j];
    if (A.id < B.id) {
      i = advanceTo(chunks_, i, B.id);
    } else if (B.id < A.id) {
      j = advanceTo(other.chunks_, j, A.id);
    } else {
      if (!A.bitmap && !B.bitmap) {
        Run buf[2 * kRunCrossover];
        const std::uint32_t n =
            mergeIntersect(chunkRuns(A), other.chunkRuns(B), buf);
        if (n > 0) as.addRunChunk(A.id, buf, n);
      } else {
        const std::uint64_t* pa = wordsOrFill(A, sa);
        const std::uint64_t* pb = other.wordsOrFill(B, sb);
        for (std::size_t k = 0; k < kChunkWords; ++k) w[k] = pa[k] & pb[k];
        as.tally.words += kChunkWords;
        as.addWordChunk(A.id, w);
      }
      ++i;
      ++j;
    }
  }
  return as.finish();
}

IndexSet IndexSet::subtract(const IndexSet& other) const {
  if (empty()) return {};
  if (other.empty()) return *this;
  detail::Assembler as;
  as.reserveChunks(chunks_.size());
  std::uint64_t sa[kChunkWords];
  std::uint64_t sb[kChunkWords];
  std::uint64_t w[kChunkWords];
  std::size_t j = 0;
  for (const Chunk& A : chunks_) {
    j = advanceTo(other.chunks_, j, A.id);
    if (j >= other.chunks_.size() || other.chunks_[j].id != A.id) {
      as.copyChunk(*this, A);
      continue;
    }
    const Chunk& B = other.chunks_[j];
    if (!A.bitmap && !B.bitmap) {
      Run buf[2 * kRunCrossover];
      const std::uint32_t n =
          mergeSubtract(chunkRuns(A), other.chunkRuns(B), buf);
      if (n > 0) as.addRunChunk(A.id, buf, n);
    } else {
      const std::uint64_t* pa = wordsOrFill(A, sa);
      const std::uint64_t* pb = other.wordsOrFill(B, sb);
      for (std::size_t k = 0; k < kChunkWords; ++k) w[k] = pa[k] & ~pb[k];
      as.tally.words += kChunkWords;
      as.addWordChunk(A.id, w);
    }
  }
  return as.finish();
}

// ---- Iteration / materialization ----

const std::uint64_t* IndexSet::wordsOrFill(const detail::Chunk& c,
                                           std::uint64_t* scratch) const {
  if (c.bitmap) return chunkWords(c);
  fillWords(chunkRuns(c), chunkBase(c.id), scratch);
  return scratch;
}

std::vector<Run> IndexSet::materializeRuns() const {
  std::vector<Run> out;
  out.reserve(runCount_);
  auto push = [&out](Index lo, Index hi) {
    if (!out.empty() && out.back().hi == lo) {
      out.back().hi = hi;
    } else {
      out.push_back(Run{lo, hi});
    }
  };
  for (const Chunk& c : chunks_) {
    if (c.bitmap) {
      scanWordRuns(chunkWords(c), chunkBase(c.id), push);
    } else {
      for (const Run& r : chunkRuns(c)) push(r.lo, r.hi);
    }
  }
  return out;
}

std::span<const Run> IndexSet::runs() const {
  if (chunks_.empty()) return {};
  if (poolIsLogicalRuns_) return runPool_;
  const std::vector<Run>* cached =
      runsCache_.load(std::memory_order_acquire);
  if (cached == nullptr) {
    auto fresh = std::make_unique<std::vector<Run>>(materializeRuns());
    const std::vector<Run>* expected = nullptr;
    if (runsCache_.compare_exchange_strong(expected, fresh.get(),
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
      cached = fresh.release();
    } else {
      cached = expected;  // another thread won; keep theirs
    }
  }
  return *cached;
}

void IndexSet::forEach(const std::function<void(Index)>& fn) const {
  for (const Chunk& c : chunks_) {
    if (c.bitmap) {
      const std::uint64_t* w = chunkWords(c);
      const Index base = chunkBase(c.id);
      for (std::size_t k = 0; k < kChunkWords; ++k) {
        std::uint64_t word = w[k];
        const Index wb = base + static_cast<Index>(k * 64);
        while (word != 0) {
          fn(wb + std::countr_zero(word));
          word &= word - 1;
        }
      }
    } else {
      for (const Run& r : chunkRuns(c)) {
        for (Index i = r.lo; i < r.hi; ++i) fn(i);
      }
    }
  }
}

std::vector<Index> IndexSet::toVector() const {
  std::vector<Index> out;
  out.reserve(static_cast<std::size_t>(size_));
  forEach([&](Index i) { out.push_back(i); });
  return out;
}

void IndexSet::visitChunks(
    const std::function<void(const ChunkView&)>& fn) const {
  for (const Chunk& c : chunks_) {
    ChunkView view;
    view.base = chunkBase(c.id);
    if (c.bitmap) {
      view.words = {words_.data() + c.off, kChunkWords};
    } else {
      view.runs = chunkRuns(c);
    }
    fn(view);
  }
}

IndexSet::Stats IndexSet::stats() {
  return Stats{gContainerSwitches.load(std::memory_order_relaxed),
               gBitmapOpWords.load(std::memory_order_relaxed)};
}

std::string IndexSet::toString() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const IndexSet& set) {
  os << '{';
  bool first = true;
  for (const Run& r : set.runs()) {
    if (!first) os << ' ';
    first = false;
    if (r.size() == 1) {
      os << r.lo;
    } else {
      os << '[' << r.lo << ',' << r.hi << ')';
    }
  }
  os << '}';
  return os;
}

// ---- IndexSetBuilder ----

void IndexSetBuilder::startScatter() {
  cache_.assign(kCacheSize, Touched{kNoChunk, 0});
  scatter_ = true;
  for (const Run& r : runs_) scatterRun(r.lo, r.hi);
  runs_.clear();
}

void IndexSetBuilder::scatterRun(Index lo, Index hi) {
  const Index firstId = chunkIdOf(lo);
  const Index lastId = chunkIdOf(hi - 1);
  Index fullFrom = firstId;
  Index fullTo = lastId;
  // A partial head chunk (which may also be the tail).
  const Index headEnd = chunkBase(firstId) + kChunkBits;
  if (lo != chunkBase(firstId) || hi < headEnd) {
    const std::uint32_t slot = entry(firstId).slot;
    if (slot != kFull) {
      setBitRange(words_.data() + slot * kChunkWords, lo - chunkBase(firstId),
                  std::min(hi, headEnd) - chunkBase(firstId));
    }
    ++fullFrom;
  }
  // A partial tail chunk.
  if (fullFrom <= lastId && hi != chunkBase(lastId) + kChunkBits) {
    const std::uint32_t slot = entry(lastId).slot;
    if (slot != kFull) {
      setBitRange(words_.data() + slot * kChunkWords, 0,
                  hi - chunkBase(lastId));
    }
    --fullTo;
  }
  if (fullFrom <= fullTo) markFull(fullFrom, fullTo);
}

IndexSetBuilder::Touched IndexSetBuilder::findOrAdd(Index id) {
  const auto it =
      std::lower_bound(touched_.begin(), touched_.end(), id,
                       [](const Touched& t, Index v) { return t.id < v; });
  if (it != touched_.end() && it->id == id) return *it;
  // The bitmap exists before the directory names it, so a throwing insert
  // leaves no entry past the end of words_.
  const Touched added{id,
                      static_cast<std::uint32_t>(words_.size() / kChunkWords)};
  words_.resize(words_.size() + kChunkWords);  // a zeroed bitmap
  touched_.insert(it, added);
  return added;
}

void IndexSetBuilder::markFull(Index first, Index last) {
  const auto byId = [](const Touched& t, Index v) { return t.id < v; };
  const auto p = static_cast<std::size_t>(
      std::lower_bound(touched_.begin(), touched_.end(), first, byId) -
      touched_.begin());
  const auto q = static_cast<std::size_t>(
      std::lower_bound(touched_.begin() + static_cast<std::ptrdiff_t>(p),
                       touched_.end(), last + 1, byId) -
      touched_.begin());
  // touched_[p, q) are the chunks of [first, last] seen so far; one splice
  // makes room for the others, so a long run costs O(1) per chunk.
  const auto n = static_cast<std::size_t>(last - first + 1);
  touched_.insert(touched_.begin() + static_cast<std::ptrdiff_t>(q),
                  n - (q - p), Touched{});
  for (std::size_t k = 0; k < n; ++k) {
    touched_[p + k] = Touched{first + static_cast<Index>(k), kFull};
  }
  // The cache entries of [first, last]: every entry once the range wraps.
  for (std::size_t k = 0; k < std::min(n, kCacheSize); ++k) {
    const Index id = first + static_cast<Index>(k);
    cache_[static_cast<std::size_t>(id) & (kCacheSize - 1)] =
        Touched{id, kFull};
  }
}

IndexSet IndexSetBuilder::build() {
  IndexSet out;
  if (!scatter_) {
    out = assembleFromCanonical(runs_);
  } else {
    detail::Assembler as;
    as.reserveChunks(touched_.size());
    for (const Touched& t : touched_) {
      if (t.slot == kFull) {
        const Run full{chunkBase(t.id), chunkBase(t.id) + kChunkBits};
        as.addRunChunk(t.id, &full, 1);
      } else {
        as.addWordChunk(t.id, words_.data() + static_cast<std::size_t>(
                                                  t.slot) * kChunkWords);
      }
    }
    out = as.finish();
  }
  clear();
  return out;
}

void IndexSetBuilder::clear() {
  runs_.clear();
  scatter_ = false;
  touched_.clear();
  words_.clear();
}

std::size_t IndexSetBuilder::scratchBytes() const {
  return runs_.capacity() * sizeof(Run) +
         (touched_.capacity() + cache_.capacity()) * sizeof(Touched) +
         words_.capacity() * sizeof(std::uint64_t);
}

}  // namespace dpart::region
