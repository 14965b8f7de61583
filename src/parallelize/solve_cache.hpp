#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "constraint/canonical.hpp"
#include "constraint/solver.hpp"

namespace dpart::parallelize {

/// One collapse+unify+solve result: what the resolve stage of
/// AutoParallelizer::plan hands to plan synthesis, whether it was solved
/// fresh or rebound from a SolveCacheEntry.
struct Resolution {
  /// Symbol renames performed by edge collapsing + unification (follow them
  /// with constraint::followRenames).
  std::map<std::string, std::string> renames;
  /// The Algorithm 2 solution: assignments, order and resolved system.
  constraint::Solution solution;
  /// Fixed symbols of the unified system (-> ParallelPlan::externalSymbols).
  std::set<std::string> fixedSymbols;

  /// The same result with every name mapped through `m`: into canonical
  /// names before a cache insert, back into a requester's names on a hit.
  /// Solver statistics and failure details are not carried over.
  [[nodiscard]] Resolution mapped(const constraint::NameMaps& m) const;
};

/// One cached Resolution, stored entirely in canonical names
/// (constraint::canonicalize). A requester rebinds it into its own names
/// through the inverse of its canonical NameMaps — valid whenever its
/// rendering matches the entry's, because a matching rendering proves the
/// requester's labeling is an isomorphism onto the cached systems.
struct SolveCacheEntry {
  /// Canonical rendering of the systems this entry was solved for. Compared
  /// byte-for-byte on lookup so a 64-bit hash collision between structurally
  /// distinct programs degrades to a cache miss, never a wrong plan.
  std::string rendering;
  Resolution solved;
};

/// Thread-safe LRU cache keyed on the canonical constraint-graph hash.
/// Shared across AutoParallelizer instances (and across service tenants):
/// entries are immutable once inserted and handed out by shared_ptr.
class SolveCache {
 public:
  explicit SolveCache(std::size_t capacity = 1024);

  /// Returns the entry for `hash` when present AND its rendering matches;
  /// counts a hit/miss either way (a rendering conflict counts as a miss).
  [[nodiscard]] std::shared_ptr<const SolveCacheEntry> find(
      std::uint64_t hash, const std::string& rendering);

  /// Inserts (or refreshes) an entry, evicting the least recently used
  /// beyond capacity. First insert wins on a same-key race.
  void insert(std::uint64_t hash, std::shared_ptr<const SolveCacheEntry> entry);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Lookups whose hash matched but whose rendering did not (either a true
    /// 64-bit collision or a canonicalization defect; always safe).
    std::uint64_t renderingConflicts = 0;
    std::size_t entries = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  using LruList =
      std::list<std::pair<std::uint64_t, std::shared_ptr<const SolveCacheEntry>>>;

  mutable std::mutex mu_;
  std::size_t capacity_;
  LruList lru_;  // front = most recently used
  std::map<std::uint64_t, LruList::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t renderingConflicts_ = 0;
};

}  // namespace dpart::parallelize
