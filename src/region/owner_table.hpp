#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "region/partition.hpp"

namespace dpart::region {

/// Who holds each element of a partition's region: one owner entry per
/// element in [0, extent), where extent is one past the largest element of
/// any subregion. Built once from a partition, then read concurrently.
///
/// Two readers share it. The task kernels test membership per write
/// (`owns`: one load for an element with at most one owner), and point
/// preimage visits every subregion holding a fn value (`forOwners`: O(k)
/// for an element held by k subregions).
class OwnerTable {
 public:
  /// With `firstClaim`, an element in several subregions belongs to the
  /// lowest-numbered one only: the ownership rule for aliased iteration
  /// partitions. Otherwise it keeps the ascending list of all its
  /// subregions, so the table answers exactly what IndexSet::contains
  /// would, even for a partition that breaks disjointness. Throws Error for
  /// a partition holding a negative index.
  OwnerTable(const Partition& partition, bool firstClaim);

  /// Whether subregion `piece` holds element i (under first claim: owns
  /// it).
  [[nodiscard]] bool owns(std::size_t piece, Index i) const {
    if (static_cast<std::uint64_t>(i) >= owner_.size()) return false;
    const std::int32_t o = owner_[static_cast<std::size_t>(i)];
    if (o >= 0) return static_cast<std::size_t>(o) == piece;
    return o != kNone && sharedHolds(o, piece);
  }

  /// Calls visit(j) for every subregion j holding element i, ascending.
  template <typename Visit>
  void forOwners(Index i, Visit&& visit) const {
    if (static_cast<std::uint64_t>(i) >= owner_.size()) return;
    const std::int32_t o = owner_[static_cast<std::size_t>(i)];
    if (o >= 0) {
      visit(static_cast<std::size_t>(o));
    } else if (o != kNone) {
      const auto s = static_cast<std::size_t>(kShared - o);
      for (std::uint32_t k = start_[s]; k < start_[s + 1]; ++k) {
        visit(static_cast<std::size_t>(shared_[k]));
      }
    }
  }

 private:
  static constexpr std::int32_t kNone = -1;
  /// An element held by several subregions stores kShared - s: its owners
  /// are shared_[start_[s], start_[s + 1]).
  static constexpr std::int32_t kShared = -2;

  [[nodiscard]] bool sharedHolds(std::int32_t o, std::size_t piece) const;

  std::vector<std::int32_t> owner_;
  std::vector<std::uint32_t> start_;
  std::vector<std::int32_t> shared_;
};

}  // namespace dpart::region
