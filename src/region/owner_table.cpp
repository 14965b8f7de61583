#include "region/owner_table.hpp"

#include <algorithm>
#include <limits>

#include "support/check.hpp"

namespace dpart::region {

OwnerTable::OwnerTable(const Partition& partition, bool firstClaim) {
  Index extent = 0;
  for (const IndexSet& sub : partition.subregions()) {
    if (sub.empty()) continue;
    DPART_CHECK(sub.lowerBound() >= 0, "negative index in partition of " +
                                           partition.regionName());
    extent = std::max(extent, sub.upperBound());
  }
  owner_.assign(static_cast<std::size_t>(extent), kNone);
  // First pass: single owners, and an owner count per shared element.
  std::vector<std::uint32_t> counts;
  for (std::size_t j = 0; j < partition.count(); ++j) {
    const auto piece = static_cast<std::int32_t>(j);
    for (const Run& r : partition.sub(j).runs()) {
      for (Index i = r.lo; i < r.hi; ++i) {
        std::int32_t& o = owner_[static_cast<std::size_t>(i)];
        if (o == kNone) {
          o = piece;
        } else if (firstClaim) {
          continue;
        } else if (o >= 0) {
          o = kShared - static_cast<std::int32_t>(counts.size());
          counts.push_back(2);
        } else {
          ++counts[static_cast<std::size_t>(kShared - o)];
        }
      }
    }
  }
  if (counts.empty()) return;
  // Second pass: the owner lists, filled in piece order so each ascends.
  start_.resize(counts.size() + 1, 0);
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    total += counts[s];
    DPART_CHECK(total <= std::numeric_limits<std::uint32_t>::max(),
                "too many shared elements in partition of " +
                    partition.regionName());
    start_[s + 1] = static_cast<std::uint32_t>(total);
    counts[s] = start_[s];  // from here on: the list's fill cursor
  }
  shared_.resize(static_cast<std::size_t>(total));
  for (std::size_t j = 0; j < partition.count(); ++j) {
    for (const Run& r : partition.sub(j).runs()) {
      for (Index i = r.lo; i < r.hi; ++i) {
        const std::int32_t o = owner_[static_cast<std::size_t>(i)];
        if (o <= kShared) {
          shared_[counts[static_cast<std::size_t>(kShared - o)]++] =
              static_cast<std::int32_t>(j);
        }
      }
    }
  }
}

bool OwnerTable::sharedHolds(std::int32_t o, std::size_t piece) const {
  const auto s = static_cast<std::size_t>(kShared - o);
  const auto first = shared_.begin() + start_[s];
  const auto last = shared_.begin() + start_[s + 1];
  return std::binary_search(first, last, static_cast<std::int32_t>(piece));
}

}  // namespace dpart::region
