#include "parallelize/solve_cache.hpp"

#include "support/check.hpp"

namespace dpart::parallelize {

Resolution Resolution::mapped(const constraint::NameMaps& m) const {
  Resolution out;
  for (const auto& [from, to] : renames) {
    out.renames[m.symbol(from)] = m.symbol(to);
  }
  out.solution.ok = solution.ok;
  for (const auto& [sym, expr] : solution.assignments) {
    out.solution.assignments[m.symbol(sym)] = constraint::mapExpr(expr, m);
  }
  out.solution.order.reserve(solution.order.size());
  for (const std::string& sym : solution.order) {
    out.solution.order.push_back(m.symbol(sym));
  }
  out.solution.resolved = constraint::mapSystem(solution.resolved, m);
  for (const std::string& sym : fixedSymbols) {
    out.fixedSymbols.insert(m.symbol(sym));
  }
  return out;
}

SolveCache::SolveCache(std::size_t capacity) : capacity_(capacity) {
  DPART_CHECK(capacity_ > 0, "SolveCache capacity must be positive");
}

std::shared_ptr<const SolveCacheEntry> SolveCache::find(
    std::uint64_t hash, const std::string& rendering) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(hash);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  if (it->second->second->rendering != rendering) {
    ++renderingConflicts_;
    ++misses_;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  return it->second->second;
}

void SolveCache::insert(std::uint64_t hash,
                        std::shared_ptr<const SolveCacheEntry> entry) {
  DPART_CHECK(entry != nullptr, "SolveCache::insert: null entry");
  std::lock_guard<std::mutex> lock(mu_);
  if (index_.contains(hash)) return;  // first solve wins; entries immutable
  lru_.emplace_front(hash, std::move(entry));
  index_[hash] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

SolveCache::Stats SolveCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.renderingConflicts = renderingConflicts_;
  s.entries = lru_.size();
  return s;
}

}  // namespace dpart::parallelize
