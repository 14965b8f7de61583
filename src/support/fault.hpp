#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "support/check.hpp"
#include "support/hash.hpp"

namespace dpart {

/// What an armed fault site does when it fires.
enum class FaultKind {
  Crash,      ///< the site throws after doing a deterministic part of its work
  Poison,     ///< the site corrupts its result before failing/continuing
  Straggler,  ///< the site stalls for `stragglerMicros` before proceeding
  /// A "node:<id>" site dies for good: unlike Crash, the executor must not
  /// retry in place — it escalates to checkpoint restore with the node
  /// removed from the machine (elastic shrink).
  PermanentCrash,
  /// A "checkpoint:write:<gen>" site flips bytes in the serialized blob
  /// *after* the CRC32 is computed, modelling silent media corruption that
  /// the framed reader must detect and fall back from.
  CorruptCheckpoint,
};

inline const char* toString(FaultKind k) {
  switch (k) {
    case FaultKind::Crash: return "Crash";
    case FaultKind::Poison: return "Poison";
    case FaultKind::Straggler: return "Straggler";
    case FaultKind::PermanentCrash: return "PermanentCrash";
    case FaultKind::CorruptCheckpoint: return "CorruptCheckpoint";
  }
  return "?";
}

/// Configuration of one armed site prefix.
struct FaultSpec {
  FaultKind kind = FaultKind::Crash;
  /// Probability that a given arrival fires (ignored when afterArrivals > 0).
  double probability = 1.0;
  /// Fire deterministically on exactly the Nth arrival at a site (1-based);
  /// 0 = probabilistic per arrival.
  std::uint64_t afterArrivals = 0;
  /// Stop firing at a site after this many fires there — a bounded-retry
  /// executor is then guaranteed to succeed within maxFires + 1 attempts.
  std::uint64_t maxFires = std::uint64_t(-1);
  /// Straggler stall, microseconds.
  std::uint64_t stragglerMicros = 0;
};

/// A fired fault, as seen by the site that called fire().
struct Fault {
  FaultKind kind = FaultKind::Crash;
  /// Deterministic uniform draw in [0,1) for this (site, arrival); sites use
  /// it to pick *where* to fail (e.g. how much of a task to execute before
  /// crashing) without consuming any shared RNG state.
  double magnitude = 0;
  std::uint64_t stragglerMicros = 0;
};

/// Deterministic, seedable fault-injection registry.
///
/// Sites are strings like "task:<loop>:<piece>", "loop:<name>" or
/// "dpl:image"; arm() matches by longest prefix, so arm("task:") injects
/// into every task while arm("task:flux:3") pins one task. The fire decision
/// for the Nth arrival at a site is a pure function of (seed, site, N), so
/// outcomes do not depend on thread interleavings: a crashed task's retry is
/// arrival N+1 at the same site and draws its own independent decision.
/// Fire counts are tracked per concrete site, so maxFires bounds how often
/// each individual site can fail. All methods are thread-safe.
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 0) : seed_(seed) {}

  /// Arms every site starting with `sitePrefix`. Re-arming a prefix
  /// replaces its spec.
  void arm(std::string sitePrefix, FaultSpec spec) {
    std::lock_guard lock(mutex_);
    armed_[std::move(sitePrefix)] = spec;
  }

  void disarm(const std::string& sitePrefix) {
    std::lock_guard lock(mutex_);
    armed_.erase(sitePrefix);
  }

  /// Check-in from a fault site: counts the arrival and returns the fault to
  /// simulate, if any.
  std::optional<Fault> fire(const std::string& site) {
    std::lock_guard lock(mutex_);
    const std::uint64_t n = ++arrivals_[site];
    const FaultSpec* spec = match(site);
    if (spec == nullptr) return std::nullopt;
    std::uint64_t& fired = fires_[site];
    if (fired >= spec->maxFires) return std::nullopt;
    const bool fires = spec->afterArrivals > 0
                           ? n == spec->afterArrivals
                           : draw(site, n, 0) < spec->probability;
    if (!fires) return std::nullopt;
    ++fired;
    ++totalFires_;
    return Fault{spec->kind, draw(site, n, 1), spec->stragglerMicros};
  }

  [[nodiscard]] std::uint64_t arrivals(const std::string& site) const {
    std::lock_guard lock(mutex_);
    auto it = arrivals_.find(site);
    return it == arrivals_.end() ? 0 : it->second;
  }

  /// Fires at all sites matching the given prefix.
  [[nodiscard]] std::uint64_t firesAt(const std::string& sitePrefix) const {
    std::lock_guard lock(mutex_);
    std::uint64_t total = 0;
    for (const auto& [site, count] : fires_) {
      if (site.starts_with(sitePrefix)) total += count;
    }
    return total;
  }

  [[nodiscard]] std::uint64_t totalFires() const {
    std::lock_guard lock(mutex_);
    return totalFires_;
  }

 private:
  /// Longest armed prefix of `site`, or nullptr.
  [[nodiscard]] const FaultSpec* match(const std::string& site) const {
    const FaultSpec* best = nullptr;
    std::size_t bestLen = 0;
    for (const auto& [prefix, spec] : armed_) {
      if (site.starts_with(prefix) && prefix.size() + 1 > bestLen) {
        best = &spec;
        bestLen = prefix.size() + 1;  // +1 so "" (match-all) still wins once
      }
    }
    return best;
  }

  /// Deterministic uniform in [0,1) for (seed, site, arrival, salt):
  /// FNV-1a over the site mixed through SplitMix64 finalization.
  [[nodiscard]] double draw(const std::string& site, std::uint64_t arrival,
                            std::uint64_t salt) const {
    std::uint64_t z = fnv1a64(site) ^ (seed_ * 0x9e3779b97f4a7c15ULL) ^
                      (arrival * 0xbf58476d1ce4e5b9ULL) ^
                      (salt * 0x94d049bb133111ebULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);
  }

  std::uint64_t seed_;
  mutable std::mutex mutex_;
  std::map<std::string, FaultSpec> armed_;
  std::map<std::string, std::uint64_t> arrivals_;
  std::map<std::string, std::uint64_t> fires_;
  std::uint64_t totalFires_ = 0;
};

}  // namespace dpart
