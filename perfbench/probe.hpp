#pragma once

// The calibration probe: a fixed CPU workload whose duration tracks how fast
// this machine runs the benchmark's own kind of code right now. Every
// `_cal_ms` metric is a CPU time scaled by kProbeRefMs / (probe CPU ms
// measured just before the sample), which cancels the drift in VM speed
// between runs that raw CPU times carry.
//
// The probe has the workloads' profile — node-based map inserts with string
// keys, then an in-place sort — because a heap-free pointer-chase probe does
// not track that drift. It calls nothing in the library, and while timed it
// allocates only from its own preallocated std::pmr arena, so no allocator
// or library change can move it. It repeats a small map many times rather
// than building one large map: a working set that stays in cache makes the
// probe independent of where the kernel placed its pages, which otherwise
// differs from process to process and showed as a 12% per-process bias.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory_resource>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// Probe CPU time on the reference machine; `_cal_ms` values are in units of
/// "ms on a machine where the probe takes kProbeRefMs".
inline constexpr double kProbeRefMs = 25.0;

class Probe {
 public:
  Probe() : arena_(kArenaBytes) {}

  /// Runs the probe once and returns its process-CPU milliseconds.
  double measureMs() {
    const double t0 = cpuMs();
    for (int rep = 0; rep < kReps; ++rep) sink_ += runOnce(rep);
    return cpuMs() - t0;
  }

 private:
  static constexpr std::size_t kKeys = 2'000;
  static constexpr int kReps = 26;
  static constexpr std::size_t kArenaBytes = std::size_t{1} << 20;

  std::uint64_t runOnce(int rep) {
    std::pmr::monotonic_buffer_resource pool(
        arena_.data(), arena_.size(), std::pmr::null_memory_resource());
    std::pmr::map<std::pmr::string, std::uint64_t> map(&pool);
    std::pmr::vector<std::uint64_t> values(&pool);
    values.reserve(kKeys);
    std::uint64_t x = 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(rep);
    char key[40];
    for (std::size_t i = 0; i < kKeys; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      // 28-character keys: beyond the small-string buffer, so every key is
      // a second arena allocation, as in the library's symbol tables.
      std::snprintf(key, sizeof(key), "region.field.%015llu",
                    static_cast<unsigned long long>(x % 1'000'000'000'000ull));
      map.emplace(std::pmr::string(key, &pool), x);
    }
    std::uint64_t acc = 0;
    for (const auto& [k, v] : map) {
      values.push_back(v ^ k.size());
      acc += static_cast<unsigned char>(k[13]);
    }
    std::sort(values.begin(), values.end());
    for (std::size_t i = 0; i < values.size(); i += 97) acc += values[i];
    return acc;
  }

  std::vector<std::byte> arena_;
  std::uint64_t sink_ = 0;  // folds every result so no work is optimized away
};

}  // namespace perfbench
