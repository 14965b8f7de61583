#pragma once

#include <vector>

#include "region/index_set.hpp"

namespace dpart::region {

/// Per-thread scratch for the per-subregion fan-out in the DPL kernels
/// (image and preimage). Each worker reuses one arena across all the pieces
/// it processes: the fn values of a source run land in `indexVals` /
/// `runVals`, and image feeds them to `builder`, whose runs, chunk
/// directory and chunk bitmaps keep their capacity across build() calls.
///
/// Buffers only grow (clear() keeps capacity), so after the first few
/// pieces the arena is sized for the largest piece and the fan-out stops
/// allocating scratch.
struct ScratchArena {
  IndexSetBuilder builder;       // image's accumulator
  std::vector<Run> runVals;      // batch-fn range results
  std::vector<Index> indexVals;  // batch-fn point results

  /// The calling thread's arena. Thread-local, so pool workers and the
  /// serial path each get a stable instance with no synchronization.
  static ScratchArena& local() {
    static thread_local ScratchArena arena;
    return arena;
  }
};

}  // namespace dpart::region
