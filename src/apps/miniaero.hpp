#pragma once

#include <memory>

#include "apps/app_common.hpp"
#include "ir/ir.hpp"
#include "region/world.hpp"

namespace dpart::apps {

/// MiniAero (Section 6.3 / Figure 14c): a proxy for an RK4 compressible-flow
/// solver on a 3D hexahedral mesh with faces shared between neighboring
/// cells. Every face loop of the main iteration reads face geometry and
/// cell state and updates cell residuals through uncentered reductions via
/// the face's left/right cell pointers — the pattern Section 5.1's
/// relaxation eliminates all reduction buffers for.
///
/// The main iteration has 26 parallelizable loops (as in the paper's
/// Table 1): 4 RK stages x (primitives, gradient, flux, viscous, stage sum,
/// residual zero) plus a copy-in and a time-step estimate.
///
/// Variants:
///  - Auto: sequential mesh; face subregions derived by the solver are
///    non-contiguous at slab boundaries (the ~2% kernel overhead the paper
///    attributes to non-contiguous face indexing).
///  - Manual: a distributed mesh whose generator duplicates slab-boundary
///    faces so each piece's faces are contiguously indexed (the paper's
///    hand-optimized mesh generator).
class MiniAeroApp {
 public:
  struct Params {
    region::Index nx = 16;
    region::Index ny = 16;
    region::Index nzPerPiece = 16;
    std::size_t pieces = 4;
  };

  /// duplicatedFaces = true builds the Manual variant's mesh.
  explicit MiniAeroApp(Params params, bool duplicatedFaces = false);

  [[nodiscard]] region::World& world() { return *world_; }
  [[nodiscard]] const ir::Program& program() const { return program_; }
  [[nodiscard]] region::Index cells() const { return cells_; }
  [[nodiscard]] region::Index faces() const { return faces_; }

  /// Auto-parallelized setup (on either mesh).
  [[nodiscard]] SimSetup autoSetup();

  /// Hand-optimized setup: contiguous equal face partition over the
  /// duplicated-face mesh, guarded reductions with the cell partition.
  [[nodiscard]] SimSetup manualSetup();

  [[nodiscard]] double workPerPiece() const {
    return static_cast<double>(params_.nx * params_.ny * params_.nzPerPiece);
  }

 private:
  Params params_;
  bool duplicated_;
  region::Partition faceBlocks_;
  std::unique_ptr<region::World> world_;
  ir::Program program_;
  region::Index cells_ = 0;
  region::Index faces_ = 0;
};

}  // namespace dpart::apps
