#pragma once

#include <memory>

#include "apps/app_common.hpp"
#include "ir/ir.hpp"
#include "region/world.hpp"

namespace dpart::apps {

/// PENNANT (Section 6.5 / Figure 14e): Lagrangian hydrodynamics on a 2D
/// quadrilateral mesh of zones, sides and points. Each zone has four sides;
/// each side carries five pointers (zone, two corner points, previous and
/// next side) used in uncentered accesses — the paper's richest benchmark,
/// with 37 parallelizable loops in the main cycle.
///
/// The mesh generator follows the paper: points shared between pieces
/// (slab-boundary rows) occupy the *first* entries of the point region;
/// zones and sides are contiguous per piece. Four configurations:
///
///  - Auto: equal(rp) packs every shared point into subregion 0 — the
///    communication bottleneck past 4 nodes.
///  - Auto+Hint1: external point partitions (pp_private u pp_shared). Fixes
///    placement, but the solver still derives deep preimage/image chains
///    whose runtime handling limits scaling past ~64 nodes.
///  - Auto+Hint2: additionally reuses the generator's side/zone partitions
///    (recursive constraints on rs_p) and the private point partition
///    rp_p_private as a ready-made private sub-partition.
///  - Manual: the hand-optimized configuration (generator partitions,
///    full shared-block reduction buffers).
class PennantApp {
 public:
  struct Params {
    region::Index zx = 24;          ///< zones per row
    region::Index zyPerPiece = 24;  ///< zone rows per piece
    std::size_t pieces = 4;
  };

  explicit PennantApp(Params params);

  [[nodiscard]] region::World& world() { return *world_; }
  [[nodiscard]] const ir::Program& program() const { return program_; }
  [[nodiscard]] region::Index zones() const { return zones_; }
  [[nodiscard]] region::Index points() const { return points_; }

  [[nodiscard]] SimSetup autoSetup();
  [[nodiscard]] SimSetup hint1Setup();
  [[nodiscard]] SimSetup hint2Setup();
  [[nodiscard]] SimSetup manualSetup();

  [[nodiscard]] double workPerPiece() const {
    return static_cast<double>(params_.zx * params_.zyPerPiece);
  }

 private:
  void buildMesh();
  void buildProgram();
  [[nodiscard]] std::map<std::string, region::Partition> externalBindings()
      const;

  Params params_;
  std::unique_ptr<region::World> world_;
  ir::Program program_;
  region::Index zones_ = 0;
  region::Index sides_ = 0;
  region::Index points_ = 0;
  region::Partition rsP_;
  region::Partition rzP_;
  region::Partition ppPrivate_;
  region::Partition ppShared_;
};

}  // namespace dpart::apps
