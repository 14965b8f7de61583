// The random program generator of random_program_test (and of the
// Algorithm 3 oracle in unify_oracle_test): parallelizable-by-construction
// multi-loop programs over randomly wired regions, one per seed.

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "ir/ir.hpp"
#include "region/world.hpp"
#include "support/rng.hpp"

namespace dpart::fuzz {

using region::FieldType;
using region::Index;
using region::World;

struct FuzzCase {
  std::unique_ptr<World> world;
  ir::Program program;
};

// Two regions: A (with scalar fields a0,a1 and a pointer field into B) and
// B (with scalar fields b0,b1). Several affine maps on each.
inline FuzzCase makeCase(std::uint64_t seed) {
  Rng rng(seed);
  FuzzCase fc;
  fc.world = std::make_unique<World>();
  World& w = *fc.world;
  const Index nA = 32 + static_cast<Index>(rng.below(96));
  const Index nB = 16 + static_cast<Index>(rng.below(48));
  auto& A = w.addRegion("A", nA);
  auto& B = w.addRegion("B", nB);
  A.addField("a0", FieldType::F64);
  A.addField("a1", FieldType::F64);
  A.addField("ptr", FieldType::Idx);
  B.addField("b0", FieldType::F64);
  B.addField("b1", FieldType::F64);
  auto a0 = A.f64("a0");
  auto ptr = A.idx("ptr");
  for (Index i = 0; i < nA; ++i) {
    a0[static_cast<std::size_t>(i)] = rng.uniform();
    ptr[static_cast<std::size_t>(i)] = rng.range(0, nB);
  }
  auto b0 = B.f64("b0");
  for (Index i = 0; i < nB; ++i) {
    b0[static_cast<std::size_t>(i)] = rng.uniform();
  }
  w.defineFieldFn("A", "ptr", "B");
  const Index offA = rng.range(1, nA);
  w.defineAffineFn("gA", "A", "A",
                   [nA, offA](Index i) { return (i + offA) % nA; });
  const Index offB = rng.range(1, nB);
  w.defineAffineFn("gB", "A", "B",
                   [nB, offB](Index i) { return (i * 7 + offB) % nB; });
  w.defineAffineFn("hB", "B", "B",
                   [nB](Index i) { return (i + 1) % nB; });

  // Loop templates, each parallelizable by construction. Reduction
  // operators vary; conflicting same-field access combinations are avoided
  // per template, and templates only conflict across loops (which is
  // legal).
  fc.program.name = "fuzz" + std::to_string(seed);
  const int nLoops = 2 + static_cast<int>(rng.below(4));
  for (int l = 0; l < nLoops; ++l) {
    const int t = static_cast<int>(rng.below(5));
    const std::string ln = "loop" + std::to_string(l);
    switch (t) {
      case 0: {  // centered map on A
        ir::LoopBuilder b(ln, "i", "A");
        b.loadF64("x", "A", "a0", "i");
        b.compute("y", {"x"}, [](auto v) { return v[0] * 1.25 + 0.5; });
        b.store("A", "a1", "i", "y");
        fc.program.loops.push_back(b.build());
        break;
      }
      case 1: {  // uncentered read of B via pointer, centered write to A
        ir::LoopBuilder b(ln, "i", "A");
        b.loadIdx("j", "A", "ptr", "i");
        b.loadF64("x", "B", "b0", "j");
        b.apply("j2", "hB", "j");
        b.loadF64("x2", "B", "b0", "j2");
        b.compute("y", {"x", "x2"}, [](auto v) { return v[0] - v[1]; });
        b.store("A", "a1", "i", "y");
        fc.program.loops.push_back(b.build());
        break;
      }
      case 2: {  // single uncentered reduction to B (disjoint-reduction or
                 // relaxation territory, depending on group)
        const ir::ReduceOp op =
            rng.chance(0.5) ? ir::ReduceOp::Sum : ir::ReduceOp::Max;
        ir::LoopBuilder b(ln, "i", "A");
        b.loadF64("x", "A", "a0", "i");
        b.apply("j", "gB", "i");
        b.reduce("B", "b1", "j", "x", op);
        fc.program.loops.push_back(b.build());
        break;
      }
      case 3: {  // two uncentered reductions through different maps
        ir::LoopBuilder b(ln, "i", "A");
        b.loadF64("x", "A", "a0", "i");
        b.loadIdx("j1", "A", "ptr", "i");
        b.apply("j2", "gB", "i");
        b.reduce("B", "b1", "j1", "x");
        b.reduce("B", "b1", "j2", "x");
        fc.program.loops.push_back(b.build());
        break;
      }
      case 4: {  // centered loop on B mixing store and centered reduce
        ir::LoopBuilder b(ln, "j", "B");
        b.loadF64("x", "B", "b1", "j");
        b.compute("y", {"x"}, [](auto v) { return 0.5 * v[0]; });
        b.reduce("B", "b0", "j", "y");
        b.store("B", "b1", "j", "y");
        fc.program.loops.push_back(b.build());
        break;
      }
    }
  }
  return fc;
}

}  // namespace dpart::fuzz
