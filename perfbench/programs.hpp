#pragma once

// Seeded generator of the service workloads' request programs.
//
// Every program iterates region A with kMinLoops to kMaxLoops loops. A loop
// of kind d <= kDepths chases pointers A.p -> B1.p -> ... -> Bd and reads
// Bd.val into A.out (a centered write; kind 0 reads A.val itself). The two
// remaining kinds are uncentered reductions into B1.acc through A.p: one
// adds A.val, the other B1.val. Uncentered reductions deeper in the chain
// are left out: they make the solver search for seconds. A program is
// therefore a multiset of loop kinds. Two programs whose multisets differ
// have non-isomorphic constraint systems (the number of loops of each kind
// is an isomorphism invariant), so a generator that never repeats a
// multiset never produces two isomorphic programs. Renaming the regions of
// a program changes its request bytes but not its isomorphism class.

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir/ir.hpp"
#include "region/world.hpp"
#include "service/protocol.hpp"
#include "support/rng.hpp"

namespace perfbench {

class ProgramGenerator {
 public:
  static constexpr int kMinLoops = 5;
  static constexpr int kMaxLoops = 8;
  static constexpr int kDepths = 4;
  static constexpr int kKinds = kDepths + 3;
  static constexpr std::uint64_t kPieces = 4;

  /// A program's loop kinds in program order.
  using Kinds = std::vector<int>;

  explicit ProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  /// Kinds of a program with `loops` loops (in [kMinLoops, kMaxLoops]),
  /// not isomorphic to any this generator returned before. The smallest
  /// count has C(11, 5) = 462 multisets, about twice what a 15-second
  /// service_novel run draws; a run that exhausts a count moves on to the
  /// next one.
  Kinds fresh(int loops) {
    while (true) {
      std::uint64_t multisets = 1;  // C(loops + kKinds - 1, loops)
      for (int i = 1; i < kKinds; ++i) multisets = multisets * (loops + i) / i;
      if (drawn_[loops] < multisets) break;
      if (++loops > kMaxLoops) {
        throw std::runtime_error("program generator ran out of programs");
      }
    }
    while (true) {
      Kinds kinds(static_cast<std::size_t>(loops));
      for (int& k : kinds) k = static_cast<int>(rng_.below(kKinds));
      Kinds key = kinds;
      std::sort(key.begin(), key.end());
      if (used_.insert(key).second) {
        ++drawn_[loops];
        return kinds;
      }
    }
  }

  /// The request for `kinds`, with every region name carrying `suffix`.
  static dpart::service::PlanRequest request(const Kinds& kinds,
                                             const std::string& suffix) {
    dpart::region::World world;
    buildWorld(world, suffix);
    dpart::service::PlanRequest req;
    req.tenant = "perfbench";
    req.pieces = kPieces;
    req.world = dpart::service::WorldShape::describe(world);
    req.program = program(kinds, suffix);
    return req;
  }

 private:
  static std::string chainRegion(int level, const std::string& suffix) {
    return level == 0 ? "A" + suffix
                      : "B" + std::to_string(level) + suffix;
  }

  static void buildWorld(dpart::region::World& world,
                         const std::string& suffix) {
    using dpart::region::FieldType;
    for (int level = 0; level <= kDepths; ++level) {
      auto& r = world.addRegion(chainRegion(level, suffix),
                                level == 0 ? 512 : 128);
      r.addField("val", FieldType::F64);
      r.addField(level == 0 ? "out" : "acc", FieldType::F64);
      if (level < kDepths) r.addField("p", FieldType::Idx);
    }
    for (int level = 0; level < kDepths; ++level) {
      world.defineFieldFn(chainRegion(level, suffix), "p",
                          chainRegion(level + 1, suffix));
    }
  }

  static dpart::ir::Program program(const Kinds& kinds,
                                    const std::string& suffix) {
    dpart::ir::Program prog;
    prog.name = "generated";
    const std::string a = chainRegion(0, suffix);
    for (std::size_t l = 0; l < kinds.size(); ++l) {
      const bool reduces = kinds[l] > kDepths;
      const int depth = reduces ? 1 : kinds[l];
      dpart::ir::LoopBuilder b("loop" + std::to_string(l), "i", a);
      std::string idx = "i";
      for (int level = 0; level < depth; ++level) {
        const std::string next = "j" + std::to_string(level + 1);
        b.loadIdx(next, chainRegion(level, suffix), "p", idx);
        idx = next;
      }
      const std::string target = chainRegion(depth, suffix);
      if (reduces) {
        if (kinds[l] == kDepths + 1) {
          b.loadF64("x", a, "val", "i");
        } else {
          b.loadF64("x", target, "val", idx);
        }
        b.reduce(target, "acc", idx, "x");
      } else {
        b.loadF64("x", target, "val", idx);
        b.store(a, "out", "i", "x");
      }
      prog.loops.push_back(b.build());
    }
    return prog;
  }

  dpart::Rng rng_;
  std::set<Kinds> used_;
  std::map<int, std::uint64_t> drawn_;  // programs returned, per loop count
};

}  // namespace perfbench
