// An independent oracle for Algorithm 3 (constraint::unifySystems).
//
// The reference below is Algorithm 3 without shortcuts, built only from the
// public constraint API: every system collapses its plain edges on its own,
// and every cross-loop candidate is checked by a full trial solve.
// unifySystems runs collapse's trials once per loop shape and first solves
// each candidate with the last accepted solution pinned. Both must give the
// same UnifyResult: the same system, rendered, and the same renames.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/infer.hpp"
#include "analysis/parallelizable.hpp"
#include "apps/circuit.hpp"
#include "apps/miniaero.hpp"
#include "apps/pennant.hpp"
#include "apps/spmv.hpp"
#include "apps/stencil.hpp"
#include "constraint/solver.hpp"
#include "constraint/unify.hpp"
#include "optimize/reduction_opt.hpp"
#include "random_program.hpp"

namespace dpart {
namespace {

using constraint::GraphEdge;
using constraint::Solver;
using constraint::System;
using constraint::UnifyResult;
using constraint::UnifyStats;
using dpl::image;
using dpl::symbol;

// ---- the reference -------------------------------------------------------

class Reference {
 public:
  explicit Reference(std::set<std::string> rangeFns)
      : rangeFns_(std::move(rangeFns)) {}

  UnifyResult unify(std::vector<System> systems) {
    UnifyResult result;
    if (systems.empty()) return result;
    std::map<std::string, std::string> collapsed;
    for (System& s : systems) collapse(s, collapsed);
    std::stable_sort(systems.begin(), systems.end(),
                     [](const System& a, const System& b) {
                       return a.preds().size() + a.subsets().size() >
                              b.preds().size() + b.subsets().size();
                     });
    System combined = std::move(systems.front());
    for (std::size_t i = 1; i < systems.size(); ++i) {
      System next = std::move(systems[i]);
      while (unifyOnce(combined, next, result.renames)) {
      }
      combined.merge(next);
      combined = combined.substituted({});
    }
    result.system = std::move(combined);
    result.renames.merge(collapsed);
    return result;
  }

  std::size_t collapseTrials = 0;
  std::size_t crossTrials = 0;

 private:
  struct Candidate {
    std::vector<std::pair<std::string, std::string>> pairs;
    std::size_t edges = 0;
  };

  bool solvable(const System& s,
                const std::map<std::string, dpl::ExprPtr>& initial) const {
    Solver solver(s, rangeFns_);
    solver.setMaxSteps(20000);
    return solver.solve(initial).ok;
  }

  void collapse(System& s, std::map<std::string, std::string>& renames) {
    for (bool changed = true; changed;) {
      changed = false;
      for (const GraphEdge& e : constraint::constraintGraph(s)) {
        if (!e.label.empty() || e.from == e.to || s.isFixed(e.to) ||
            !s.hasSymbol(e.from) || !s.hasSymbol(e.to) ||
            s.regionOf(e.from) != s.regionOf(e.to)) {
          continue;
        }
        System trial = s;
        trial.renameSymbol(e.to, e.from);
        ++collapseTrials;
        if (!solvable(trial, {})) continue;
        s = std::move(trial);
        renames[e.to] = e.from;
        changed = true;
        break;
      }
    }
  }

  // The components of the product of the two constraint graphs, biggest
  // first: nodes pair symbols of one region (not both fixed; a symbol
  // paired with itself is an anchor), edges pair equally labeled edges.
  static std::vector<Candidate> candidates(const System& merged,
                                           const System& a,
                                           const System& b) {
    std::vector<std::pair<std::string, std::string>> nodes;
    std::map<std::pair<std::string, std::string>, std::size_t> index;
    auto node = [&](const std::string& x, const std::string& y) -> long {
      const auto it = index.find({x, y});
      if (it != index.end()) return static_cast<long>(it->second);
      if (!merged.hasSymbol(x) || !merged.hasSymbol(y)) return -1;
      if (x != y && (merged.regionOf(x) != merged.regionOf(y) ||
                     (merged.isFixed(x) && merged.isFixed(y)))) {
        return -1;
      }
      index.emplace(std::make_pair(x, y), nodes.size());
      nodes.emplace_back(x, y);
      return static_cast<long>(nodes.size() - 1);
    };
    std::vector<std::pair<std::size_t, std::size_t>> edges;
    for (const GraphEdge& ea : constraint::constraintGraph(a)) {
      for (const GraphEdge& eb : constraint::constraintGraph(b)) {
        if (ea.label != eb.label) continue;
        const long u = node(ea.from, eb.from);
        const long v = node(ea.to, eb.to);
        if (u >= 0 && v >= 0) {
          edges.emplace_back(static_cast<std::size_t>(u),
                             static_cast<std::size_t>(v));
        }
      }
    }
    std::vector<std::size_t> parent(nodes.size());
    for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
    auto root = [&](std::size_t x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    for (const auto& [u, v] : edges) {
      const std::size_t ru = root(u);
      const std::size_t rv = root(v);
      if (ru != rv) parent[ru] = rv;
    }
    std::map<std::size_t, Candidate> byRoot;
    for (const auto& [u, v] : edges) byRoot[root(u)].edges += 1;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto it = byRoot.find(root(i));
      if (it == byRoot.end() || nodes[i].first == nodes[i].second) continue;
      it->second.pairs.push_back(nodes[i]);
    }
    std::vector<Candidate> out;
    for (auto& [r, cand] : byRoot) {
      std::set<std::string> used;
      std::vector<std::pair<std::string, std::string>> injective;
      for (const auto& [x, y] : cand.pairs) {
        if (used.contains(x) || used.contains(y)) continue;
        used.insert(x);
        used.insert(y);
        injective.emplace_back(x, y);
      }
      cand.pairs = std::move(injective);
      if (!cand.pairs.empty()) out.push_back(std::move(cand));
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Candidate& x, const Candidate& y) {
                       return x.edges > y.edges;
                     });
    return out;
  }

  // Accepts the first candidate a full trial solve allows; false when
  // there is none.
  bool unifyOnce(System& combined, System& next,
                 std::map<std::string, std::string>& renames) {
    System merged = combined;
    merged.merge(next);
    for (const Candidate& cand : candidates(merged, combined, next)) {
      std::map<std::string, dpl::ExprPtr> initial;
      std::vector<std::pair<std::string, std::string>> oriented;
      bool valid = true;
      for (const auto& [x, y] : cand.pairs) {
        // A fixed symbol survives; otherwise the accumulated one does.
        const bool keepY = merged.isFixed(y);
        const std::string& loser = keepY ? x : y;
        const std::string& survivor = keepY ? y : x;
        valid = valid && !initial.contains(loser);
        initial[loser] = symbol(survivor);
        oriented.emplace_back(loser, survivor);
      }
      if (!valid || initial.empty()) continue;
      ++crossTrials;
      if (!solvable(merged, initial)) continue;
      for (const auto& [loser, survivor] : oriented) {
        for (System* s : {&combined, &next}) {
          if (!s->hasSymbol(loser)) continue;
          if (!s->hasSymbol(survivor)) {
            s->declareSymbol(survivor, s->regionOf(loser),
                             merged.isFixed(survivor));
          }
          s->renameSymbol(loser, survivor);
        }
        renames[loser] = survivor;
      }
      return true;
    }
    return false;
  }

  std::set<std::string> rangeFns_;
};

// ---- inputs ----------------------------------------------------------------

std::set<std::string> rangeFnsOf(const region::World& world) {
  std::set<std::string> out;
  for (const std::string& id : world.fnIds()) {
    if (world.fn(id).isRangeValued()) out.insert(id);
  }
  return out;
}

// The loop systems AutoParallelizer hands Algorithm 3: Algorithm 1 per
// loop and, with `relax`, the Section 5.1 relaxation of each relaxable loop
// whose iteration region's loops all allow it.
std::vector<System> loopSystems(const region::World& world,
                                const ir::Program& program, bool relax) {
  constraint::SymbolGen gen;
  std::vector<analysis::ParallelizableResult> accesses;
  std::vector<analysis::LoopConstraints> loops;
  for (const ir::Loop& loop : program.loops) {
    accesses.push_back(analysis::checkParallelizable(world, loop));
    loops.push_back(analysis::inferConstraints(world, loop, gen));
  }
  std::map<std::string, bool> regionRelaxable;
  for (std::size_t i = 0; i < loops.size(); ++i) {
    bool& ok = regionRelaxable.try_emplace(loops[i].iterRegion, true)
                   .first->second;
    for (const analysis::AccessInfo& a : accesses[i].accesses) {
      const bool reduce = a.mode == analysis::AccessMode::Reduce;
      if (a.mode == analysis::AccessMode::Write || (reduce && a.centered)) {
        ok = false;
      }
      if (reduce && !a.centered &&
          !optimize::isRelaxable(accesses[i], loops[i])) {
        ok = false;
      }
    }
  }
  std::vector<System> out;
  for (std::size_t i = 0; i < loops.size(); ++i) {
    if (relax && regionRelaxable.at(loops[i].iterRegion) &&
        optimize::isRelaxable(accesses[i], loops[i])) {
      (void)optimize::relaxLoop(accesses[i], loops[i]);
    }
    out.push_back(loops[i].system);
  }
  return out;
}

// Checks unifySystems against the reference and returns its counts. Both
// check the same candidates; unifySystems runs at most as many collapse
// trials.
UnifyStats expectMatchesReference(const std::vector<System>& systems,
                                  const std::set<std::string>& rangeFns,
                                  const std::string& what) {
  Reference ref(rangeFns);
  const UnifyResult want = ref.unify(systems);
  const UnifyResult got = constraint::unifySystems(systems, rangeFns);
  EXPECT_EQ(got.system.toString(), want.system.toString()) << what;
  EXPECT_EQ(got.renames, want.renames) << what;
  EXPECT_EQ(got.stats.crossTrials, ref.crossTrials) << what;
  EXPECT_LE(got.stats.collapseTrials, ref.collapseTrials) << what;
  return got.stats;
}

struct AppCase {
  std::string name;
  const region::World* world;
  const ir::Program* program;
};

// Each app, relaxed as the compiler relaxes it and not relaxed. Relaxed,
// at most one cross-loop candidate per app misses its pinned solve, and
// MiniAero (26 loops, 4 shapes) and PENNANT (37 loops, 8 shapes) run at
// most 15 and 30 collapse trials.
void expectAppsMatch(const std::vector<AppCase>& apps) {
  for (const AppCase& app : apps) {
    const std::set<std::string> rangeFns = rangeFnsOf(*app.world);
    for (const bool relax : {true, false}) {
      const std::string what =
          app.name + (relax ? " (relaxed)" : " (not relaxed)");
      const UnifyStats stats = expectMatchesReference(
          loopSystems(*app.world, *app.program, relax), rangeFns, what);
      if (!relax) continue;
      EXPECT_LE(stats.pinnedMisses, 1u) << what;
      const std::map<std::string, std::size_t> maxCollapseTrials = {
          {"miniaero", 15}, {"pennant", 30}};
      if (const auto it = maxCollapseTrials.find(app.name);
          it != maxCollapseTrials.end()) {
        EXPECT_LE(stats.collapseTrials, it->second) << what;
      }
    }
  }
}

// ---- the applications and the random programs -------------------------------

TEST(UnifyOracle, FiveAppsAtTable1Sizes) {
  apps::SpmvApp spmv({.rowsPerPiece = 1024});
  apps::StencilApp stencil({});
  apps::CircuitApp circuit({});
  apps::MiniAeroApp miniaero({.nx = 8, .ny = 8, .nzPerPiece = 8});
  apps::PennantApp pennant({});
  expectAppsMatch({{"spmv", &spmv.world(), &spmv.program()},
                   {"stencil", &stencil.world(), &stencil.program()},
                   {"circuit", &circuit.world(), &circuit.program()},
                   {"miniaero", &miniaero.world(), &miniaero.program()},
                   {"pennant", &pennant.world(), &pennant.program()}});
}

// perfbench's compile workload: 4 pieces, its own Stencil width and a
// circuit graph drawn from the run's seed.
TEST(UnifyOracle, FiveAppsAtPerfbenchSizes) {
  apps::SpmvApp spmv({.rowsPerPiece = 1024, .pieces = 4});
  apps::StencilApp stencil({.rowsPerPiece = 64, .cols = 64, .pieces = 4});
  apps::CircuitApp circuit({.pieces = 4, .seed = 7});
  apps::MiniAeroApp miniaero(
      {.nx = 8, .ny = 8, .nzPerPiece = 8, .pieces = 4});
  apps::PennantApp pennant({.pieces = 4});
  expectAppsMatch({{"spmv", &spmv.world(), &spmv.program()},
                   {"stencil", &stencil.world(), &stencil.program()},
                   {"circuit", &circuit.world(), &circuit.program()},
                   {"miniaero", &miniaero.world(), &miniaero.program()},
                   {"pennant", &pennant.world(), &pennant.program()}});
}

TEST(UnifyOracle, RandomPrograms) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const fuzz::FuzzCase fc = fuzz::makeCase(seed);
    for (const bool relax : {true, false}) {
      expectMatchesReference(loopSystems(*fc.world, fc.program, relax),
                             rangeFnsOf(*fc.world),
                             "seed " + std::to_string(seed) +
                                 (relax ? " relaxed" : ""));
    }
  }
}

// ---- the paths of a cross-loop trial ---------------------------------------

// A loop over R, relaxed or not: its iteration partition `p1` (complete,
// disjoint) reads through f into S (p2), and p2 through h into T (p3).
System chainLoop(const std::string& p1, const std::string& p2,
                 const std::string& p3) {
  System s;
  s.declareSymbol(p1, "R");
  s.addComp(symbol(p1), "R");
  s.addDisj(symbol(p1));
  s.declareSymbol(p2, "S");
  s.addSubset(image(symbol(p1), "f", "S"), symbol(p2));
  s.declareSymbol(p3, "T");
  s.addSubset(image(symbol(p2), "h", "T"), symbol(p3));
  return s;
}

// Three loops of one shape: the third one's candidate pins every symbol,
// its losers through their survivors' values, and the pinned solve accepts.
TEST(UnifyOracle, PinnedSolveAcceptsWhenEverySymbolIsPinned) {
  const UnifyStats stats = expectMatchesReference(
      {chainLoop("X1", "X2", "X3"), chainLoop("Y1", "Y2", "Y3"),
       chainLoop("Z1", "Z2", "Z3")},
      {}, "three chains");
  EXPECT_EQ(stats.crossTrials, 2u);
  EXPECT_EQ(stats.pinnedMisses, 0u);
}

// The first accepted solution reads X3 = image(image(equal(R), f, S), h,
// T). A third loop needs its own p3 disjoint: pinned, X3 cannot be, but the
// full search finds X3 = equal(T) with preimages behind it, so the
// candidate is accepted after the pinned solve fails.
TEST(UnifyOracle, FailedPinnedSolveFallsBackToAFullSearch) {
  System third;
  third.declareSymbol("V", "S");
  third.declareSymbol("W", "T");
  third.addDisj(symbol("W"));
  third.addSubset(image(symbol("V"), "h", "T"), symbol("W"));
  const UnifyStats stats = expectMatchesReference(
      {chainLoop("X1", "X2", "X3"), chainLoop("Y1", "Y2", "Y3"), third}, {},
      "pinned miss");
  EXPECT_EQ(stats.crossTrials, 2u);
  EXPECT_EQ(stats.pinnedMisses, 1u);
  const UnifyResult res = constraint::unifySystems(
      {chainLoop("X1", "X2", "X3"), chainLoop("Y1", "Y2", "Y3"), third}, {});
  EXPECT_EQ(res.resolve("V"), "X2");
  EXPECT_EQ(res.resolve("W"), "X3");
}

// An external partition of R that nobody asserted disjoint cannot stand in
// for a loop's disjoint iteration partition: with the first solution pinned
// and in full, the candidate is rejected.
TEST(UnifyOracle, CandidateRejectedWithAPinnedSolution) {
  System ext;
  ext.declareSymbol("pR", "R", /*fixed=*/true);
  ext.declareSymbol("pS", "S", /*fixed=*/true);
  ext.addSubset(image(symbol("pR"), "f", "S"), symbol("pS"),
                /*assumed=*/true);
  ext.addComp(symbol("pR"), "R", /*assumed=*/true);
  const UnifyStats stats = expectMatchesReference(
      {chainLoop("X1", "X2", "X3"), chainLoop("Y1", "Y2", "Y3"), ext}, {},
      "rejected");
  EXPECT_EQ(stats.crossTrials, 2u);
  EXPECT_EQ(stats.pinnedMisses, 1u);
  const UnifyResult res = constraint::unifySystems(
      {chainLoop("X1", "X2", "X3"), chainLoop("Y1", "Y2", "Y3"), ext}, {});
  EXPECT_FALSE(res.renames.contains("X1"));
  EXPECT_TRUE(res.system.hasSymbol("pR"));
}

// ---- loop shapes -----------------------------------------------------------

// Two loops of one shape whose symbols sort differently by name than by
// position: System::substituted re-declares symbols in name order, so the
// second loop's PART predicates read P10, P11, P12, P8, P9. The shape's
// bijection comes from the subsets, and the second loop replays the first
// one's collapse without a trial.
TEST(UnifyOracle, LoopShapeIgnoresNameOrder) {
  auto loop = [](const std::string& it, const std::string& rd,
                 const std::string& wr, const std::string& nb,
                 const std::string& gh) {
    System s;
    s.declareSymbol(it, "R");
    s.addComp(symbol(it), "R");
    s.addDisj(symbol(it));
    s.declareSymbol(rd, "R");
    s.addSubset(symbol(it), symbol(rd));
    s.declareSymbol(wr, "R");
    s.addSubset(symbol(it), symbol(wr));
    s.declareSymbol(nb, "S");
    s.addSubset(image(symbol(rd), "f", "S"), symbol(nb));
    s.declareSymbol(gh, "S");
    s.addSubset(image(symbol(nb), "g", "S"), symbol(gh));
    return s.substituted({});
  };
  const System first = loop("P1", "P2", "P3", "P4", "P5");
  const System second = loop("P8", "P9", "P10", "P11", "P12");
  ASSERT_EQ(second.preds().front().expr->name, "P10");

  Reference ref({});
  (void)ref.unify({first});
  const UnifyStats stats =
      expectMatchesReference({first, second}, {}, "P9 vs P10");
  EXPECT_EQ(stats.collapseTrials, ref.collapseTrials);
  const UnifyResult res = constraint::unifySystems({first, second}, {});
  EXPECT_EQ(res.resolve("P9"), "P1");
  EXPECT_EQ(res.resolve("P10"), "P1");
  EXPECT_EQ(res.resolve("P11"), "P4");
}

}  // namespace
}  // namespace dpart
