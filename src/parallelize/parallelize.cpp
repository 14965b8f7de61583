#include "parallelize/parallelize.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "constraint/canonical.hpp"
#include "constraint/entail.hpp"
#include "constraint/proof.hpp"
#include "constraint/solver.hpp"
#include "constraint/unify.hpp"
#include "parallelize/solve_cache.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"

namespace dpart::parallelize {

using analysis::AccessMode;
using constraint::System;
using dpl::ExprKind;
using dpl::ExprPtr;
using optimize::ReducePlan;
using optimize::ReduceStrategy;

std::string ParallelPlan::toString() const {
  std::ostringstream os;
  os << "=== DPL program ===\n" << dpl.toString();
  os << "=== loop plans ===\n";
  for (const PlannedLoop& pl : loops) {
    os << pl.loop->name << ": iter=" << pl.iterPartition
       << (pl.relaxed ? " (relaxed)" : "") << '\n';
    for (const auto& [stmtId, sym] : pl.accessPartition) {
      os << "  stmt#" << stmtId << " -> " << sym;
      auto it = pl.reduces.find(stmtId);
      if (it != pl.reduces.end()) {
        os << " [" << optimize::toString(it->second.strategy);
        if (!it->second.privatePart.empty()) {
          os << " priv=" << it->second.privatePart
             << " shared=" << it->second.sharedPart;
        }
        os << ']';
      }
      os << '\n';
    }
  }
  return os.str();
}

namespace {

void writeProofFile(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  DPART_CHECK(os.good(), "cannot open proof file '" + path + "'");
  os << text;
  os.flush();
  DPART_CHECK(os.good(), "failed writing proof file '" + path + "'");
}

/// Renders one expectation as the certificate's key=value tokens
/// (provenance text contains spaces and is omitted; the checker re-derives
/// obligations from the plan section, so `why` is display-only anyway).
std::string expectationTokens(const region::PartitionExpectation& e) {
  std::ostringstream os;
  os << "partition=" << e.partition;
  if (!e.region.empty()) os << " region=" << e.region;
  if (e.pieces > 0) os << " pieces=" << e.pieces;
  if (e.disjoint) os << " disjoint=1";
  if (e.complete) os << " complete=1";
  if (!e.containedIn.empty()) os << " containedIn=" << e.containedIn;
  if (e.maxPieceElems > 0) os << " capacity=" << e.maxPieceElems;
  if (e.replicationMin > 0) os << " replicationMin=" << e.replicationMin;
  if (e.replicationMax > 0) os << " replicationMax=" << e.replicationMax;
  if (!e.colocateWith.empty()) os << " colocateWith=" << e.colocateWith;
  if (!e.antiAffineWith.empty()) {
    os << " antiAffineWith=" << e.antiAffineWith;
  }
  return os.str();
}

}  // namespace

std::vector<region::PartitionExpectation> planExpectations(
    const ParallelPlan& plan, std::size_t pieces) {
  // Merged per symbol: unification reuses partitions across loops, and the
  // strongest requirement from any use applies.
  std::map<std::string, region::PartitionExpectation> merged;
  auto note = [&](const std::string& symbol, const std::string& regionName,
                  bool disjoint, bool complete, const std::string& containedIn,
                  const std::string& why) {
    auto [it, inserted] = merged.try_emplace(symbol);
    region::PartitionExpectation& e = it->second;
    if (inserted) {
      e.partition = symbol;
      e.pieces = pieces;
    }
    if (e.region.empty()) e.region = regionName;
    e.disjoint = e.disjoint || disjoint;
    e.complete = e.complete || complete;
    if (e.containedIn.empty()) e.containedIn = containedIn;
    if (e.why.empty()) e.why = why;
  };

  for (const PlannedLoop& pl : plan.loops) {
    const std::string& ln = pl.loop->name;
    note(pl.iterPartition, pl.loop->iterRegion, /*disjoint=*/!pl.relaxed,
         /*complete=*/true, "", "iteration partition of loop '" + ln + "'");
    pl.loop->forEachStmt([&](const ir::Stmt& s) {
      switch (s.kind) {
        case ir::StmtKind::LoadF64:
        case ir::StmtKind::LoadIdx:
        case ir::StmtKind::LoadRange:
        case ir::StmtKind::StoreF64:
        case ir::StmtKind::ReduceF64: {
          auto it = pl.accessPartition.find(s.id);
          if (it == pl.accessPartition.end()) break;
          bool disjoint = false;
          auto rit = pl.reduces.find(s.id);
          if (s.kind == ir::StmtKind::ReduceF64 && rit != pl.reduces.end() &&
              rit->second.strategy == optimize::ReduceStrategy::Direct) {
            // The optimizer picks Direct only for provably disjoint targets.
            disjoint = true;
          }
          note(it->second, s.region, disjoint, /*complete=*/false, "",
               "access partition of stmt " + std::to_string(s.id) +
                   " in loop '" + ln + "'");
          break;
        }
        default:
          break;
      }
    });
    for (const auto& [stmtId, rp] : pl.reduces) {
      // Resolve the reduced region for partitions not used as a direct
      // access partition (guard / private / shared symbols).
      const ir::Stmt* reduced = pl.loop->findStmt(stmtId);
      const std::string reducedRegion = reduced ? reduced->region : "";
      switch (rp.strategy) {
        case optimize::ReduceStrategy::Direct:
          break;  // covered via the access partition above
        case optimize::ReduceStrategy::Guarded:
          // Guards must cover every target exactly once.
          note(rp.partition, reducedRegion, /*disjoint=*/true,
               /*complete=*/true, "",
               "guard partition of reduce stmt " + std::to_string(stmtId) +
                   " in loop '" + ln + "'");
          break;
        case optimize::ReduceStrategy::Buffered:
          note(rp.partition, reducedRegion, false, false, "",
               "buffered reduction partition of stmt " +
                   std::to_string(stmtId) + " in loop '" + ln + "'");
          break;
        case optimize::ReduceStrategy::PrivateSplit:
          note(rp.privatePart, reducedRegion, /*disjoint=*/true, false,
               rp.partition,
               "private sub-partition of reduce stmt " +
                   std::to_string(stmtId) + " in loop '" + ln + "'");
          note(rp.sharedPart, reducedRegion, false, false, rp.partition,
               "shared remainder of reduce stmt " + std::to_string(stmtId) +
                   " in loop '" + ln + "'");
          break;
      }
    }
  }

  // ---- External-vocabulary obligations (constraint/vocab) ----
  // The solver already enforced these symbolically; the runtime re-checks
  // them against the materialized partitions, so a model/ground-truth
  // mismatch surfaces as a verification failure rather than silent
  // misplacement.
  const constraint::SolverVocabulary& v = plan.solverVocab;
  for (const auto& [sym, cap] : v.capacity) {
    auto it = merged.find(sym);
    if (it != merged.end()) it->second.maxPieceElems = cap;
  }
  for (const auto& [sym, bounds] : v.replication) {
    auto it = merged.find(sym);
    if (it == merged.end()) continue;
    it->second.replicationMin = bounds.first;
    it->second.replicationMax = bounds.second;
  }
  for (const constraint::SolverVocabulary::SymbolPair& p : v.colocated) {
    if (auto it = merged.find(p.symA);
        it != merged.end() && it->second.colocateWith.empty()) {
      it->second.colocateWith = p.symB;
    } else if (auto jt = merged.find(p.symB);
               jt != merged.end() && jt->second.colocateWith.empty()) {
      jt->second.colocateWith = p.symA;
    }
  }
  for (const constraint::SolverVocabulary::SymbolPair& p : v.antiAffine) {
    if (auto it = merged.find(p.symA);
        it != merged.end() && it->second.antiAffineWith.empty()) {
      it->second.antiAffineWith = p.symB;
    } else if (auto jt = merged.find(p.symB);
               jt != merged.end() && jt->second.antiAffineWith.empty()) {
      jt->second.antiAffineWith = p.symA;
    }
  }

  std::vector<region::PartitionExpectation> out;
  out.reserve(merged.size());
  for (auto& [_, e] : merged) out.push_back(std::move(e));
  return out;
}

std::string vocabularyProblem(const constraint::Vocabulary& vocab,
                              const region::World& world,
                              std::size_t pieces) {
  for (const constraint::CapacityBound& cb : vocab.capacities) {
    if (!world.hasRegion(cb.region)) {
      return "capacity bound names unknown region '" + cb.region + "'";
    }
    if (cb.maxPerPiece == 0) {
      return "capacity bound on '" + cb.region + "' must be positive";
    }
  }
  for (const constraint::ReplicationBound& rb : vocab.replications) {
    if (!world.hasRegion(rb.region)) {
      return "replication bound names unknown region '" + rb.region + "'";
    }
    // Negated comparisons, so a NaN bound off the wire is a problem too.
    if (!(rb.minFactor >= 0)) {
      return "replication floor on '" + rb.region + "' must be non-negative";
    }
    if (!(rb.maxFactor <= 0 || rb.maxFactor >= rb.minFactor)) {
      return "replication bounds on '" + rb.region + "' are inverted";
    }
  }
  for (const constraint::FieldAffinity& fa : vocab.affinities) {
    for (const std::string& f : {fa.fieldA, fa.fieldB}) {
      const auto dot = f.find('.');
      if (dot == std::string::npos || dot == 0 || dot + 1 >= f.size()) {
        return "affinity field '" + f + "' must be 'region.field'";
      }
      if (!world.hasRegion(f.substr(0, dot))) {
        return "affinity field '" + f + "' names unknown region '" +
               f.substr(0, dot) + "'";
      }
    }
  }
  if (pieces == 0 &&
      !(vocab.capacities.empty() && vocab.replications.empty())) {
    return "Options::pieces must be set when capacity or replication "
           "bounds are present";
  }
  return "";
}

namespace {

/// One compile phase: the "compile"-category trace span and the
/// CompileStats field that report it open and close together, so the two
/// views of a phase always bracket the same code.
class Phase {
 public:
  Phase(Tracer* tracer, const char* name, double& ms)
      : span_(tracer, "compile", [name] { return std::string(name); }),
        ms_(ms) {}
  ~Phase() { ms_ += timer_.millis(); }

 private:
  TraceSpan span_;
  double& ms_;
  Timer timer_;
};

/// One loop as it moves through the stages: infer fills the access
/// analysis and the constraints, relax the reduction plan, and synthesize
/// settles each reduction's strategy.
struct LoopState {
  const ir::Loop* loop;
  analysis::ParallelizableResult accesses;
  analysis::LoopConstraints constraints;
  optimize::LoopReductionPlan reduction;
};

/// Infer (Algorithm 1): checks that every loop is parallelizable and infers
/// its constraint system.
std::vector<LoopState> infer(const region::World& world,
                             const ir::Program& program) {
  std::vector<LoopState> loops;
  constraint::SymbolGen gen;
  for (const ir::Loop& loop : program.loops) {
    LoopState st;
    st.loop = &loop;
    st.accesses = analysis::checkParallelizable(world, loop);
    DPART_CHECK(st.accesses.ok, "loop '" + loop.name +
                                    "' is not parallelizable: " +
                                    st.accesses.reason);
    st.constraints = analysis::inferConstraints(world, loop, gen);
    loops.push_back(std::move(st));
  }
  return loops;
}

/// Relax (Section 5.1, per iteration-region group), then plan every
/// remaining uncentered reduction as buffered (synthesize may upgrade it).
void relax(std::vector<LoopState>& loops, bool enableRelaxation) {
  if (enableRelaxation) {
    // The paper's heuristic: relax only when *all* loops using the same
    // iteration-space region can be relaxed. A loop with centered writes
    // cannot run on an aliased iteration partition without losing its
    // disjoint partition reuse, so it blocks its whole group (this is why
    // Circuit keeps reduction buffers while MiniAero sheds them).
    std::map<std::string, bool> groupRelaxable;
    for (const LoopState& st : loops) {
      bool& ok = groupRelaxable.try_emplace(st.loop->iterRegion, true)
                     .first->second;
      bool hasUncenteredReduce = false;
      bool hasCenteredWrite = false;
      for (const analysis::AccessInfo& a : st.accesses.accesses) {
        if (a.mode == AccessMode::Reduce && !a.centered) {
          hasUncenteredReduce = true;
        }
        if (a.mode == AccessMode::Write ||
            (a.mode == AccessMode::Reduce && a.centered)) {
          hasCenteredWrite = true;
        }
      }
      if (hasCenteredWrite) ok = false;
      if (hasUncenteredReduce &&
          !optimize::isRelaxable(st.accesses, st.constraints)) {
        ok = false;
      }
    }
    for (LoopState& st : loops) {
      if (!groupRelaxable.at(st.loop->iterRegion)) continue;
      if (!optimize::isRelaxable(st.accesses, st.constraints)) continue;
      st.reduction = optimize::relaxLoop(st.accesses, st.constraints);
    }
  }

  for (LoopState& st : loops) {
    if (st.reduction.relaxed) continue;
    for (const analysis::AccessInfo& a : st.accesses.accesses) {
      if (a.mode != AccessMode::Reduce || a.centered) continue;
      ReducePlan rp;
      rp.stmtId = a.stmt->id;
      rp.strategy = ReduceStrategy::Buffered;
      rp.partition = st.constraints.stmtSymbol.at(a.stmt->id);
      st.reduction.reduces.push_back(rp);
    }
  }
}

/// Key: the canonical form of the post-relaxation constraint state, so an
/// isomorphic program compiled before — under any renaming of symbols,
/// regions and fns — can reuse its resolution. The form covers everything
/// the resolve stage consumes: the loop and external constraint systems,
/// the range-fn set, the relevant options, each loop's relaxed flag and its
/// reduce-target symbols (which drive the disjoint-reduction attempt).
constraint::CanonicalForm canonicalKey(const std::vector<LoopState>& loops,
                                       const std::vector<System>& externals,
                                       const std::set<std::string>& rangeFns,
                                       const Options& options) {
  const std::uint64_t optionBits =
      (options.enableRelaxation ? 1u : 0u) |
      (options.enableDisjointReduction ? 2u : 0u) |
      (options.enablePrivateSubPartitions ? 4u : 0u) |
      (options.enableUnification ? 8u : 0u);
  std::vector<constraint::CanonicalLoop> canonLoops;
  canonLoops.reserve(loops.size());
  for (const LoopState& st : loops) {
    constraint::CanonicalLoop cl;
    cl.system = &st.constraints.system;
    cl.relaxed = st.reduction.relaxed;
    for (const ReducePlan& rp : st.reduction.reduces) {
      cl.reduceTargets.push_back(rp.partition);
    }
    canonLoops.push_back(std::move(cl));
  }
  std::vector<const System*> exts;
  exts.reserve(externals.size());
  for (const System& ext : externals) exts.push_back(&ext);
  return constraint::canonicalize(canonLoops, exts, rangeFns, optionBits);
}

/// Unify (Algorithm 3): collapses plain edges within each loop system, then
/// unifies symbols across the loop and external systems. Disabled, the
/// systems are merged as they are (the paper's naive per-access baseline).
constraint::UnifyResult unify(const std::vector<LoopState>& loops,
                              const std::vector<System>& externals,
                              const std::set<std::string>& rangeFns,
                              bool enableUnification) {
  std::vector<System> systems;
  systems.reserve(loops.size() + externals.size());
  for (const LoopState& st : loops) systems.push_back(st.constraints.system);
  systems.insert(systems.end(), externals.begin(), externals.end());
  if (enableUnification) {
    return constraint::unifySystems(std::move(systems), rangeFns);
  }
  constraint::UnifyResult out;
  for (const System& s : systems) out.system.merge(s);
  out.system = out.system.substituted({});
  return out;
}

/// Translates the user vocabulary onto the unified system's symbols.
/// Capacity / replication bounds on a region apply to every open symbol
/// partitioning it; field affinities bind the access partitions of the
/// named "region.field" statements (pairs keep the field names for
/// first-conflict provenance).
constraint::SolverVocabulary translateVocabulary(
    const constraint::Vocabulary& vocab,
    const constraint::UnifyResult& unified,
    const std::vector<LoopState>& loops) {
  constraint::SolverVocabulary svocab;
  const System& combined = unified.system;
  auto openSymbolsOf = [&](const std::string& regionName) {
    std::vector<std::string> out;
    for (const std::string& sym : combined.symbols()) {
      if (!combined.isFixed(sym) && combined.regionOf(sym) == regionName) {
        out.push_back(sym);
      }
    }
    return out;
  };
  for (const constraint::CapacityBound& cb : vocab.capacities) {
    for (const std::string& sym : openSymbolsOf(cb.region)) {
      auto [it, inserted] = svocab.capacity.try_emplace(sym, cb.maxPerPiece);
      if (!inserted) it->second = std::min(it->second, cb.maxPerPiece);
    }
  }
  for (const constraint::ReplicationBound& rb : vocab.replications) {
    for (const std::string& sym : openSymbolsOf(rb.region)) {
      auto [it, inserted] = svocab.replication.try_emplace(
          sym, std::make_pair(rb.minFactor, rb.maxFactor));
      if (inserted) continue;
      it->second.first = std::max(it->second.first, rb.minFactor);
      if (rb.maxFactor > 0) {
        it->second.second = it->second.second <= 0
                                ? rb.maxFactor
                                : std::min(it->second.second, rb.maxFactor);
      }
    }
  }
  auto fieldSymbols = [&](const std::string& fieldName) {
    const auto dot = fieldName.find('.');
    const std::string regionName = fieldName.substr(0, dot);
    const std::string field = fieldName.substr(dot + 1);
    std::set<std::string> syms;
    for (const LoopState& st : loops) {
      for (const analysis::AccessInfo& a : st.accesses.accesses) {
        if (a.stmt->region == regionName && a.stmt->field == field) {
          syms.insert(
              unified.resolve(st.constraints.stmtSymbol.at(a.stmt->id)));
        }
      }
    }
    DPART_CHECK(!syms.empty(), "affinity field '" + fieldName +
                                   "' matches no access in the program");
    return syms;
  };
  std::set<std::pair<std::string, std::string>> seenCo, seenAnti;
  for (const constraint::FieldAffinity& fa : vocab.affinities) {
    for (const std::string& sa : fieldSymbols(fa.fieldA)) {
      for (const std::string& sb : fieldSymbols(fa.fieldB)) {
        // Unification may have collapsed both fields onto one symbol:
        // co-location then already holds structurally, while anti-affinity
        // becomes a (refutable) self-conflict the anti-affinity rule reports
        // with field provenance.
        if (fa.together && sa == sb) continue;
        const auto key = std::minmax(sa, sb);
        auto& seen = fa.together ? seenCo : seenAnti;
        if (!seen.insert(key).second) continue;
        constraint::SolverVocabulary::SymbolPair pair;
        pair.symA = sa;
        pair.symB = sb;
        pair.fieldA = fa.fieldA;
        pair.fieldB = fa.fieldB;
        (fa.together ? svocab.colocated : svocab.antiAffine)
            .push_back(std::move(pair));
      }
    }
  }
  return svocab;
}

/// Logs a proof certificate's model section: the ground regions and fns,
/// the system about to be solved, and the vocabulary.
void logModel(constraint::ProofLog& proof, const region::World& world,
              const System& system, const constraint::SolverConfig& cfg) {
  proof.begin(cfg.pieces);
  for (const std::string& r : world.regionNames()) {
    proof.region(r, static_cast<std::size_t>(world.region(r).size()));
  }
  for (const std::string& id : world.fnIds()) {
    const region::FnDef& fn = world.fn(id);
    const region::Index n = world.region(fn.domainRegion).size();
    if (fn.isRangeValued()) {
      std::vector<std::pair<long long, long long>> table;
      table.reserve(static_cast<std::size_t>(n));
      for (region::Index i = 0; i < n; ++i) {
        const region::Run run = world.evalRange(id, i);
        table.emplace_back(run.lo, run.hi);
      }
      proof.rangeFn(id, fn.domainRegion, fn.rangeRegion, table);
    } else {
      std::vector<long long> table;
      table.reserve(static_cast<std::size_t>(n));
      for (region::Index i = 0; i < n; ++i) {
        table.push_back(world.evalPoint(id, i));
      }
      proof.pointFn(id, fn.domainRegion, fn.rangeRegion, table);
    }
  }
  for (const std::string& sym : system.symbols()) {
    proof.symbol(sym, system.isFixed(sym), system.regionOf(sym));
  }
  proof.conjuncts(system);
  proof.vocabulary(cfg.vocab);
}

/// Solve (Algorithm 2) on the unified system under the translated
/// vocabulary. Section 5.1's first strategy comes first: every non-relaxed
/// loop whose uncentered reductions all target one partition symbol demands
/// DISJ on it, so the solver derives a preimage iteration partition and no
/// buffer is needed; when that is unsolvable, the plain system is solved
/// instead. With `proof`, each solve starts the certificate afresh with its
/// model and logs its own trail, so the certificate is the log of the
/// deciding solve; an infeasible certificate is written before the failure
/// is thrown.
Resolution solve(constraint::UnifyResult unified,
                 const std::vector<LoopState>& loops,
                 const constraint::SolverVocabulary& svocab,
                 const std::set<std::string>& rangeFns,
                 const region::World& world, const Options& options,
                 constraint::ProofLog* proof) {
  std::set<std::string> disjointified;
  if (options.enableDisjointReduction) {
    for (const LoopState& st : loops) {
      if (st.reduction.relaxed) continue;
      std::set<std::string> targets;
      for (const ReducePlan& rp : st.reduction.reduces) {
        targets.insert(unified.resolve(rp.partition));
      }
      if (targets.size() == 1) disjointified.insert(*targets.begin());
    }
  }

  constraint::SolverConfig scfg;
  scfg.vocab = svocab;
  scfg.pieces = options.pieces;
  for (const std::string& r : world.regionNames()) {
    scfg.regionSizes[r] = static_cast<std::size_t>(world.region(r).size());
  }
  scfg.proof = proof;
  auto solveSystem = [&](const System& system) {
    if (proof != nullptr) {
      *proof = constraint::ProofLog{};
      logModel(*proof, world, system, scfg);
    }
    return constraint::Solver(system, rangeFns, scfg).solve();
  };

  const System& combined = unified.system;
  System attempt = combined;
  for (const std::string& sym : disjointified) {
    if (attempt.hasSymbol(sym) && !attempt.isFixed(sym)) {
      attempt.addDisj(dpl::symbol(sym));
    }
  }
  Resolution out;
  constraint::Solution& sol = out.solution;
  sol = solveSystem(attempt);
  if (!sol.ok && !disjointified.empty()) {
    // The counters cover every solve of the compile, the failed attempt's
    // search included; the certificate holds only the deciding solve.
    const constraint::SolveStats attempted = sol.stats;
    sol = solveSystem(combined);
    sol.stats += attempted;
  }
  if (!sol.ok) {
    const std::string msg = "constraint resolution failed: " + sol.failure;
    // The certificate already carries the infeasibility trail; write it
    // before surfacing the failure so the caller can hand it to
    // tools/proof_check.
    if (proof != nullptr) writeProofFile(options.proofFile, proof->finish());
    if (sol.conflict.valid()) throw constraint::InfeasibleError(msg);
    DPART_CHECK(false, msg);
  }
  for (const std::string& sym : combined.symbols()) {
    if (combined.isFixed(sym)) out.fixedSymbols.insert(sym);
  }
  out.renames = std::move(unified.renames);
  return out;
}

/// Synthesize (Table 1's "code rewrite"): the DPL program and one
/// PlannedLoop per loop, in final (post-unification) names. A buffered
/// reduction goes Direct when provably race-free, else takes private
/// sub-partitions where an external hint or Theorem 5.1 applies.
void synthesize(std::vector<LoopState>& loops, const Resolution& res,
                const std::vector<System>& externals,
                const std::set<std::string>& rangeFns,
                bool enablePrivateSubPartitions, ParallelPlan& out) {
  auto finalName = [&res](const std::string& sym) {
    return constraint::followRenames(res.renames, sym);
  };
  const constraint::Solution& sol = res.solution;
  dpl::Program prog = sol.program();
  constraint::Entailment ent(sol.resolved, rangeFns);
  auto assignedExpr = [&](const std::string& sym) -> ExprPtr {
    auto it = sol.assignments.find(sym);
    return it == sol.assignments.end() ? dpl::symbol(sym) : it->second;
  };

  int privCounter = 0;
  for (LoopState& st : loops) {
    PlannedLoop pl;
    pl.loop = st.loop;
    pl.relaxed = st.reduction.relaxed;
    pl.iterPartition = finalName(st.constraints.iterSymbol);
    for (const auto& [stmtId, sym] : st.constraints.stmtSymbol) {
      pl.accessPartition[stmtId] = finalName(sym);
    }

    // In-place ("Direct") reduction needs more than a disjoint partition
    // per access: when several reduce stmts hit the same field through
    // different partitions, task j1's subregion of one partition can
    // overlap task j2's subregion of the other, and the unsynchronized
    // read-modify-write races (and can lose contributions). A group of
    // reduces into one field may go direct only if they all use the same
    // provably disjoint partition — and the iteration partition is
    // disjoint too, so no duplicated iteration applies a reduce twice.
    const bool iterDisjoint = ent.proveDisj(assignedExpr(pl.iterPartition));
    std::map<std::pair<std::string, std::string>, std::vector<ReducePlan*>>
        byField;
    for (ReducePlan& rp : st.reduction.reduces) {
      rp.partition = finalName(rp.partition);
      if (rp.strategy != ReduceStrategy::Buffered) continue;
      const ir::Stmt* stmt = st.loop->findStmt(rp.stmtId);
      DPART_CHECK(stmt != nullptr);
      byField[{stmt->region, stmt->field}].push_back(&rp);
    }

    // Reduces that stay buffered, grouped by target region for the
    // intersection of private sub-partitions (Section 5.2).
    std::map<std::string, std::vector<ReducePlan*>> byRegion;
    for (auto& [key, plans] : byField) {
      bool direct = iterDisjoint &&
                    ent.proveDisj(assignedExpr(plans.front()->partition));
      for (const ReducePlan* rp : plans) {
        direct = direct && rp->partition == plans.front()->partition;
      }
      for (ReducePlan* rp : plans) {
        if (direct) {
          rp->strategy = ReduceStrategy::Direct;
        } else {
          byRegion[key.first].push_back(rp);
        }
      }
    }

    // PENNANT Hint2's mechanism: a user-provided partition FIX is a valid
    // private sub-partition for a reduction through f when the external
    // constraints assert preimage(R_iter, f, FIX) <= P_iter and P_iter is
    // disjoint — every side pointing into FIX[j] is then owned by task j.
    auto externalPrivate = [&](const std::string& fn) -> std::string {
      for (const System& ext : externals) {
        for (const constraint::Subset& sc : ext.subsets()) {
          if (sc.lhs->kind == ExprKind::Preimage && sc.lhs->fn == fn &&
              sc.lhs->region == st.loop->iterRegion &&
              sc.lhs->arg->kind == ExprKind::Symbol &&
              sc.rhs->kind == ExprKind::Symbol &&
              finalName(sc.rhs->name) == pl.iterPartition) {
            return sc.lhs->arg->name;
          }
        }
      }
      return "";
    };

    if (enablePrivateSubPartitions && iterDisjoint) {
      for (auto& [regionName, plans] : byRegion) {
        // First preference: user-provided private sub-partitions for every
        // reduction in the group (Section 6.5, Hint2).
        bool allExternal = true;
        std::vector<std::string> extPriv;
        for (ReducePlan* rp : plans) {
          const ExprPtr& bound = st.constraints.stmtRawBound.at(rp->stmtId);
          std::string fix = bound->kind == ExprKind::Image
                                ? externalPrivate(bound->fn)
                                : std::string();
          if (fix.empty()) {
            allExternal = false;
            break;
          }
          extPriv.push_back(std::move(fix));
        }
        if (allExternal && !plans.empty()) {
          for (std::size_t i = 0; i < plans.size(); ++i) {
            ReducePlan* rp = plans[i];
            rp->strategy = ReduceStrategy::PrivateSplit;
            rp->privatePart = extPriv[i];
            rp->sharedPart = extPriv[i] + "_shared_" +
                             std::to_string(rp->stmtId);
            prog.append(rp->sharedPart,
                        dpl::subtractOf(dpl::symbol(rp->partition),
                                        dpl::symbol(extPriv[i])));
          }
          continue;
        }
        // Every reduce in this region group must map the loop variable
        // directly so Theorem 5.1 applies: bound = image(P_iter, f, S).
        std::vector<ExprPtr> privParts;
        bool applicable = true;
        for (ReducePlan* rp : plans) {
          const ExprPtr& bound = st.constraints.stmtRawBound.at(rp->stmtId);
          if (bound->kind != ExprKind::Image ||
              bound->arg->kind != ExprKind::Symbol ||
              finalName(bound->arg->name) != pl.iterPartition ||
              rangeFns.contains(bound->fn)) {
            applicable = false;
            break;
          }
          privParts.push_back(optimize::privateSubPartitionExpr(
              dpl::symbol(pl.iterPartition), bound->fn,
              st.loop->iterRegion, regionName));
        }
        if (!applicable) continue;
        ExprPtr priv = privParts.front();
        for (std::size_t i = 1; i < privParts.size(); ++i) {
          priv = dpl::intersectOf(priv, privParts[i]);
        }
        const std::string privName =
            st.loop->name + "_priv_" + std::to_string(privCounter++);
        prog.append(privName, priv);
        for (ReducePlan* rp : plans) {
          rp->strategy = ReduceStrategy::PrivateSplit;
          rp->privatePart = privName;
          rp->sharedPart = privName + "_shared_" + std::to_string(rp->stmtId);
          prog.append(rp->sharedPart,
                      dpl::subtractOf(dpl::symbol(rp->partition),
                                      dpl::symbol(privName)));
        }
      }
    }

    for (const ReducePlan& rp : st.reduction.reduces) {
      pl.reduces[rp.stmtId] = rp;
    }
    out.loops.push_back(std::move(pl));
  }

  out.dpl = prog.withCse();
  out.system = sol.resolved;
  out.externalSymbols = res.fixedSymbols;
}

/// Closes a proof certificate with the plan section — the final DPL program
/// and the runtime verifier's expectations, so the checker can evaluate the
/// model end to end and cross-validate against region/verify — and writes
/// it.
void finishProof(constraint::ProofLog& proof, ParallelPlan& plan,
                 const Options& options) {
  for (const dpl::Stmt& s : plan.dpl.stmts()) proof.planStmt(s.lhs, s.rhs);
  for (const region::PartitionExpectation& e :
       planExpectations(plan, options.pieces)) {
    proof.expectation(expectationTokens(e));
  }
  writeProofFile(options.proofFile, proof.finish());
  plan.stats.proofEvents = proof.events();
  plan.stats.proofBytes = proof.bytes();
}

}  // namespace

AutoParallelizer::AutoParallelizer(const region::World& world, Options options)
    : world_(world), options_(options) {}

void AutoParallelizer::addExternalConstraint(const System& external) {
  System marked;
  marked.merge(external, /*assumed=*/true);
  externals_.push_back(std::move(marked));
}

std::set<std::string> AutoParallelizer::rangeFnIds() const {
  std::set<std::string> out;
  for (const std::string& id : world_.fnIds()) {
    if (world_.fn(id).isRangeValued()) out.insert(id);
  }
  return out;
}

ParallelPlan AutoParallelizer::plan(const ir::Program& program) {
  ParallelPlan result;
  // The plan keeps its own copy of the program: PlannedLoop::loop points at
  // these loops, so the plan must not dangle when the caller's program is a
  // temporary (or is destroyed before the plan is executed).
  result.program = std::make_shared<const ir::Program>(program);
  result.vocab = options_.vocab;
  CompileStats& stats = result.stats;
  const std::set<std::string> rangeFns = rangeFnIds();
  const bool wantProof = !options_.proofFile.empty();
  // Constrained and proof-emitting compiles bypass the cache in both
  // directions: rebinding a cached solve under renamed symbols cannot
  // preserve vocabulary semantics (which bind to concrete names), and a
  // certificate must describe an actual solve, not a rebound one. Without a
  // cache to consult, the key has no consumer and is never computed.
  SolveCache* const cache =
      options_.vocab.empty() && !wantProof ? options_.solveCache : nullptr;

  std::vector<LoopState> loops;
  {
    Phase phase(tracer_, "phase.infer", stats.inferMs);
    if (!options_.vocab.empty()) {
      const std::string problem =
          vocabularyProblem(options_.vocab, world_, options_.pieces);
      DPART_CHECK(problem.empty(), problem);
    }
    loops = infer(world_, *result.program);
  }
  stats.parallelLoops = static_cast<int>(loops.size());
  {
    // Table 1 bills the relaxation analysis as part of "solve".
    Phase phase(tracer_, "phase.relax", stats.solveMs);
    relax(loops, options_.enableRelaxation);
  }

  constraint::CanonicalForm key;
  std::shared_ptr<const SolveCacheEntry> cached;
  if (cache != nullptr) {
    Phase phase(tracer_, "phase.canon", stats.canonMs);
    key = canonicalKey(loops, externals_, rangeFns, options_);
    stats.cacheKey = key.hash;
    cached = cache->find(key.hash, key.rendering);
  }

  constraint::ProofLog proofLog;
  Resolution resolution;
  if (cached) {
    // The rendering matched, so key.toCanonical is an isomorphism onto the
    // systems the entry was solved for: mapping the entry back through its
    // inverse yields exactly the resolution a fresh solve of *this* program
    // would produce (solver determinism + symmetry).
    Phase phase(tracer_, "phase.solve", stats.solveMs);
    resolution = cached->solved.mapped(key.toCanonical.inverted());
    stats.cacheHit = true;
  } else {
    constraint::UnifyResult unified;
    {
      Phase phase(tracer_, "phase.unify", stats.unifyMs);
      unified = unify(loops, externals_, rangeFns, options_.enableUnification);
    }
    Phase phase(tracer_, "phase.solve", stats.solveMs);
    result.solverVocab = translateVocabulary(options_.vocab, unified, loops);
    resolution = solve(std::move(unified), loops, result.solverVocab,
                       rangeFns, world_, options_,
                       wantProof ? &proofLog : nullptr);
    stats.solve = resolution.solution.stats;
    if (cache != nullptr) {
      // Stored in canonical names, so any isomorphic program (from any
      // tenant) can rebind it.
      auto entry = std::make_shared<SolveCacheEntry>();
      entry->rendering = key.rendering;
      entry->solved = resolution.mapped(key.toCanonical);
      cache->insert(key.hash, std::move(entry));
    }
  }

  {
    Phase phase(tracer_, "phase.synthesize", stats.rewriteMs);
    synthesize(loops, resolution, externals_, rangeFns,
               options_.enablePrivateSubPartitions, result);
    if (wantProof) finishProof(proofLog, result, options_);
  }
  return result;
}

std::string equalBaseSymbol(const ParallelPlan& plan,
                            const PlannedLoop& loop) {
  std::map<std::string, const dpl::ExprPtr*> defs;
  for (const dpl::Stmt& s : plan.dpl.stmts()) defs[s.lhs] = &s.rhs;
  std::string name = loop.iterPartition;
  // Follow alias statements; the visited set guards against cycles (which a
  // well-formed program never contains, but a query must not hang on).
  std::set<std::string> visited;
  while (visited.insert(name).second) {
    auto it = defs.find(name);
    if (it == defs.end()) return "";  // external / unbound symbol
    const dpl::Expr& rhs = **it->second;
    if (rhs.kind == dpl::ExprKind::Symbol) {
      name = rhs.name;
      continue;
    }
    if (rhs.kind == dpl::ExprKind::Equal &&
        rhs.region == loop.loop->iterRegion) {
      return name;
    }
    return "";
  }
  return "";
}

}  // namespace dpart::parallelize
