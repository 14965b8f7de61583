#include "constraint/propagate.hpp"

#include <algorithm>

namespace dpart::constraint {

using dpl::Expr;
using dpl::ExprKind;

const char* toString(SearchHeuristic h) {
  switch (h) {
    case SearchHeuristic::PaperOrder: return "paper";
    case SearchHeuristic::SmallestDomain: return "smallest";
  }
  return "?";
}

std::string ConflictInfo::toString() const {
  std::string out = rule + " on " + symbol;
  if (!detail.empty()) out += " (" + detail + ")";
  return out;
}

// ---- interval arithmetic -------------------------------------------------

namespace {

constexpr std::size_t kMax = PieceBounds::kUnbounded;

std::size_t satAdd(std::size_t a, std::size_t b) {
  return a > kMax - b ? kMax : a + b;
}

std::size_t satMul(std::size_t a, std::size_t b) {
  if (a == 0 || b == 0) return 0;
  if (a == kMax || b == kMax) return kMax;
  return a > kMax / b ? kMax : a * b;
}

std::size_t satSub(std::size_t a, std::size_t b) { return a > b ? a - b : 0; }

std::size_t ceilDiv(std::size_t s, std::size_t n) {
  if (n == 0) return s == 0 ? 0 : kMax;
  if (s == kMax) return kMax;
  return (s + n - 1) / n;
}

std::size_t sizeOf(const BoundsEnv& env, const std::string& region) {
  if (region.empty() || env.regionSizes == nullptr) return kMax;
  auto it = env.regionSizes->find(region);
  return it == env.regionSizes->end() ? kMax : it->second;
}

/// Region the expression's pieces are subsets of ("" when unknown).
std::string targetRegion(const Expr& e, const BoundsEnv& env) {
  switch (e.kind) {
    case ExprKind::Equal:
    case ExprKind::Image:
    case ExprKind::Preimage:
      return e.region;
    case ExprKind::Symbol:
      return env.regionOf ? env.regionOf(e.name) : std::string();
    case ExprKind::Union:
    case ExprKind::Intersect:
    case ExprKind::Subtract: {
      std::string t = targetRegion(*e.lhs, env);
      return t.empty() ? targetRegion(*e.rhs, env) : t;
    }
  }
  return {};
}

}  // namespace

PieceBounds boundsOf(const Expr& e, const BoundsEnv& env) {
  const std::size_t n = env.pieces;
  PieceBounds out;
  switch (e.kind) {
    case ExprKind::Equal: {
      const std::size_t s = sizeOf(env, e.region);
      if (s == kMax) break;  // unknown region: everything stays unbounded
      // equal(R) splits R into n near-even chunks: exact bounds.
      const std::size_t mp = ceilDiv(s, n);
      return PieceBounds{mp, mp, s, s};
    }
    case ExprKind::Symbol: {
      // A fixed external partition of a known region: each piece is a
      // subregion of R (PART), nothing else is known.
      const std::size_t s =
          sizeOf(env, env.regionOf ? env.regionOf(e.name) : std::string());
      out.maxPieceHi = s;
      out.totalHi = satMul(n, s);
      break;
    }
    case ExprKind::Union: {
      const PieceBounds a = boundsOf(*e.lhs, env);
      const PieceBounds b = boundsOf(*e.rhs, env);
      out.maxPieceLo = std::max(a.maxPieceLo, b.maxPieceLo);
      out.maxPieceHi = satAdd(a.maxPieceHi, b.maxPieceHi);
      out.totalLo = std::max(a.totalLo, b.totalLo);
      out.totalHi = satAdd(a.totalHi, b.totalHi);
      break;
    }
    case ExprKind::Intersect: {
      const PieceBounds a = boundsOf(*e.lhs, env);
      const PieceBounds b = boundsOf(*e.rhs, env);
      out.maxPieceHi = std::min(a.maxPieceHi, b.maxPieceHi);
      out.totalHi = std::min(a.totalHi, b.totalHi);
      break;
    }
    case ExprKind::Subtract: {
      const PieceBounds a = boundsOf(*e.lhs, env);
      const PieceBounds b = boundsOf(*e.rhs, env);
      out.maxPieceLo = satSub(a.maxPieceLo, b.maxPieceHi);
      out.maxPieceHi = a.maxPieceHi;
      out.totalLo = satSub(a.totalLo, b.totalHi);
      out.totalHi = a.totalHi;
      break;
    }
    case ExprKind::Image: {
      const PieceBounds a = boundsOf(*e.arg, env);
      const std::size_t sT = sizeOf(env, e.region);
      const bool rangeValued =
          env.rangeFns != nullptr && env.rangeFns->contains(e.fn);
      // A point fn maps each element to one target element, so a piece's
      // image is no larger than the piece; a range fn can expand.
      out.maxPieceHi = rangeValued ? sT : std::min(a.maxPieceHi, sT);
      out.totalHi =
          rangeValued ? satMul(n, sT) : std::min(a.totalHi, satMul(n, sT));
      break;
    }
    case ExprKind::Preimage: {
      const std::size_t sS = sizeOf(env, e.region);
      out.maxPieceHi = sS;
      out.totalHi = satMul(n, sS);
      break;
    }
  }
  // Pieces are subregions of the target region.
  const std::size_t sTarget = sizeOf(env, targetRegion(e, env));
  out.maxPieceHi = std::min(out.maxPieceHi, sTarget);
  // Pigeonhole: totalLo elements spread over n pieces force a big piece.
  out.maxPieceLo = std::max(out.maxPieceLo, ceilDiv(out.totalLo, n));
  out.maxPieceHi = std::min(out.maxPieceHi, out.totalHi);
  return out;
}

// ---- domain store --------------------------------------------------------

const std::vector<std::size_t> DomainStore::kEmpty;

void DomainStore::add(std::string symbol, dpl::ExprPtr expr) {
  bySymbol_[symbol].push_back(entries_.size());
  entries_.push_back(Entry{std::move(symbol), std::move(expr), true});
}

std::size_t DomainStore::liveCount(const std::string& symbol) const {
  std::size_t count = 0;
  for (std::size_t i : indicesOf(symbol)) {
    if (entries_[i].live) ++count;
  }
  return count;
}

const std::vector<std::size_t>& DomainStore::indicesOf(
    const std::string& symbol) const {
  auto it = bySymbol_.find(symbol);
  return it == bySymbol_.end() ? kEmpty : it->second;
}

std::vector<std::size_t> DomainStore::order(SearchHeuristic h) const {
  std::vector<std::size_t> out;
  out.reserve(entries_.size());
  if (h == SearchHeuristic::PaperOrder) {
    for (std::size_t i = 0; i < entries_.size(); ++i) out.push_back(i);
    return out;
  }
  std::vector<std::pair<std::size_t, std::string>> ranked;
  for (const auto& [sym, idxs] : bySymbol_) {
    ranked.emplace_back(liveCount(sym), sym);
  }
  std::sort(ranked.begin(), ranked.end());
  for (const auto& [count, sym] : ranked) {
    for (std::size_t i : indicesOf(sym)) out.push_back(i);
  }
  return out;
}

// ---- propagation context -------------------------------------------------

void PropagationContext::prune(std::size_t idx, const std::string& rule,
                               const std::string& detail) {
  if (!dom->live(idx)) return;
  dom->kill(idx);
  if (stats != nullptr) ++stats->prunes;
  if (proof != nullptr) proof->prune(nodeId, idx, rule, detail);
  if (!conflict.valid() && dom->liveCount(dom->entry(idx).symbol) == 0) {
    conflict.symbol = dom->entry(idx).symbol;
    conflict.rule = rule;
    conflict.detail = detail;
  }
}

void PropagationContext::refute(const std::string& symbol,
                                const std::string& rule,
                                const std::string& detail) {
  refuted = true;
  if (!conflict.valid()) {
    conflict.symbol = symbol;
    conflict.rule = rule;
    conflict.detail = detail;
  }
  if (proof != nullptr) proof->refute(nodeId, symbol, rule, detail);
}

// ---- vocabulary rules ----------------------------------------------------

namespace {

bool isOpen(const PropagationContext& ctx, const std::string& symbol) {
  return ctx.system->hasSymbol(symbol) && !ctx.system->isFixed(symbol) &&
         !ctx.partial->contains(symbol);
}

/// Known size of a region, or kUnbounded (the rules then stay silent —
/// never prune on a size they cannot justify).
std::size_t knownSize(const PropagationContext& ctx,
                      const std::string& region) {
  auto it = ctx.bounds.regionSizes->find(region);
  return it == ctx.bounds.regionSizes->end() ? kMax : it->second;
}

/// Capacity bound on one symbol's candidates, with a pigeonhole refutation
/// when the symbol must be complete: any complete partition of R into n
/// pieces has a piece of at least ceil(|R|/n) elements.
void capacity(PropagationContext& ctx, const std::string& symbol,
              std::size_t cap) {
  if (!isOpen(ctx, symbol)) return;
  const std::string& region = ctx.system->regionOf(symbol);
  const std::size_t s = knownSize(ctx, region);
  if (s != kMax && ctx.bounds.pieces > 0 && ctx.system->requiresComp(symbol)) {
    const std::size_t need = (s + ctx.bounds.pieces - 1) / ctx.bounds.pieces;
    if (need > cap) {
      ctx.refute(symbol, "capacity-comp",
                 "region=" + region + " size=" + std::to_string(s) +
                     " pieces=" + std::to_string(ctx.bounds.pieces) +
                     " cap=" + std::to_string(cap) +
                     " minMaxPiece=" + std::to_string(need));
      return;
    }
  }
  for (std::size_t idx : ctx.dom->indicesOf(symbol)) {
    if (!ctx.dom->live(idx)) continue;
    const PieceBounds b = boundsOf(*ctx.dom->entry(idx).expr, ctx.bounds);
    if (b.maxPieceLo > cap) {
      ctx.prune(idx, "capacity",
                "region=" + region + " cap=" + std::to_string(cap) +
                    " maxPieceLo=" + std::to_string(b.maxPieceLo));
    }
  }
}

/// Replication-factor window [minFactor, maxFactor] on one symbol's total
/// materialized elements, with COMP/DISJ refutations (a complete partition
/// totals at least |R|, a disjoint one at most |R|).
void replication(PropagationContext& ctx, const std::string& symbol,
                 double minFactor, double maxFactor) {
  if (!isOpen(ctx, symbol)) return;
  const std::string& region = ctx.system->regionOf(symbol);
  const std::size_t s = knownSize(ctx, region);
  if (s == kMax) return;
  const auto sd = static_cast<double>(s);
  if (s > 0 && maxFactor > 0 && maxFactor < 1.0 &&
      ctx.system->requiresComp(symbol)) {
    ctx.refute(symbol, "replicate-comp",
               "region=" + region + " size=" + std::to_string(s) +
                   " maxFactor=" + std::to_string(maxFactor));
    return;
  }
  if (s > 0 && minFactor > 1.0 && ctx.system->requiresDisj(symbol)) {
    ctx.refute(symbol, "replicate-disj",
               "region=" + region + " size=" + std::to_string(s) +
                   " minFactor=" + std::to_string(minFactor));
    return;
  }
  for (std::size_t idx : ctx.dom->indicesOf(symbol)) {
    if (!ctx.dom->live(idx)) continue;
    const PieceBounds b = boundsOf(*ctx.dom->entry(idx).expr, ctx.bounds);
    if (maxFactor > 0 && static_cast<double>(b.totalLo) > maxFactor * sd) {
      ctx.prune(idx, "replicate-max",
                "region=" + region + " maxFactor=" +
                    std::to_string(maxFactor) +
                    " totalLo=" + std::to_string(b.totalLo));
    } else if (minFactor > 0 && b.totalHi != PieceBounds::kUnbounded &&
               static_cast<double>(b.totalHi) < minFactor * sd) {
      ctx.prune(idx, "replicate-min",
                "region=" + region + " minFactor=" +
                    std::to_string(minFactor) +
                    " totalHi=" + std::to_string(b.totalHi));
    }
  }
}

/// Co-location, one direction: once `from` is assigned, the candidates of
/// `to` must be the identical expression (same partition => same
/// placement). Enforced up to expression identity.
void colocate(PropagationContext& ctx, const SolverVocabulary::SymbolPair& p,
              const std::string& from, const std::string& to) {
  auto it = ctx.partial->find(from);
  if (it == ctx.partial->end() || !isOpen(ctx, to)) return;
  for (std::size_t idx : ctx.dom->indicesOf(to)) {
    if (!ctx.dom->live(idx)) continue;
    if (!dpl::exprEq(ctx.dom->entry(idx).expr, it->second)) {
      ctx.prune(idx, "colocate",
                "partner=" + from + " fields=" + p.fieldA + "," + p.fieldB +
                    " want=" + it->second->toString());
    }
  }
}

/// Anti-affinity of a pair unification collapsed onto one symbol:
/// refutable outright when the symbol must be complete (a complete
/// partition of a non-empty region cannot be disjoint from itself);
/// otherwise candidates with a provably non-empty piece total are pruned.
void antiSelf(PropagationContext& ctx, const SolverVocabulary::SymbolPair& p) {
  const std::string& sym = p.symA;
  if (!isOpen(ctx, sym)) return;
  const std::string& region = ctx.system->regionOf(sym);
  const std::size_t s = knownSize(ctx, region);
  if (s == kMax) return;
  if (s > 0 && ctx.system->requiresComp(sym)) {
    ctx.refute(sym, "anti-self",
               "fields=" + p.fieldA + "," + p.fieldB + " region=" + region +
                   " size=" + std::to_string(s));
    return;
  }
  for (std::size_t idx : ctx.dom->indicesOf(sym)) {
    if (!ctx.dom->live(idx)) continue;
    const PieceBounds b = boundsOf(*ctx.dom->entry(idx).expr, ctx.bounds);
    if (b.totalLo > 0) {
      ctx.prune(idx, "anti-self",
                "fields=" + p.fieldA + "," + p.fieldB +
                    " totalLo=" + std::to_string(b.totalLo));
    }
  }
}

/// Anti-affinity of two symbols, one direction: once `from` is assigned,
/// candidates of `to` identical to it with a provably non-empty piece total
/// are pruned (the two partitions must be piecewise disjoint).
void anti(PropagationContext& ctx, const SolverVocabulary::SymbolPair& p,
          const std::string& from, const std::string& to) {
  auto it = ctx.partial->find(from);
  if (it == ctx.partial->end() || !isOpen(ctx, to)) return;
  for (std::size_t idx : ctx.dom->indicesOf(to)) {
    if (!ctx.dom->live(idx)) continue;
    if (!dpl::exprEq(ctx.dom->entry(idx).expr, it->second)) continue;
    const PieceBounds b = boundsOf(*ctx.dom->entry(idx).expr, ctx.bounds);
    if (b.totalLo > 0) {
      ctx.prune(idx, "anti",
                "partner=" + from + " fields=" + p.fieldA + "," + p.fieldB +
                    " totalLo=" + std::to_string(b.totalLo));
    }
  }
}

}  // namespace

void propagate(const SolverVocabulary& vocab, PropagationContext& ctx) {
  // Counts one run, then reports whether the pass must stop.
  auto ran = [&ctx] {
    if (ctx.stats != nullptr) ++ctx.stats->propagations;
    return ctx.refuted;
  };
  for (const auto& [sym, cap] : vocab.capacity) {
    capacity(ctx, sym, cap);
    if (ran()) return;
  }
  for (const auto& [sym, bounds] : vocab.replication) {
    replication(ctx, sym, bounds.first, bounds.second);
    if (ran()) return;
  }
  for (const SolverVocabulary::SymbolPair& p : vocab.colocated) {
    colocate(ctx, p, p.symA, p.symB);
    colocate(ctx, p, p.symB, p.symA);
    if (ran()) return;
  }
  for (const SolverVocabulary::SymbolPair& p : vocab.antiAffine) {
    if (p.symA == p.symB) {
      antiSelf(ctx, p);
    } else {
      anti(ctx, p, p.symA, p.symB);
      anti(ctx, p, p.symB, p.symA);
    }
    if (ran()) return;
  }
}

}  // namespace dpart::constraint
