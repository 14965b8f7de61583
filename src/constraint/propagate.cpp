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

std::vector<std::string> DomainStore::symbols() const {
  std::vector<std::string> out;
  out.reserve(bySymbol_.size());
  for (const auto& [sym, idxs] : bySymbol_) out.push_back(sym);
  return out;
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
  changed.insert(dom->entry(idx).symbol);
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

// ---- propagators ---------------------------------------------------------

namespace {

bool isOpen(const PropagationContext& ctx, const std::string& symbol) {
  return ctx.system->hasSymbol(symbol) && !ctx.system->isFixed(symbol) &&
         !ctx.partial->contains(symbol);
}

/// Known size of a region, or kUnbounded (propagators then stay silent —
/// never prune on a size they cannot justify).
std::size_t knownSize(const PropagationContext& ctx,
                      const std::string& region) {
  auto it = ctx.bounds.regionSizes->find(region);
  return it == ctx.bounds.regionSizes->end() ? kMax : it->second;
}

/// Per-node capacity bound on one symbol's candidates, with a pigeonhole
/// refutation when the symbol must be complete: any complete partition of R
/// into n pieces has a piece of at least ceil(|R|/n) elements.
class CapacityPropagator final : public Propagator {
 public:
  CapacityPropagator(std::string symbol, std::size_t cap)
      : symbol_(std::move(symbol)), cap_(cap), watches_{symbol_} {}

  [[nodiscard]] std::string id() const override {
    return "capacity(" + symbol_ + ")";
  }
  [[nodiscard]] const std::set<std::string>& watches() const override {
    return watches_;
  }
  [[nodiscard]] bool rerunEveryNode() const override { return true; }

  void propagate(PropagationContext& ctx) override {
    if (!isOpen(ctx, symbol_)) return;
    const std::string& region = ctx.system->regionOf(symbol_);
    const std::size_t s = knownSize(ctx, region);
    if (s != kMax && ctx.bounds.pieces > 0 &&
        ctx.system->requiresComp(symbol_)) {
      const std::size_t need = (s + ctx.bounds.pieces - 1) / ctx.bounds.pieces;
      if (need > cap_) {
        ctx.refute(symbol_, "capacity-comp",
                   "region=" + region + " size=" + std::to_string(s) +
                       " pieces=" + std::to_string(ctx.bounds.pieces) +
                       " cap=" + std::to_string(cap_) +
                       " minMaxPiece=" + std::to_string(need));
        return;
      }
    }
    for (std::size_t idx : ctx.dom->indicesOf(symbol_)) {
      if (!ctx.dom->live(idx)) continue;
      const PieceBounds b = boundsOf(*ctx.dom->entry(idx).expr, ctx.bounds);
      if (b.maxPieceLo > cap_) {
        ctx.prune(idx, "capacity",
                  "region=" + region + " cap=" + std::to_string(cap_) +
                      " maxPieceLo=" + std::to_string(b.maxPieceLo));
      }
    }
  }

 private:
  std::string symbol_;
  std::size_t cap_;
  std::set<std::string> watches_;
};

/// Replication-factor window on one symbol's total materialized elements,
/// with COMP/DISJ refutations (a complete partition totals at least |R|, a
/// disjoint one at most |R|).
class ReplicationPropagator final : public Propagator {
 public:
  ReplicationPropagator(std::string symbol, double minFactor, double maxFactor)
      : symbol_(std::move(symbol)),
        min_(minFactor),
        max_(maxFactor),
        watches_{symbol_} {}

  [[nodiscard]] std::string id() const override {
    return "replicate(" + symbol_ + ")";
  }
  [[nodiscard]] const std::set<std::string>& watches() const override {
    return watches_;
  }
  [[nodiscard]] bool rerunEveryNode() const override { return true; }

  void propagate(PropagationContext& ctx) override {
    if (!isOpen(ctx, symbol_)) return;
    const std::string& region = ctx.system->regionOf(symbol_);
    const std::size_t s = knownSize(ctx, region);
    if (s == kMax) return;
    const auto sd = static_cast<double>(s);
    if (s > 0 && max_ > 0 && max_ < 1.0 &&
        ctx.system->requiresComp(symbol_)) {
      ctx.refute(symbol_, "replicate-comp",
                 "region=" + region + " size=" + std::to_string(s) +
                     " maxFactor=" + std::to_string(max_));
      return;
    }
    if (s > 0 && min_ > 1.0 && ctx.system->requiresDisj(symbol_)) {
      ctx.refute(symbol_, "replicate-disj",
                 "region=" + region + " size=" + std::to_string(s) +
                     " minFactor=" + std::to_string(min_));
      return;
    }
    for (std::size_t idx : ctx.dom->indicesOf(symbol_)) {
      if (!ctx.dom->live(idx)) continue;
      const PieceBounds b = boundsOf(*ctx.dom->entry(idx).expr, ctx.bounds);
      if (max_ > 0 && static_cast<double>(b.totalLo) > max_ * sd) {
        ctx.prune(idx, "replicate-max",
                  "region=" + region + " maxFactor=" + std::to_string(max_) +
                      " totalLo=" + std::to_string(b.totalLo));
      } else if (min_ > 0 && b.totalHi != PieceBounds::kUnbounded &&
                 static_cast<double>(b.totalHi) < min_ * sd) {
        ctx.prune(idx, "replicate-min",
                  "region=" + region + " minFactor=" + std::to_string(min_) +
                      " totalHi=" + std::to_string(b.totalHi));
      }
    }
  }

 private:
  std::string symbol_;
  double min_;
  double max_;
  std::set<std::string> watches_;
};

/// Co-location: once one side of the pair is assigned, the other side's
/// candidates must be the identical expression (same partition => same
/// placement). Enforced up to expression identity.
class ColocatePropagator final : public Propagator {
 public:
  explicit ColocatePropagator(SolverVocabulary::SymbolPair pair)
      : pair_(std::move(pair)), watches_{pair_.symA, pair_.symB} {}

  [[nodiscard]] std::string id() const override {
    return "colocate(" + pair_.symA + "," + pair_.symB + ")";
  }
  [[nodiscard]] const std::set<std::string>& watches() const override {
    return watches_;
  }
  // The prune consumes the node-local candidate list, which searchNode
  // rebuilds from scratch at every node: the partner may have been assigned
  // on an ancestor branch, so waiting for a watched-symbol change this node
  // would drop the constraint after any unrelated branch.
  [[nodiscard]] bool rerunEveryNode() const override { return true; }

  void propagate(PropagationContext& ctx) override {
    direct(ctx, pair_.symA, pair_.symB);
    direct(ctx, pair_.symB, pair_.symA);
  }

 private:
  void direct(PropagationContext& ctx, const std::string& from,
              const std::string& to) {
    auto it = ctx.partial->find(from);
    if (it == ctx.partial->end() || !isOpen(ctx, to)) return;
    for (std::size_t idx : ctx.dom->indicesOf(to)) {
      if (!ctx.dom->live(idx)) continue;
      if (!dpl::exprEq(ctx.dom->entry(idx).expr, it->second)) {
        ctx.prune(idx, "colocate",
                  "partner=" + from + " fields=" + pair_.fieldA + "," +
                      pair_.fieldB + " want=" + it->second->toString());
      }
    }
  }

  SolverVocabulary::SymbolPair pair_;
  std::set<std::string> watches_;
};

/// Anti-affinity: the two partitions must be piecewise disjoint. When
/// unification collapsed both fields onto one symbol this is refutable
/// outright (a complete partition of a non-empty region cannot be disjoint
/// from itself); otherwise identical candidate expressions with a provably
/// non-empty piece total are pruned.
class AntiAffinityPropagator final : public Propagator {
 public:
  explicit AntiAffinityPropagator(SolverVocabulary::SymbolPair pair)
      : pair_(std::move(pair)), watches_{pair_.symA, pair_.symB} {}

  [[nodiscard]] std::string id() const override {
    return "anti(" + pair_.symA + "," + pair_.symB + ")";
  }
  [[nodiscard]] const std::set<std::string>& watches() const override {
    return watches_;
  }
  // Candidate lists are node-local (see ColocatePropagator): rerun always,
  // both for the self-pair refutation and the ancestor-assignment prunes.
  [[nodiscard]] bool rerunEveryNode() const override { return true; }

  void propagate(PropagationContext& ctx) override {
    if (pair_.symA == pair_.symB) {
      self(ctx);
      return;
    }
    direct(ctx, pair_.symA, pair_.symB);
    direct(ctx, pair_.symB, pair_.symA);
  }

 private:
  void self(PropagationContext& ctx) {
    const std::string& sym = pair_.symA;
    if (!isOpen(ctx, sym)) return;
    const std::string& region = ctx.system->regionOf(sym);
    const std::size_t s = knownSize(ctx, region);
    if (s == kMax) return;
    if (s > 0 && ctx.system->requiresComp(sym)) {
      ctx.refute(sym, "anti-self",
                 "fields=" + pair_.fieldA + "," + pair_.fieldB + " region=" +
                     region + " size=" + std::to_string(s));
      return;
    }
    for (std::size_t idx : ctx.dom->indicesOf(sym)) {
      if (!ctx.dom->live(idx)) continue;
      const PieceBounds b = boundsOf(*ctx.dom->entry(idx).expr, ctx.bounds);
      if (b.totalLo > 0) {
        ctx.prune(idx, "anti-self",
                  "fields=" + pair_.fieldA + "," + pair_.fieldB +
                      " totalLo=" + std::to_string(b.totalLo));
      }
    }
  }

  void direct(PropagationContext& ctx, const std::string& from,
              const std::string& to) {
    auto it = ctx.partial->find(from);
    if (it == ctx.partial->end() || !isOpen(ctx, to)) return;
    for (std::size_t idx : ctx.dom->indicesOf(to)) {
      if (!ctx.dom->live(idx)) continue;
      if (!dpl::exprEq(ctx.dom->entry(idx).expr, it->second)) continue;
      const PieceBounds b = boundsOf(*ctx.dom->entry(idx).expr, ctx.bounds);
      if (b.totalLo > 0) {
        ctx.prune(idx, "anti",
                  "partner=" + from + " fields=" + pair_.fieldA + "," +
                      pair_.fieldB + " totalLo=" + std::to_string(b.totalLo));
      }
    }
  }

  SolverVocabulary::SymbolPair pair_;
  std::set<std::string> watches_;
};

}  // namespace

std::vector<std::unique_ptr<Propagator>> makePropagators(
    const SolverVocabulary& vocab) {
  std::vector<std::unique_ptr<Propagator>> out;
  for (const auto& [sym, cap] : vocab.capacity) {
    out.push_back(std::make_unique<CapacityPropagator>(sym, cap));
  }
  for (const auto& [sym, bounds] : vocab.replication) {
    out.push_back(std::make_unique<ReplicationPropagator>(sym, bounds.first,
                                                          bounds.second));
  }
  for (const SolverVocabulary::SymbolPair& p : vocab.colocated) {
    out.push_back(std::make_unique<ColocatePropagator>(p));
  }
  for (const SolverVocabulary::SymbolPair& p : vocab.antiAffine) {
    out.push_back(std::make_unique<AntiAffinityPropagator>(p));
  }
  return out;
}

}  // namespace dpart::constraint
