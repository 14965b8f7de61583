#include "constraint/entail.hpp"

#include "support/check.hpp"

namespace dpart::constraint {

using dpl::Expr;
using dpl::ExprKind;

namespace {
// Proof search depth bound; systems are shallow, and hypothesis chaining
// (transitivity, L5/L8) is the only source of recursion growth.
constexpr int kFuel = 10;
}  // namespace

Entailment::Entailment(const System& hypotheses,
                       const std::set<std::string>& rangeFns)
    : hyp_(hypotheses), rangeFns_(rangeFns) {}

std::string Entailment::regionOf(const ExprPtr& e) const {
  switch (e->kind) {
    case ExprKind::Symbol:
      return hyp_.hasSymbol(e->name) ? hyp_.regionOf(e->name) : "";
    case ExprKind::Equal:
    case ExprKind::Image:
    case ExprKind::Preimage:
      return e->region;
    case ExprKind::Union:
    case ExprKind::Intersect:
    case ExprKind::Subtract: {
      std::string l = regionOf(e->lhs);
      return l.empty() ? regionOf(e->rhs) : l;
    }
  }
  DPART_UNREACHABLE("bad ExprKind");
}

bool Entailment::provePart(const ExprPtr& e, const std::string& region) {
  switch (e->kind) {
    case ExprKind::Symbol:
      // A declared symbol is a partition of its declared region.
      return hyp_.hasSymbol(e->name) && hyp_.regionOf(e->name) == region;
    case ExprKind::Equal:   // L1
    case ExprKind::Image:   // L2
    case ExprKind::Preimage:  // L3
      return e->region == region;
    case ExprKind::Union:  // L4
      return provePart(e->lhs, region) && provePart(e->rhs, region);
    case ExprKind::Intersect:  // L4 (either operand suffices set-wise)
      return provePart(e->lhs, region) || provePart(e->rhs, region);
    case ExprKind::Subtract:  // L4 (the minuend suffices set-wise)
      return provePart(e->lhs, region);
  }
  DPART_UNREACHABLE("bad ExprKind");
}

bool Entailment::proveDisj(const ExprPtr& e) { return proveDisjFuel(e, kFuel); }

bool Entailment::proveDisjFuel(const ExprPtr& e, int fuel) {
  if (fuel <= 0) return false;
  // Hypothesis: an asserted/established DISJ on a structurally equal expr.
  for (const Pred& p : hyp_.preds()) {
    if (p.kind == Pred::Kind::Disj && usable(p) && dpl::exprEq(p.expr, e)) {
      return true;
    }
  }
  switch (e->kind) {
    case ExprKind::Equal:  // L1
      return true;
    case ExprKind::Intersect:  // L9
      if (proveDisjFuel(e->lhs, fuel - 1) || proveDisjFuel(e->rhs, fuel - 1)) {
        return true;
      }
      break;
    case ExprKind::Subtract:  // L10
      if (proveDisjFuel(e->lhs, fuel - 1)) return true;
      break;
    case ExprKind::Preimage:  // L12 — point-valued functions only
      if (pointFn(e->fn) && proveDisjFuel(e->arg, fuel - 1)) return true;
      break;
    case ExprKind::Image:
      // image(preimage(R, f, E), f, S) <= E (point f), so by L8 it is
      // disjoint whenever E is.
      if (pointFn(e->fn) && e->arg->kind == ExprKind::Preimage &&
          e->arg->fn == e->fn && proveDisjFuel(e->arg->arg, fuel - 1)) {
        return true;
      }
      break;
    case ExprKind::Symbol:
    case ExprKind::Union:
      break;
  }
  // L8: E <= E2 (hypothesis) and DISJ(E2).
  for (const Subset& sc : hyp_.subsets()) {
    if (usable(sc) && dpl::exprEq(sc.lhs, e) && !dpl::exprEq(sc.rhs, e) &&
        proveDisjFuel(sc.rhs, fuel - 1)) {
      return true;
    }
  }
  return false;
}

bool Entailment::proveComp(const ExprPtr& e, const std::string& region) {
  return proveCompFuel(e, region, kFuel);
}

bool Entailment::proveCompFuel(const ExprPtr& e, const std::string& region,
                               int fuel) {
  if (fuel <= 0) return false;
  for (const Pred& p : hyp_.preds()) {
    if (p.kind == Pred::Kind::Comp && usable(p) && p.region == region &&
        dpl::exprEq(p.expr, e)) {
      return true;
    }
  }
  switch (e->kind) {
    case ExprKind::Equal:  // L1
      return e->region == region;
    case ExprKind::Union:  // L6
      if (proveCompFuel(e->lhs, region, fuel - 1) ||
          proveCompFuel(e->rhs, region, fuel - 1)) {
        return true;
      }
      break;
    case ExprKind::Preimage: {  // L7 — point-valued functions only
      if (e->region == region && pointFn(e->fn)) {
        const std::string argRegion = regionOf(e->arg);
        if (!argRegion.empty() && proveCompFuel(e->arg, argRegion, fuel - 1)) {
          return true;
        }
      }
      break;
    }
    case ExprKind::Symbol:
    case ExprKind::Image:
    case ExprKind::Intersect:
    case ExprKind::Subtract:
      break;
  }
  // L5: E1 <= E (hypothesis) with COMP(E1, R) and PART(E, R).
  for (const Subset& sc : hyp_.subsets()) {
    if (usable(sc) && dpl::exprEq(sc.rhs, e) && !dpl::exprEq(sc.lhs, e) &&
        provePart(e, region) && proveCompFuel(sc.lhs, region, fuel - 1)) {
      return true;
    }
  }
  return false;
}

bool Entailment::proveSubset(const ExprPtr& lhs, const ExprPtr& rhs) {
  return proveSubsetFuel(lhs, rhs, kFuel);
}

bool Entailment::proveSubsetFuel(const ExprPtr& lhs, const ExprPtr& rhs,
                                 int fuel) {
  if (fuel <= 0) return false;
  if (dpl::exprEq(lhs, rhs)) return true;
  for (const Subset& sc : hyp_.subsets()) {
    if (usable(sc) && dpl::exprEq(sc.lhs, lhs) && dpl::exprEq(sc.rhs, rhs)) {
      return true;
    }
  }

  // Structural decompositions of the left-hand side.
  switch (lhs->kind) {
    case ExprKind::Union:  // L13
      if (proveSubsetFuel(lhs->lhs, rhs, fuel - 1) &&
          proveSubsetFuel(lhs->rhs, rhs, fuel - 1)) {
        return true;
      }
      break;
    case ExprKind::Intersect:  // (A n B) <= A (and <= B)
      if (proveSubsetFuel(lhs->lhs, rhs, fuel - 1) ||
          proveSubsetFuel(lhs->rhs, rhs, fuel - 1)) {
        return true;
      }
      break;
    case ExprKind::Subtract:  // (A - B) <= A
      if (proveSubsetFuel(lhs->lhs, rhs, fuel - 1)) return true;
      break;
    case ExprKind::Image:
      // image(preimage(R, f, E), f, S) <= E for point-valued f; combined
      // with transitivity this also covers L14's conclusion.
      if (pointFn(lhs->fn) && lhs->arg->kind == ExprKind::Preimage &&
          lhs->arg->fn == lhs->fn &&
          proveSubsetFuel(lhs->arg->arg, rhs, fuel - 1)) {
        return true;
      }
      // Monotonicity: image(E1, f, R) <= image(E2, f, R) when E1 <= E2.
      if (rhs->kind == ExprKind::Image && lhs->fn == rhs->fn &&
          lhs->region == rhs->region &&
          proveSubsetFuel(lhs->arg, rhs->arg, fuel - 1)) {
        return true;
      }
      // L14: E1 <= preimage(R1, f, E2) implies image(E1, f, R2) <= E2
      // (point-valued f only).
      if (pointFn(lhs->fn)) {
        for (const Subset& sc : hyp_.subsets()) {
          if (usable(sc) && dpl::exprEq(sc.lhs, lhs->arg) &&
              sc.rhs->kind == ExprKind::Preimage && sc.rhs->fn == lhs->fn &&
              proveSubsetFuel(sc.rhs->arg, rhs, fuel - 1)) {
            return true;
          }
        }
      }
      break;
    case ExprKind::Preimage:
      // Monotonicity of preimage.
      if (rhs->kind == ExprKind::Preimage && lhs->fn == rhs->fn &&
          lhs->region == rhs->region &&
          proveSubsetFuel(lhs->arg, rhs->arg, fuel - 1)) {
        return true;
      }
      break;
    case ExprKind::Symbol:
    case ExprKind::Equal:
      break;
  }

  // Structural decompositions of the right-hand side.
  switch (rhs->kind) {
    case ExprKind::Union:  // A <= (B u C) if A <= B or A <= C
      if (proveSubsetFuel(lhs, rhs->lhs, fuel - 1) ||
          proveSubsetFuel(lhs, rhs->rhs, fuel - 1)) {
        return true;
      }
      break;
    case ExprKind::Intersect:  // A <= (B n C) iff A <= B and A <= C
      if (proveSubsetFuel(lhs, rhs->lhs, fuel - 1) &&
          proveSubsetFuel(lhs, rhs->rhs, fuel - 1)) {
        return true;
      }
      break;
    default:
      break;
  }

  // Transitivity through hypothesis subsets: lhs <= M (hyp), M <= rhs.
  for (const Subset& sc : hyp_.subsets()) {
    if (usable(sc) && dpl::exprEq(sc.lhs, lhs) && !dpl::exprEq(sc.rhs, rhs) &&
        proveSubsetFuel(sc.rhs, rhs, fuel - 1)) {
      return true;
    }
  }
  return false;
}

bool Entailment::prove(const Pred& pred) {
  switch (pred.kind) {
    case Pred::Kind::Part:
      return provePart(pred.expr, pred.region);
    case Pred::Kind::Disj:
      return proveDisj(pred.expr);
    case Pred::Kind::Comp:
      return proveComp(pred.expr, pred.region);
  }
  DPART_UNREACHABLE("bad Pred::Kind");
}

bool Entailment::prove(const Subset& subset) {
  return proveSubset(subset.lhs, subset.rhs);
}

std::string checkResolved(const System& system,
                          const std::set<std::string>& rangeFns) {
  Entailment ent(system, rangeFns);
  for (const Pred& p : system.preds()) {
    if (p.assumed) continue;
    ent.excludeConjunct(p);
    if (!ent.prove(p)) return p.toString();
  }
  for (const Subset& sc : system.subsets()) {
    if (sc.assumed) continue;
    ent.excludeConjunct(sc);
    if (!ent.prove(sc)) return sc.toString();
  }
  return "";
}

}  // namespace dpart::constraint
