#include "dpl/expr.hpp"

#include <algorithm>
#include <sstream>

#include "support/check.hpp"

namespace dpart::dpl {

namespace {

ExprPtr make(Expr e) { return std::make_shared<const Expr>(std::move(e)); }

std::size_t mix(std::size_t h, std::size_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

std::size_t hashOf(const std::string& s) {
  return std::hash<std::string>{}(s);
}

}  // namespace

bool Expr::equals(const Expr& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case ExprKind::Symbol:
      return name == other.name;
    case ExprKind::Union:
    case ExprKind::Intersect:
    case ExprKind::Subtract:
      return lhs->equals(*other.lhs) && rhs->equals(*other.rhs);
    case ExprKind::Image:
    case ExprKind::Preimage:
      return fn == other.fn && region == other.region &&
             arg->equals(*other.arg);
    case ExprKind::Equal:
      return region == other.region;
  }
  DPART_UNREACHABLE("bad ExprKind");
}

std::size_t Expr::hash() const {
  const auto h = static_cast<std::size_t>(kind);
  switch (kind) {
    case ExprKind::Symbol:
      return mix(h, hashOf(name));
    case ExprKind::Union:
    case ExprKind::Intersect:
    case ExprKind::Subtract:
      return mix(mix(h, lhs->hash()), rhs->hash());
    case ExprKind::Image:
    case ExprKind::Preimage:
      return mix(mix(mix(h, hashOf(fn)), hashOf(region)), arg->hash());
    case ExprKind::Equal:
      return mix(h, hashOf(region));
  }
  DPART_UNREACHABLE("bad ExprKind");
}

void Expr::collectSymbols(std::set<std::string>& out) const {
  switch (kind) {
    case ExprKind::Symbol:
      out.insert(name);
      return;
    case ExprKind::Union:
    case ExprKind::Intersect:
    case ExprKind::Subtract:
      lhs->collectSymbols(out);
      rhs->collectSymbols(out);
      return;
    case ExprKind::Image:
    case ExprKind::Preimage:
      arg->collectSymbols(out);
      return;
    case ExprKind::Equal:
      return;
  }
}

bool Expr::closedUnder(const std::set<std::string>& openSymbols) const {
  switch (kind) {
    case ExprKind::Symbol:
      return !openSymbols.contains(name);
    case ExprKind::Union:
    case ExprKind::Intersect:
    case ExprKind::Subtract:
      return lhs->closedUnder(openSymbols) && rhs->closedUnder(openSymbols);
    case ExprKind::Image:
    case ExprKind::Preimage:
      return arg->closedUnder(openSymbols);
    case ExprKind::Equal:
      return true;
  }
  DPART_UNREACHABLE("bad ExprKind");
}

std::string Expr::toString() const {
  std::ostringstream os;
  switch (kind) {
    case ExprKind::Symbol:
      os << name;
      break;
    case ExprKind::Union:
      os << '(' << lhs->toString() << " u " << rhs->toString() << ')';
      break;
    case ExprKind::Intersect:
      os << '(' << lhs->toString() << " n " << rhs->toString() << ')';
      break;
    case ExprKind::Subtract:
      os << '(' << lhs->toString() << " - " << rhs->toString() << ')';
      break;
    case ExprKind::Image:
      os << "image(" << arg->toString() << ", " << fn << ", " << region << ')';
      break;
    case ExprKind::Preimage:
      os << "preimage(" << region << ", " << fn << ", " << arg->toString()
         << ')';
      break;
    case ExprKind::Equal:
      os << "equal(" << region << ')';
      break;
  }
  return os.str();
}

int Expr::depth() const {
  switch (kind) {
    case ExprKind::Symbol:
    case ExprKind::Equal:
      return 0;
    case ExprKind::Union:
    case ExprKind::Intersect:
    case ExprKind::Subtract:
      return 1 + std::max(lhs->depth(), rhs->depth());
    case ExprKind::Image:
    case ExprKind::Preimage:
      return 1 + arg->depth();
  }
  DPART_UNREACHABLE("bad ExprKind");
}

ExprPtr symbol(std::string name) {
  Expr e;
  e.kind = ExprKind::Symbol;
  e.name = std::move(name);
  return make(std::move(e));
}

ExprPtr unionOf(ExprPtr a, ExprPtr b) {
  Expr e;
  e.kind = ExprKind::Union;
  e.lhs = std::move(a);
  e.rhs = std::move(b);
  return make(std::move(e));
}

ExprPtr unionOf(const std::vector<ExprPtr>& parts) {
  DPART_CHECK(!parts.empty(), "unionOf() needs at least one operand");
  ExprPtr acc = parts.front();
  for (std::size_t i = 1; i < parts.size(); ++i) {
    acc = unionOf(acc, parts[i]);
  }
  return acc;
}

ExprPtr intersectOf(ExprPtr a, ExprPtr b) {
  Expr e;
  e.kind = ExprKind::Intersect;
  e.lhs = std::move(a);
  e.rhs = std::move(b);
  return make(std::move(e));
}

ExprPtr subtractOf(ExprPtr a, ExprPtr b) {
  Expr e;
  e.kind = ExprKind::Subtract;
  e.lhs = std::move(a);
  e.rhs = std::move(b);
  return make(std::move(e));
}

ExprPtr image(ExprPtr arg, std::string fn, std::string region) {
  Expr e;
  e.kind = ExprKind::Image;
  e.arg = std::move(arg);
  e.fn = std::move(fn);
  e.region = std::move(region);
  return make(std::move(e));
}

ExprPtr preimage(std::string region, std::string fn, ExprPtr arg) {
  Expr e;
  e.kind = ExprKind::Preimage;
  e.arg = std::move(arg);
  e.fn = std::move(fn);
  e.region = std::move(region);
  return make(std::move(e));
}

ExprPtr equalOf(std::string region) {
  Expr e;
  e.kind = ExprKind::Equal;
  e.region = std::move(region);
  return make(std::move(e));
}

bool exprEq(const ExprPtr& a, const ExprPtr& b) {
  if (a == b) return true;
  if (!a || !b) return false;
  return a->equals(*b);
}

ExprPtr substitute(const ExprPtr& e,
                   const std::map<std::string, ExprPtr>& subst) {
  if (subst.empty()) return e;
  switch (e->kind) {
    case ExprKind::Symbol: {
      auto it = subst.find(e->name);
      return it == subst.end() ? e : it->second;
    }
    case ExprKind::Union:
    case ExprKind::Intersect:
    case ExprKind::Subtract: {
      ExprPtr l = substitute(e->lhs, subst);
      ExprPtr r = substitute(e->rhs, subst);
      if (l == e->lhs && r == e->rhs) return e;
      Expr out;
      out.kind = e->kind;
      out.lhs = std::move(l);
      out.rhs = std::move(r);
      return make(std::move(out));
    }
    case ExprKind::Image:
    case ExprKind::Preimage: {
      ExprPtr a = substitute(e->arg, subst);
      if (a == e->arg) return e;
      Expr out;
      out.kind = e->kind;
      out.arg = std::move(a);
      out.fn = e->fn;
      out.region = e->region;
      return make(std::move(out));
    }
    case ExprKind::Equal:
      return e;
  }
  DPART_UNREACHABLE("bad ExprKind");
}

}  // namespace dpart::dpl
