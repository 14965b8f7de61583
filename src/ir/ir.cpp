#include "ir/ir.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "support/check.hpp"

namespace dpart::ir {

const char* toString(ReduceOp op) {
  switch (op) {
    case ReduceOp::Sum:
      return "+=";
    case ReduceOp::Min:
      return "min=";
    case ReduceOp::Max:
      return "max=";
  }
  DPART_UNREACHABLE("bad ReduceOp");
}

double reduceIdentity(ReduceOp op) {
  switch (op) {
    case ReduceOp::Sum:
      return 0.0;
    case ReduceOp::Min:
      return std::numeric_limits<double>::infinity();
    case ReduceOp::Max:
      return -std::numeric_limits<double>::infinity();
  }
  DPART_UNREACHABLE("bad ReduceOp");
}

const char* toString(StmtKind k) {
  switch (k) {
    case StmtKind::LoadF64:
      return "loadF64";
    case StmtKind::LoadIdx:
      return "loadIdx";
    case StmtKind::LoadRange:
      return "loadRange";
    case StmtKind::StoreF64:
      return "store";
    case StmtKind::ReduceF64:
      return "reduce";
    case StmtKind::ApplyFn:
      return "apply";
    case StmtKind::Alias:
      return "alias";
    case StmtKind::Compute:
      return "compute";
    case StmtKind::InnerLoop:
      return "inner-loop";
  }
  DPART_UNREACHABLE("bad StmtKind");
}

std::string Stmt::toString() const {
  std::ostringstream os;
  switch (kind) {
    case StmtKind::LoadF64:
    case StmtKind::LoadIdx:
    case StmtKind::LoadRange:
      os << var << " = " << region << '[' << idxVar << "]." << field;
      break;
    case StmtKind::StoreF64:
      os << region << '[' << idxVar << "]." << field << " = " << src;
      break;
    case StmtKind::ReduceF64:
      os << region << '[' << idxVar << "]." << field << ' '
         << ir::toString(op) << ' ' << src;
      break;
    case StmtKind::ApplyFn:
      os << var << " = " << fn << '(' << idxVar << ')';
      break;
    case StmtKind::Alias:
      os << var << " = " << src;
      break;
    case StmtKind::Compute: {
      os << var << " = compute(";
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (i) os << ", ";
        os << args[i];
      }
      os << ')';
      break;
    }
    case StmtKind::InnerLoop: {
      os << "for (" << loopVar << " in " << rangeVar << "): {";
      for (const Stmt& s : body) os << ' ' << s.toString() << ';';
      os << " }";
      break;
    }
  }
  return os.str();
}

int Loop::stmtCount() const {
  int n = 0;
  forEachStmt([&](const Stmt&) { ++n; });
  return n;
}

void Loop::forEachStmt(const std::function<void(const Stmt&)>& fn) const {
  const std::function<void(const std::vector<Stmt>&)> walk =
      [&](const std::vector<Stmt>& stmts) {
        for (const Stmt& s : stmts) {
          fn(s);
          if (s.kind == StmtKind::InnerLoop) walk(s.body);
        }
      };
  walk(body);
}

namespace {

const Stmt* findIn(const std::vector<Stmt>& stmts, int id) {
  for (const Stmt& s : stmts) {
    if (s.id == id) return &s;
    if (s.kind == StmtKind::InnerLoop) {
      if (const Stmt* inner = findIn(s.body, id)) return inner;
    }
  }
  return nullptr;
}

}  // namespace

const Stmt* Loop::findStmt(int id) const { return findIn(body, id); }

std::string Loop::toString() const {
  std::ostringstream os;
  os << "loop " << name << ": for (" << loopVar << " in " << iterRegion
     << "):\n";
  for (const Stmt& s : body) os << "  " << s.toString() << '\n';
  return os.str();
}

LoopBuilder::LoopBuilder(std::string name, std::string loopVar,
                         std::string iterRegion) {
  loop_.name = std::move(name);
  loop_.loopVar = std::move(loopVar);
  loop_.iterRegion = std::move(iterRegion);
}

Stmt& LoopBuilder::append(Stmt s) {
  s.id = nextId_++;
  std::vector<Stmt>& target =
      inInner_ ? loop_.body.back().body : loop_.body;
  target.push_back(std::move(s));
  return target.back();
}

LoopBuilder& LoopBuilder::loadF64(const std::string& var,
                                  const std::string& region,
                                  const std::string& field,
                                  const std::string& idxVar) {
  Stmt s;
  s.kind = StmtKind::LoadF64;
  s.var = var;
  s.region = region;
  s.field = field;
  s.idxVar = idxVar;
  append(std::move(s));
  return *this;
}

LoopBuilder& LoopBuilder::loadIdx(const std::string& var,
                                  const std::string& region,
                                  const std::string& field,
                                  const std::string& idxVar) {
  Stmt s;
  s.kind = StmtKind::LoadIdx;
  s.var = var;
  s.region = region;
  s.field = field;
  s.idxVar = idxVar;
  append(std::move(s));
  return *this;
}

LoopBuilder& LoopBuilder::loadRange(const std::string& var,
                                    const std::string& region,
                                    const std::string& field,
                                    const std::string& idxVar) {
  Stmt s;
  s.kind = StmtKind::LoadRange;
  s.var = var;
  s.region = region;
  s.field = field;
  s.idxVar = idxVar;
  append(std::move(s));
  return *this;
}

LoopBuilder& LoopBuilder::store(const std::string& region,
                                const std::string& field,
                                const std::string& idxVar,
                                const std::string& src) {
  Stmt s;
  s.kind = StmtKind::StoreF64;
  s.region = region;
  s.field = field;
  s.idxVar = idxVar;
  s.src = src;
  append(std::move(s));
  return *this;
}

LoopBuilder& LoopBuilder::reduce(const std::string& region,
                                 const std::string& field,
                                 const std::string& idxVar,
                                 const std::string& src, ReduceOp op) {
  Stmt s;
  s.kind = StmtKind::ReduceF64;
  s.region = region;
  s.field = field;
  s.idxVar = idxVar;
  s.src = src;
  s.op = op;
  append(std::move(s));
  return *this;
}

LoopBuilder& LoopBuilder::apply(const std::string& var, const std::string& fn,
                                const std::string& idxVar) {
  Stmt s;
  s.kind = StmtKind::ApplyFn;
  s.var = var;
  s.fn = fn;
  s.idxVar = idxVar;
  append(std::move(s));
  return *this;
}

LoopBuilder& LoopBuilder::alias(const std::string& var,
                                const std::string& src) {
  Stmt s;
  s.kind = StmtKind::Alias;
  s.var = var;
  s.src = src;
  append(std::move(s));
  return *this;
}

LoopBuilder& LoopBuilder::compute(const std::string& var,
                                  std::vector<std::string> args,
                                  ComputeFn fn) {
  Stmt s;
  s.kind = StmtKind::Compute;
  s.var = var;
  s.args = std::move(args);
  s.compute = std::move(fn);
  append(std::move(s));
  return *this;
}

LoopBuilder& LoopBuilder::beginInner(const std::string& loopVar,
                                     const std::string& rangeVar) {
  DPART_CHECK(!inInner_, "inner loops do not nest");
  Stmt s;
  s.kind = StmtKind::InnerLoop;
  s.loopVar = loopVar;
  s.rangeVar = rangeVar;
  append(std::move(s));
  inInner_ = true;
  return *this;
}

LoopBuilder& LoopBuilder::endInner() {
  DPART_CHECK(inInner_, "endInner() without beginInner()");
  inInner_ = false;
  return *this;
}

Loop LoopBuilder::build() {
  DPART_CHECK(!inInner_, "unclosed inner loop");
  return std::move(loop_);
}

}  // namespace dpart::ir
