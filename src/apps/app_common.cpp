#include "apps/app_common.hpp"

#include <iomanip>
#include <sstream>

#include "dpl/evaluator.hpp"
#include "support/check.hpp"

namespace dpart::apps {

std::map<std::string, region::Partition> evaluatePlan(
    const region::World& world, const parallelize::ParallelPlan& plan,
    std::size_t pieces,
    const std::map<std::string, region::Partition>& externals) {
  dpl::Evaluator ev(world, pieces);
  for (const auto& [name, part] : externals) ev.bind(name, part);
  for (const std::string& ext : plan.externalSymbols) {
    DPART_CHECK(ev.has(ext), "external partition '" + ext + "' not provided");
  }
  ev.run(plan.dpl);
  return ev.env();
}

ManualPlanBuilder::ManualPlanBuilder(const ir::Program& program)
    : program_(program) {
  plan_.loops.resize(program.loops.size());
  for (std::size_t i = 0; i < program.loops.size(); ++i) {
    plan_.loops[i].loop = &program.loops[i];
  }
  plan_.stats.parallelLoops = static_cast<int>(program.loops.size());
}

ManualPlanBuilder& ManualPlanBuilder::define(const std::string& name,
                                             dpl::ExprPtr expr) {
  plan_.dpl.append(name, std::move(expr));
  return *this;
}

ManualPlanBuilder& ManualPlanBuilder::external(const std::string& name) {
  plan_.externalSymbols.insert(name);
  return *this;
}

ManualPlanBuilder& ManualPlanBuilder::assign(
    std::size_t loopIdx, const std::string& iterPartition,
    const std::vector<std::string>& accessPartitions) {
  DPART_CHECK(loopIdx < plan_.loops.size(), "loop index out of range");
  parallelize::PlannedLoop& pl = plan_.loops[loopIdx];
  pl.iterPartition = iterPartition;
  std::size_t next = 0;
  pl.loop->forEachStmt([&](const ir::Stmt& s) {
    switch (s.kind) {
      case ir::StmtKind::LoadF64:
      case ir::StmtKind::LoadIdx:
      case ir::StmtKind::LoadRange:
      case ir::StmtKind::StoreF64:
      case ir::StmtKind::ReduceF64:
        DPART_CHECK(next < accessPartitions.size(),
                    "not enough access partitions for loop " + pl.loop->name);
        pl.accessPartition[s.id] = accessPartitions[next++];
        break;
      default:
        break;
    }
  });
  DPART_CHECK(next == accessPartitions.size(),
              "too many access partitions for loop " + pl.loop->name);
  return *this;
}

ManualPlanBuilder& ManualPlanBuilder::reduce(std::size_t loopIdx,
                                             const std::string& regionName,
                                             optimize::ReducePlan rp,
                                             int which) {
  DPART_CHECK(loopIdx < plan_.loops.size(), "loop index out of range");
  parallelize::PlannedLoop& pl = plan_.loops[loopIdx];
  int seen = 0;
  bool placed = false;
  pl.loop->forEachStmt([&](const ir::Stmt& s) {
    if (s.kind != ir::StmtKind::ReduceF64 || s.region != regionName) return;
    if (seen++ != which) return;
    rp.stmtId = s.id;
    if (rp.partition.empty()) rp.partition = pl.accessPartition.at(s.id);
    pl.reduces[s.id] = rp;
    placed = true;
  });
  DPART_CHECK(placed, "no matching reduce statement on region " + regionName);
  return *this;
}

parallelize::ParallelPlan ManualPlanBuilder::build() {
  for (const parallelize::PlannedLoop& pl : plan_.loops) {
    DPART_CHECK(!pl.iterPartition.empty(),
                "loop '" + pl.loop->name + "' was not assigned");
  }
  return std::move(plan_);
}

std::string renderScaling(const std::string& title,
                          const std::string& unitLabel,
                          const std::vector<ScalingSeries>& series) {
  std::ostringstream os;
  os << "== " << title << " ==\n";
  os << std::left << std::setw(8) << "nodes";
  for (const ScalingSeries& s : series) os << std::setw(16) << s.name;
  os << "   (" << unitLabel << " per node)\n";
  std::size_t rows = 0;
  for (const ScalingSeries& s : series) rows = std::max(rows, s.points.size());
  for (std::size_t r = 0; r < rows; ++r) {
    os << std::setw(8) << series.front().points[r].nodes;
    for (const ScalingSeries& s : series) {
      if (r < s.points.size()) {
        os << std::setw(16) << std::setprecision(4)
           << s.points[r].throughputPerNode;
      } else {
        os << std::setw(16) << "-";
      }
    }
    os << '\n';
  }
  os << std::setw(8) << "eff";
  for (const ScalingSeries& s : series) {
    std::ostringstream e;
    e << std::fixed << std::setprecision(1)
      << 100.0 * s.points.back().throughputPerNode /
             s.points.front().throughputPerNode
      << '%';
    os << std::setw(16) << e.str();
  }
  os << "  (last vs first)\n";
  return os.str();
}

}  // namespace dpart::apps
