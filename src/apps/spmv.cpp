#include "apps/spmv.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "region/dpl_ops.hpp"

#include "support/check.hpp"

namespace dpart::apps {

using region::FieldType;
using region::Index;
using region::Run;

SpmvApp::SpmvApp(Params params)
    : params_(params), world_(std::make_unique<region::World>()) {
  const Index n = rows();

  // Row lengths: uniform (the paper's balanced synthetic matrix) or a
  // power-law heavy prefix, rescaled so the total non-zero count stays
  // ~n*nnzPerRow and piece-count comparisons hold work constant.
  std::vector<Index> rowNnz(static_cast<std::size_t>(n), params_.nnzPerRow);
  if (params_.skew > 0) {
    std::vector<double> w(static_cast<std::size_t>(n));
    double sumw = 0;
    for (Index r = 0; r < n; ++r) {
      w[static_cast<std::size_t>(r)] =
          std::pow(static_cast<double>(r + 1), -params_.skew);
      sumw += w[static_cast<std::size_t>(r)];
    }
    const double scale =
        static_cast<double>(n * params_.nnzPerRow) / sumw;
    for (Index r = 0; r < n; ++r) {
      rowNnz[static_cast<std::size_t>(r)] = std::max<Index>(
          1, static_cast<Index>(
                 std::llround(w[static_cast<std::size_t>(r)] * scale)));
    }
  }
  Index nnz = 0;
  for (const Index len : rowNnz) nnz += len;

  auto& y = world_->addRegion("Y", n);
  auto& ranges = world_->addRegion("Ranges", n);
  auto& mat = world_->addRegion("Mat", nnz);
  auto& x = world_->addRegion("X", n);
  y.addField("val", FieldType::F64);
  ranges.addField("span", FieldType::Range);
  mat.addField("val", FieldType::F64);
  mat.addField("ind", FieldType::Idx);
  x.addField("val", FieldType::F64);
  world_->defineRangeFn("Ranges", "span", "Mat");
  world_->defineFieldFn("Mat", "ind", "X");

  // Banded diagonal matrix: row r holds rowNnz[r] entries centered on the
  // diagonal (with skew = 0, every row has exactly the same count — the
  // paper's balanced synthetic matrix).
  auto span = ranges.range("span");
  auto mval = mat.f64("val");
  auto mind = mat.idx("ind");
  auto xval = x.f64("val");
  Index offset = 0;
  for (Index r = 0; r < n; ++r) {
    const Index len = rowNnz[static_cast<std::size_t>(r)];
    const Index half = len / 2;
    span[static_cast<std::size_t>(r)] = Run{offset, offset + len};
    xval[static_cast<std::size_t>(r)] = 1.0 + double(r % 17) * 0.25;
    for (Index k = 0; k < len; ++k) {
      const auto e = static_cast<std::size_t>(offset + k);
      Index col = (r - half + k) % n;
      if (col < 0) col += n;
      mval[e] = 1.0 / double(1 + k);
      mind[e] = col;
    }
    offset += len;
  }

  // Figure 10a.
  program_.name = "spmv";
  ir::LoopBuilder b("spmv", "i", "Y");
  b.loadRange("rg", "Ranges", "span", "i");
  b.beginInner("k", "rg");
  b.loadF64("a", "Mat", "val", "k");
  b.loadIdx("col", "Mat", "ind", "k");
  b.loadF64("xv", "X", "val", "col");
  b.compute("prod", {"a", "xv"}, [](auto v) { return v[0] * v[1]; });
  b.reduce("Y", "val", "i", "prod");
  b.endInner();
  program_.loops.push_back(b.build());
}

SimSetup SpmvApp::autoSetup() {
  SimSetup setup;
  parallelize::AutoParallelizer ap(*world_);
  setup.plan = ap.plan(program_);
  setup.partitions =
      evaluatePlan(*world_, setup.plan, params_.pieces, {});

  // Data placement: the synthesized partitions of Y/Ranges/Mat are disjoint
  // and aligned; X is placed by an equal partition (the vector has no
  // disjoint partition in the plan).
  const parallelize::PlannedLoop& loop = setup.plan.loops[0];
  setup.owners["Y"] = loop.iterPartition;
  for (const auto& [stmtId, sym] : loop.accessPartition) {
    const ir::Stmt* stmt = loop.loop->findStmt(stmtId);
    if (stmt->region == "Ranges" || stmt->region == "Mat") {
      setup.owners[stmt->region] = sym;
    }
  }
  setup.partitions.emplace(
      "pX_owner", region::equalPartition(*world_, "X", params_.pieces));
  setup.owners["X"] = "pX_owner";
  return setup;
}

}  // namespace dpart::apps
