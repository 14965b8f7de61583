#include "apps/pennant.hpp"

#include <vector>

#include "support/check.hpp"

namespace dpart::apps {

using region::FieldType;
using region::Index;
using region::IndexSet;
using region::Partition;

void PennantApp::buildMesh() {
  const Index zx = params_.zx;
  const Index zy = params_.zyPerPiece * static_cast<Index>(params_.pieces);
  const auto pieces = static_cast<Index>(params_.pieces);
  zones_ = zx * zy;
  sides_ = zones_ * 4;
  const Index px = zx + 1;
  const Index py = zy + 1;
  points_ = px * py;

  // Point numbering: piece-boundary point rows (r = p * zyPerPiece for
  // p in 1..pieces-1) are "shared" and numbered first; all other rows are
  // private, piece-contiguous.
  std::vector<Index> pointId(static_cast<std::size_t>(points_), -1);
  auto rawId = [&](Index r, Index c) { return r * px + c; };
  auto pieceOfRow = [&](Index r) {
    return std::min<Index>(r / params_.zyPerPiece, pieces - 1);
  };
  auto isSharedRow = [&](Index r) {
    return r > 0 && r < py - 1 && r % params_.zyPerPiece == 0;
  };
  Index next = 0;
  std::vector<IndexSet> sharedSubs(static_cast<std::size_t>(pieces));
  for (Index r = 0; r < py; ++r) {
    if (!isSharedRow(r)) continue;
    // The shared row between pieces p-1 and p is owned by piece p.
    const Index ownerPiece = r / params_.zyPerPiece;
    region::IndexSetBuilder b;
    for (Index c = 0; c < px; ++c) {
      pointId[static_cast<std::size_t>(rawId(r, c))] = next;
      b.add(next);
      ++next;
    }
    sharedSubs[static_cast<std::size_t>(ownerPiece)] =
        sharedSubs[static_cast<std::size_t>(ownerPiece)].unionWith(b.build());
  }
  std::vector<IndexSet> privSubs;
  for (Index p = 0; p < pieces; ++p) {
    const Index lo = next;
    for (Index r = 0; r < py; ++r) {
      if (isSharedRow(r) || pieceOfRow(r) != p) continue;
      for (Index c = 0; c < px; ++c) {
        pointId[static_cast<std::size_t>(rawId(r, c))] = next++;
      }
    }
    privSubs.push_back(IndexSet::interval(lo, next));
  }
  DPART_CHECK(next == points_, "point numbering incomplete");
  ppPrivate_ = Partition("rp", std::move(privSubs));
  ppShared_ = Partition("rp", std::move(sharedSubs));

  // Regions.
  auto& rz = world_->addRegion("rz", zones_);
  auto& rp = world_->addRegion("rp", points_);
  auto& rs = world_->addRegion("rs", sides_);
  for (const char* f : {"zvol", "zarea", "zm", "zp", "zr", "ze", "zw", "zdl"}) {
    rz.addField(f, FieldType::F64);
  }
  for (const char* f : {"px", "py", "pu", "pv", "pfx", "pfy", "pmass"}) {
    rp.addField(f, FieldType::F64);
  }
  for (const char* f : {"sarea", "svol", "smass", "sfx", "sfy"}) {
    rs.addField(f, FieldType::F64);
  }
  for (const char* f : {"mapsz", "mapsp1", "mapsp2", "mapss3", "mapss4"}) {
    rs.addField(f, FieldType::Idx);
  }
  world_->defineFieldFn("rs", "mapsz", "rz");
  world_->defineFieldFn("rs", "mapsp1", "rp");
  world_->defineFieldFn("rs", "mapsp2", "rp");
  world_->defineFieldFn("rs", "mapss3", "rs");
  world_->defineFieldFn("rs", "mapss4", "rs");

  // Topology: zone (r, c) has corners (r,c) (r,c+1) (r+1,c+1) (r+1,c),
  // sides z*4+k from corner k to corner k+1 (mod 4).
  auto mapsz = rs.idx("mapsz");
  auto mapsp1 = rs.idx("mapsp1");
  auto mapsp2 = rs.idx("mapsp2");
  auto mapss3 = rs.idx("mapss3");
  auto mapss4 = rs.idx("mapss4");
  for (Index r = 0; r < zy; ++r) {
    for (Index c = 0; c < zx; ++c) {
      const Index z = r * zx + c;
      const Index corners[4] = {
          pointId[static_cast<std::size_t>(rawId(r, c))],
          pointId[static_cast<std::size_t>(rawId(r, c + 1))],
          pointId[static_cast<std::size_t>(rawId(r + 1, c + 1))],
          pointId[static_cast<std::size_t>(rawId(r + 1, c))]};
      for (Index k = 0; k < 4; ++k) {
        const auto s = static_cast<std::size_t>(z * 4 + k);
        mapsz[s] = z;
        mapsp1[s] = corners[k];
        mapsp2[s] = corners[(k + 1) % 4];
        mapss3[s] = z * 4 + (k + 3) % 4;
        mapss4[s] = z * 4 + (k + 1) % 4;
      }
    }
  }

  // Generator partitions of zones and sides (contiguous slabs).
  std::vector<IndexSet> zSubs, sSubs;
  const Index zonesPerPiece = zx * params_.zyPerPiece;
  for (Index p = 0; p < pieces; ++p) {
    zSubs.push_back(IndexSet::interval(p * zonesPerPiece,
                                       (p + 1) * zonesPerPiece));
    sSubs.push_back(IndexSet::interval(p * zonesPerPiece * 4,
                                       (p + 1) * zonesPerPiece * 4));
  }
  rzP_ = Partition("rz", std::move(zSubs));
  rsP_ = Partition("rs", std::move(sSubs));

  // Initial state.
  auto pxf = rp.f64("px");
  auto pyf = rp.f64("py");
  auto pm = rp.f64("pmass");
  for (Index r = 0; r < py; ++r) {
    for (Index c = 0; c < px; ++c) {
      const auto id =
          static_cast<std::size_t>(pointId[static_cast<std::size_t>(rawId(r, c))]);
      pxf[id] = double(c);
      pyf[id] = double(r);
      pm[id] = 1.0;
    }
  }
  auto zm = rz.f64("zm");
  auto ze = rz.f64("ze");
  for (Index z = 0; z < zones_; ++z) {
    zm[static_cast<std::size_t>(z)] = 1.0 + 0.001 * double(z % 97);
    ze[static_cast<std::size_t>(z)] = 2.0;
  }
  auto smass = rs.f64("smass");
  for (Index s = 0; s < sides_; ++s) {
    smass[static_cast<std::size_t>(s)] = 0.25;
  }
}

void PennantApp::buildProgram() {
  program_.name = "pennant";
  auto& prog = program_;

  // Zone loop: dst = fn(a, b) over zone fields, all centered.
  auto zoneLoop = [&](const std::string& name, const std::string& dst,
                      const std::string& a, const std::string& b,
                      ir::ComputeFn fn) {
    ir::LoopBuilder lb(name, "z", "rz");
    lb.loadF64("x", "rz", a, "z");
    lb.loadF64("y", "rz", b, "z");
    lb.compute("r", {"x", "y"}, std::move(fn));
    lb.store("rz", dst, "z", "r");
    prog.loops.push_back(lb.build());
  };
  auto pointLoop = [&](const std::string& name, const std::string& dst,
                       const std::string& a, const std::string& b,
                       ir::ComputeFn fn) {
    ir::LoopBuilder lb(name, "p", "rp");
    lb.loadF64("x", "rp", a, "p");
    lb.loadF64("y", "rp", b, "p");
    lb.compute("r", {"x", "y"}, std::move(fn));
    lb.store("rp", dst, "p", "r");
    prog.loops.push_back(lb.build());
  };

  auto half = [&](const std::string& h, double dt) {
    // (1) Side geometry from corner points (uncentered point reads,
    // centered side writes — this loop pins the side group un-relaxed).
    {
      ir::LoopBuilder lb("calc_side_geom_" + h, "s", "rs");
      lb.loadIdx("p1", "rs", "mapsp1", "s");
      lb.loadIdx("p2", "rs", "mapsp2", "s");
      lb.loadF64("x1", "rp", "px", "p1");
      lb.loadF64("y1", "rp", "py", "p1");
      lb.loadF64("x2", "rp", "px", "p2");
      lb.loadF64("y2", "rp", "py", "p2");
      lb.compute("area", {"x1", "y1", "x2", "y2"}, [](auto v) {
        return 0.5 * (v[0] * v[3] - v[2] * v[1]) + 0.75;
      });
      lb.compute("vol", {"area"}, [](auto v) { return v[0] / 3.0; });
      lb.store("rs", "sarea", "s", "area");
      lb.store("rs", "svol", "s", "vol");
      prog.loops.push_back(lb.build());
    }
    // (2)+(3) Zone area / volume via single uncentered reductions.
    auto zoneReduce = [&](const std::string& name, const std::string& src,
                          const std::string& dst) {
      ir::LoopBuilder lb(name, "s", "rs");
      lb.loadIdx("z", "rs", "mapsz", "s");
      lb.loadF64("v", "rs", src, "s");
      lb.reduce("rz", dst, "z", "v");
      prog.loops.push_back(lb.build());
    };
    zoneReduce("calc_zone_area_" + h, "sarea", "zarea");
    zoneReduce("calc_zone_vol_" + h, "svol", "zvol");
    // (4)(5) Zone state: density then pressure (centered).
    zoneLoop("calc_rho_" + h, "zr", "zm", "zvol",
             [](auto v) { return v[0] / (1.0 + v[1] * v[1] * 1e-4); });
    zoneLoop("calc_p_" + h, "zp", "zr", "ze",
             [](auto v) { return 0.4 * v[0] * v[1]; });
    // (6) Side force from zone pressure (uncentered zone read) and the
    // neighboring sides (uncentered side reads via mapss3/mapss4).
    {
      ir::LoopBuilder lb("calc_force_" + h, "s", "rs");
      lb.loadIdx("z", "rs", "mapsz", "s");
      lb.loadIdx("s3", "rs", "mapss3", "s");
      lb.loadIdx("s4", "rs", "mapss4", "s");
      lb.loadF64("p", "rz", "zp", "z");
      lb.loadF64("a", "rs", "sarea", "s");
      lb.loadF64("a3", "rs", "sarea", "s3");
      lb.loadF64("a4", "rs", "sarea", "s4");
      lb.compute("fx", {"p", "a", "a3"},
                 [](auto v) { return v[0] * (v[1] + 0.5 * v[2]); });
      lb.compute("fy", {"p", "a", "a4"},
                 [](auto v) { return v[0] * (v[1] - 0.5 * v[2]); });
      lb.store("rs", "sfx", "s", "fx");
      lb.store("rs", "sfy", "s", "fy");
      prog.loops.push_back(lb.build());
    }
    // (7)(8) Scatter forces to the two corner points (the double
    // uncentered reductions that need private sub-partitions).
    auto scatter = [&](const std::string& name, const std::string& src,
                       const std::string& dst) {
      ir::LoopBuilder lb(name, "s", "rs");
      lb.loadIdx("p1", "rs", "mapsp1", "s");
      lb.loadIdx("p2", "rs", "mapsp2", "s");
      lb.loadF64("f", "rs", src, "s");
      lb.compute("fh", {"f"}, [](auto v) { return 0.5 * v[0]; });
      lb.reduce("rp", dst, "p1", "fh");
      lb.reduce("rp", dst, "p2", "fh");
      prog.loops.push_back(lb.build());
    };
    scatter("scatter_fx_" + h, "sfx", "pfx");
    scatter("scatter_fy_" + h, "sfy", "pfy");
    // (9)-(12) Point updates (centered).
    pointLoop("calc_accel_u_" + h, "pu", "pfx", "pmass",
              [dt](auto v) { return v[0] / v[1] * dt; });
    pointLoop("calc_accel_v_" + h, "pv", "pfy", "pmass",
              [dt](auto v) { return v[0] / v[1] * dt; });
    pointLoop("adv_px_" + h, "px", "px", "pu",
              [dt](auto v) { return v[0] + dt * v[1] * 1e-3; });
    pointLoop("adv_py_" + h, "py", "py", "pv",
              [dt](auto v) { return v[0] + dt * v[1] * 1e-3; });
    // (13) Zone work from side forces and corner velocity (uncentered point
    // reads, single uncentered zone reduction).
    {
      ir::LoopBuilder lb("zone_work_" + h, "s", "rs");
      lb.loadIdx("z", "rs", "mapsz", "s");
      lb.loadIdx("p1", "rs", "mapsp1", "s");
      lb.loadF64("fx", "rs", "sfx", "s");
      lb.loadF64("u", "rp", "pu", "p1");
      lb.compute("w", {"fx", "u"}, [](auto v) { return v[0] * v[1]; });
      lb.reduce("rz", "zw", "z", "w");
      prog.loops.push_back(lb.build());
    }
    // (14)-(17) Zone energy, sound speed, local dt, and force reset.
    zoneLoop("calc_energy_" + h, "ze", "ze", "zw",
             [](auto v) { return v[0] + 1e-6 * v[1]; });
    zoneLoop("calc_cs_" + h, "zdl", "zp", "zr",
             [](auto v) { return v[0] / (v[1] + 1.0); });
    zoneLoop("zero_work_" + h, "zw", "zw", "zw", [](auto) { return 0.0; });
    pointLoop("zero_force_" + h, "pfx", "pfx", "pfy",
              [](auto) { return 0.0; });
  };

  half("pred", 0.5);
  half("corr", 1.0);
  // Prologue / epilogue loops shared by both halves.
  zoneLoop("init_vol", "zvol", "zvol", "zvol", [](auto) { return 0.0; });
  zoneLoop("init_area", "zarea", "zarea", "zarea", [](auto) { return 0.0; });
  zoneLoop("calc_dt", "zdl", "zdl", "zvol",
           [](auto v) { return v[0] * 0.9 + 1e-5 * v[1]; });
  DPART_CHECK(program_.loops.size() == 37, "PENNANT must have 37 loops");
}

PennantApp::PennantApp(Params params)
    : params_(params), world_(std::make_unique<region::World>()) {
  buildMesh();
  buildProgram();
}

std::map<std::string, Partition> PennantApp::externalBindings() const {
  return {{"pp_private", ppPrivate_},
          {"pp_shared", ppShared_},
          {"rs_p", rsP_},
          {"rz_p", rzP_},
          {"rp_p_private", ppPrivate_}};
}

SimSetup PennantApp::autoSetup() {
  SimSetup setup;
  parallelize::AutoParallelizer ap(*world_);
  setup.plan = ap.plan(program_);
  setup.partitions = evaluatePlan(*world_, setup.plan, params_.pieces, {});
  // Placement by the (equal) iteration partitions of the centered loops —
  // for points this packs all shared points into subregion 0.
  for (const parallelize::PlannedLoop& pl : setup.plan.loops) {
    if (pl.loop->iterRegion == "rz" && !setup.owners.contains("rz")) {
      setup.owners["rz"] = pl.iterPartition;
    }
    if (pl.loop->iterRegion == "rp" && !setup.owners.contains("rp")) {
      setup.owners["rp"] = pl.iterPartition;
    }
    if (pl.loop->iterRegion == "rs" && !setup.owners.contains("rs")) {
      setup.owners["rs"] = pl.iterPartition;
    }
  }
  return setup;
}

SimSetup PennantApp::hint1Setup() {
  parallelize::AutoParallelizer ap(*world_);
  constraint::System ext;
  ext.declareSymbol("pp_private", "rp", /*fixed=*/true);
  ext.declareSymbol("pp_shared", "rp", /*fixed=*/true);
  auto u = dpl::unionOf(dpl::symbol("pp_private"), dpl::symbol("pp_shared"));
  ext.addDisj(u);
  ext.addComp(u, "rp");
  ap.addExternalConstraint(ext);

  SimSetup setup;
  setup.plan = ap.plan(program_);
  setup.partitions = evaluatePlan(*world_, setup.plan, params_.pieces,
                                  {{"pp_private", ppPrivate_},
                                   {"pp_shared", ppShared_}});
  for (const parallelize::PlannedLoop& pl : setup.plan.loops) {
    if (!setup.owners.contains(pl.loop->iterRegion)) {
      setup.owners[pl.loop->iterRegion] = pl.iterPartition;
    }
  }
  return setup;
}

SimSetup PennantApp::hint2Setup() {
  parallelize::AutoParallelizer ap(*world_);
  constraint::System ext;
  ext.declareSymbol("pp_private", "rp", /*fixed=*/true);
  ext.declareSymbol("pp_shared", "rp", /*fixed=*/true);
  auto u = dpl::unionOf(dpl::symbol("pp_private"), dpl::symbol("pp_shared"));
  ext.addDisj(u);
  ext.addComp(u, "rp");
  // Reuse the generator's side/zone partitions (Section 6.5, Hint2):
  // recursive neighbor-side constraints and the zone image.
  ext.declareSymbol("rs_p", "rs", /*fixed=*/true);
  ext.declareSymbol("rz_p", "rz", /*fixed=*/true);
  ext.declareSymbol("rp_p_private", "rp", /*fixed=*/true);
  ext.addDisj(dpl::symbol("rs_p"));
  ext.addComp(dpl::symbol("rs_p"), "rs");
  ext.addDisj(dpl::symbol("rz_p"));
  ext.addComp(dpl::symbol("rz_p"), "rz");
  ext.addDisj(dpl::symbol("rp_p_private"));
  ext.addSubset(dpl::image(dpl::symbol("rs_p"), "rs[.].mapsz", "rz"),
                dpl::symbol("rz_p"));
  ext.addSubset(dpl::image(dpl::symbol("rs_p"), "rs[.].mapss3", "rs"),
                dpl::symbol("rs_p"));
  ext.addSubset(dpl::image(dpl::symbol("rs_p"), "rs[.].mapss4", "rs"),
                dpl::symbol("rs_p"));
  ext.addSubset(dpl::preimage("rs", "rs[.].mapsp1",
                              dpl::symbol("rp_p_private")),
                dpl::symbol("rs_p"));
  ext.addSubset(dpl::preimage("rs", "rs[.].mapsp2",
                              dpl::symbol("rp_p_private")),
                dpl::symbol("rs_p"));
  ap.addExternalConstraint(ext);

  SimSetup setup;
  setup.plan = ap.plan(program_);
  setup.partitions =
      evaluatePlan(*world_, setup.plan, params_.pieces, externalBindings());
  setup.owners["rs"] = "rs_p";
  setup.owners["rz"] = "rz_p";
  for (const parallelize::PlannedLoop& pl : setup.plan.loops) {
    if (pl.loop->iterRegion == "rp" && !setup.owners.contains("rp")) {
      setup.owners["rp"] = pl.iterPartition;
    }
  }
  return setup;
}

SimSetup PennantApp::manualSetup() {
  ManualPlanBuilder mb(program_);
  mb.external("pp_private").external("pp_shared");
  mb.external("rs_p").external("rz_p").external("rp_p_private");
  mb.define("pp", dpl::unionOf(dpl::symbol("pp_private"),
                               dpl::symbol("pp_shared")));
  mb.define("p_p1", dpl::image(dpl::symbol("rs_p"), "rs[.].mapsp1", "rp"));
  mb.define("p_p2", dpl::image(dpl::symbol("rs_p"), "rs[.].mapsp2", "rp"));

  for (std::size_t i = 0; i < program_.loops.size(); ++i) {
    const ir::Loop& loop = program_.loops[i];
    std::vector<std::string> parts;
    bool hasPointReduce = false;
    loop.forEachStmt([&](const ir::Stmt& s) {
      switch (s.kind) {
        case ir::StmtKind::LoadF64:
        case ir::StmtKind::LoadIdx:
        case ir::StmtKind::StoreF64:
        case ir::StmtKind::ReduceF64: {
          std::string p;
          if (s.region == "rs") {
            p = "rs_p";
          } else if (s.region == "rz") {
            p = "rz_p";
          } else {  // rp
            if (loop.iterRegion == "rp") {
              p = "pp";
            } else if (s.kind == ir::StmtKind::ReduceF64) {
              hasPointReduce = true;
              p = s.field == "pfx" || s.field == "pfy"
                      ? (s.idxVar == "p1" ? "p_p1" : "p_p2")
                      : "pp";
            } else {
              p = s.idxVar == "p2" ? "p_p2" : "p_p1";
            }
          }
          parts.push_back(std::move(p));
          break;
        }
        default:
          break;
      }
    });
    const std::string iter = loop.iterRegion == "rs"   ? "rs_p"
                             : loop.iterRegion == "rz" ? "rz_p"
                                                       : "pp";
    mb.assign(i, iter, parts);
    // Zone reductions: guarded by the aligned zone partition. Point
    // reductions: direct into private points, buffered over the full
    // shared block otherwise (the paper's Manual buffer sizing).
    loop.forEachStmt([&](const ir::Stmt& s) {
      if (s.kind != ir::StmtKind::ReduceF64) return;
      if (s.region == "rz" && loop.iterRegion == "rs") {
        optimize::ReducePlan rp;
        rp.stmtId = s.id;
        rp.strategy = optimize::ReduceStrategy::Guarded;
        rp.partition = "rz_p";
        mb.reduce(i, "rz", rp, 0);
      }
    });
    if (hasPointReduce) {
      for (int which = 0; which < 2; ++which) {
        optimize::ReducePlan rp;
        rp.strategy = optimize::ReduceStrategy::PrivateSplit;
        rp.privatePart = "rp_p_private";
        rp.sharedPart = "manual_shared_block";
        mb.reduce(i, "rp", rp, which);
      }
    }
  }

  SimSetup setup;
  setup.plan = mb.build();
  setup.plan.externalSymbols.insert("manual_shared_block");

  // Manual buffers: the whole shared block adjacent to each piece (both
  // boundary rows), independent of how many entries are actually shared.
  const auto pieces = static_cast<Index>(params_.pieces);
  const Index rowPts = params_.zx + 1;
  std::vector<IndexSet> blocks;
  for (Index p = 0; p < pieces; ++p) {
    IndexSet b;
    if (p > 0) {
      b = b.unionWith(IndexSet::interval((p - 1) * rowPts, p * rowPts));
    }
    if (p + 1 < pieces) {
      b = b.unionWith(IndexSet::interval(p * rowPts, (p + 1) * rowPts));
    }
    blocks.push_back(std::move(b));
  }
  auto externals = externalBindings();
  externals.emplace("manual_shared_block", Partition("rp", std::move(blocks)));
  setup.partitions =
      evaluatePlan(*world_, setup.plan, params_.pieces, externals);
  setup.owners["rs"] = "rs_p";
  setup.owners["rz"] = "rz_p";
  setup.owners["rp"] = "pp";
  return setup;
}

}  // namespace dpart::apps
