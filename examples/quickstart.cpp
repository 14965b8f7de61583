// Quickstart: auto-parallelize the paper's Figure 1 program end to end.
//
//   1. Declare regions, fields and index functions (a World).
//   2. Write the loops in the loop IR.
//   3. SessionBuilder::compile(): infer constraints -> unify -> solve ->
//      an immutable Plan; Session::execute(plan, world) runs it.
//   4. Check the parallel execution against serial.
//
// Build & run:  ./build/examples/quickstart [--trace out.json]
//                                           [--metrics out.json]
//
// With --trace, the run writes a Chrome trace_event JSON (open in
// chrome://tracing or https://ui.perfetto.dev) showing the compile phases,
// the executor launches and every DPL operator kernel.

#include <cstring>
#include <iostream>

#include "ir/interp.hpp"
#include "runtime/session.hpp"

using namespace dpart;

namespace {

constexpr region::Index kParticles = 1000;
constexpr region::Index kCells = 100;

void buildWorld(region::World& world) {
  auto& particles = world.addRegion("Particles", kParticles);
  auto& cells = world.addRegion("Cells", kCells);
  particles.addField("cell", region::FieldType::Idx);
  particles.addField("pos", region::FieldType::F64);
  cells.addField("vel", region::FieldType::F64);
  cells.addField("acc", region::FieldType::F64);

  auto cell = particles.idx("cell");
  for (region::Index p = 0; p < kParticles; ++p) {
    cell[static_cast<std::size_t>(p)] = p % kCells;  // particle -> its cell
  }
  auto vel = cells.f64("vel");
  auto acc = cells.f64("acc");
  for (region::Index c = 0; c < kCells; ++c) {
    vel[static_cast<std::size_t>(c)] = 0.01 * double(c);
    acc[static_cast<std::size_t>(c)] = 0.001 * double(c % 7);
  }
  // Pointer field function Particles[.].cell and the neighbor map h.
  world.defineFieldFn("Particles", "cell", "Cells");
  world.defineAffineFn("h", "Cells", "Cells",
                       [](region::Index c) { return (c + 1) % kCells; });
}

ir::Program figure1Program() {
  ir::Program prog;
  prog.name = "figure1";
  {
    // for (p in Particles):
    //   c = Particles[p].cell
    //   Particles[p].pos += f(Cells[c].vel, Cells[h(c)].vel)
    ir::LoopBuilder b("update_particles", "p", "Particles");
    b.loadIdx("c", "Particles", "cell", "p");
    b.loadF64("v1", "Cells", "vel", "c");
    b.apply("c2", "h", "c");
    b.loadF64("v2", "Cells", "vel", "c2");
    b.compute("dp", {"v1", "v2"},
              [](auto v) { return 0.5 * v[0] + 0.25 * v[1]; });
    b.reduce("Particles", "pos", "p", "dp");
    prog.loops.push_back(b.build());
  }
  {
    // for (c in Cells): Cells[c].vel += g(Cells[c].acc, Cells[h(c)].acc)
    ir::LoopBuilder b("update_cells", "c", "Cells");
    b.loadF64("a1", "Cells", "acc", "c");
    b.apply("c2", "h", "c");
    b.loadF64("a2", "Cells", "acc", "c2");
    b.compute("dv", {"a1", "a2"},
              [](auto v) { return v[0] + 0.5 * v[1]; });
    b.reduce("Cells", "vel", "c", "dv");
    prog.loops.push_back(b.build());
  }
  return prog;
}

}  // namespace

int main(int argc, char** argv) {
  region::World world;
  buildWorld(world);
  ir::Program prog = figure1Program();

  runtime::ExecOptions opts;
  opts.validateAccesses = true;  // check partition legality on every access
  // With --trace, compile() and the session record into one timeline.
  Tracer tracer;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      opts.observability.traceFile = argv[i + 1];
      opts.observability.tracer = &tracer;
      tracer.enable();
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      opts.observability.metricsFile = argv[i + 1];
    }
  }

  // Compile and execute split explicitly: compile() runs Algorithm 1 +
  // Algorithm 3 + Algorithm 2 and returns an immutable, shareable Plan —
  // the same artifact the plan service hands out — and Session::execute()
  // runs it without touching the compiler again. (The fluent
  // .run(world) one-liner is a thin wrapper over exactly these two calls.)
  Plan plan = Session::parallelize(prog).pieces(8).compile(
      world, opts.observability.tracer);
  std::cout << "compile: cacheHit=" << plan.cacheHit()
            << " solveMs=" << plan.stats().solveMs << '\n';

  Session session = Session::execute(plan, world, opts);
  session.run();

  std::cout << "Synthesized DPL program (paper Fig. 2, program B):\n"
            << session.plan().dpl.toString() << '\n';
  std::cout << session.plan().toString() << '\n';
  if (!opts.observability.traceFile.empty()) {
    std::cout << "trace written to " << opts.observability.traceFile << '\n';
  }
  if (!opts.observability.metricsFile.empty()) {
    std::cout << "metrics written to " << opts.observability.metricsFile
              << '\n';
  }

  // Compare against the serial reference.
  region::World reference;
  buildWorld(reference);
  ir::runSerial(reference, prog);

  auto got = world.region("Particles").f64("pos");
  auto want = reference.region("Particles").f64("pos");
  double maxErr = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    maxErr = std::max(maxErr, std::abs(got[i] - want[i]));
  }
  std::cout << "parallel vs serial max |error| on Particles.pos: " << maxErr
            << (maxErr < 1e-12 ? "  (OK)" : "  (MISMATCH!)") << '\n';
  return maxErr < 1e-12 ? 0 : 1;
}
