// e2e_bench: the end-to-end benchmark of the dpart pipeline, with a traced
// per-layer breakdown. README.md gives the workloads, the metrics and why.
//
//   e2e_bench --workload compile|prepare|step|service_exact|
//                        service_renamed|service_novel
//             --seed N --seconds S --trace 0|1 [--trace-file PATH]
//             [--self-check]
//
// --trace 0 runs one workload and reports its end-to-end metrics. --trace 1
// runs every workload in turn with the benchmark's own spans recorded and
// reports the per-layer metrics. --self-check corrupts every tenth result
// before its oracle sees it, to show that the oracles count failures. The
// last line of stdout is the JSON result.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/circuit.hpp"
#include "apps/miniaero.hpp"
#include "apps/pennant.hpp"
#include "apps/spmv.hpp"
#include "apps/stencil.hpp"
#include "harness.hpp"
#include "ir/interp.hpp"
#include "parallelize/parallelize.hpp"
#include "probe.hpp"
#include "programs.hpp"
#include "runtime/executor.hpp"
#include "runtime/session.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "support/trace.hpp"

namespace perfbench {
namespace {

using namespace dpart;

constexpr const char* kCat = "perfbench";
constexpr std::size_t kPieces = 4;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// A run takes at least this many samples, so that p90 has ten beyond it.
constexpr std::size_t kMinSamples = 100;
/// Timesteps between two checks of the step workload's fields.
constexpr int kStepsPerCheck = 2;
/// Tolerance of the field oracle, as in tests/apps_test.cpp.
constexpr double kTol = 1e-9;

struct Timing {
  double cpuMs = 0;
  double wallMs = 0;
};

/// Results checked by an output oracle, and how many failed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool selfCheck = false;

  /// True when this result should be corrupted before its check.
  bool corruptNext() { return selfCheck && attempted % 10 == 9; }
  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// ---- Span table: the benchmark's spans, read back from the trace. ----

/// Durations and self times of the recorded spans, keyed by their path
/// ("round.compile/app.spmv/AutoParallelizer::plan").
class SpanTable {
 public:
  explicit SpanTable(const std::vector<TraceEvent>& events) {
    struct Open {
      std::string path;
      std::uint64_t ts = 0;
      double childMs = 0;
    };
    std::map<std::uint32_t, std::vector<Open>> stacks;
    for (const TraceEvent& e : events) {
      auto& stack = stacks[e.tid];
      if (e.phase == TraceEvent::Phase::Begin) {
        const std::string path =
            stack.empty() ? e.name : stack.back().path + "/" + e.name;
        stack.push_back(Open{path, e.tsMicros, 0});
      } else if (e.phase == TraceEvent::Phase::End && !stack.empty()) {
        const Open open = stack.back();
        stack.pop_back();
        const double ms = static_cast<double>(e.tsMicros - open.ts) / 1e3;
        durations_[open.path].push_back(ms);
        selfTimes_[open.path].push_back(ms - open.childMs);
        if (!stack.empty()) stack.back().childMs += ms;
      }
    }
  }

  [[nodiscard]] const std::vector<double>& durations(
      const std::string& path) const {
    return lookup(durations_, path);
  }
  [[nodiscard]] const std::vector<double>& selfTimes(
      const std::string& path) const {
    return lookup(selfTimes_, path);
  }

  /// One line per span path: count, median duration, median self time.
  void print() const {
    std::printf("== spans: path, count, median ms, median self ms ==\n");
    for (const auto& [path, d] : durations_) {
      std::printf("  %-64s %6zu %10.4f %10.4f\n", path.c_str(), d.size(),
                  quantile(d, 0.5), quantile(selfTimes_.at(path), 0.5));
    }
  }

 private:
  static const std::vector<double>& lookup(
      const std::map<std::string, std::vector<double>>& m,
      const std::string& path) {
    static const std::vector<double> kEmpty;
    const auto it = m.find(path);
    return it == m.end() ? kEmpty : it->second;
  }

  std::map<std::string, std::vector<double>> durations_;
  std::map<std::string, std::vector<double>> selfTimes_;
};

// ---- The five apps, and the fields the output oracle compares. ----

struct App {
  std::string name;
  std::shared_ptr<void> owner;
  region::World* world = nullptr;
  const ir::Program* program = nullptr;
};

template <typename T>
App makeApp(const char* name, typename T::Params params) {
  auto app = std::make_shared<T>(params);
  return App{name, app, &app->world(), &app->program()};
}

/// The five apps at Table 1 sizes (`execute` false) or at the sizes where
/// partition materialization is heavy. The seed draws the circuit graph.
std::vector<App> makeApps(bool execute, std::uint64_t seed) {
  apps::SpmvApp::Params spmv;
  spmv.pieces = kPieces;
  spmv.rowsPerPiece = execute ? 16384 : 1024;
  apps::StencilApp::Params stencil;
  stencil.pieces = kPieces;
  stencil.rowsPerPiece = 64;
  stencil.cols = execute ? 256 : 64;
  apps::CircuitApp::Params circuit;
  circuit.pieces = kPieces;
  circuit.seed = seed;
  if (execute) {
    circuit.nodesPerCluster = 8192;
    circuit.wiresPerCluster = 32768;
  }
  apps::MiniAeroApp::Params miniaero;
  miniaero.pieces = kPieces;
  miniaero.nx = 8;
  miniaero.ny = 8;
  miniaero.nzPerPiece = 8;
  apps::PennantApp::Params pennant;
  pennant.pieces = kPieces;
  if (execute) pennant.zyPerPiece = 24;
  return {makeApp<apps::SpmvApp>("spmv", spmv),
          makeApp<apps::StencilApp>("stencil", stencil),
          makeApp<apps::CircuitApp>("circuit", circuit),
          makeApp<apps::MiniAeroApp>("miniaero", miniaero),
          makeApp<apps::PennantApp>("pennant", pennant)};
}

/// Every F64 column of a world, in region and field order.
using Fields = std::vector<std::vector<double>>;

Fields snapshotFields(region::World& world) {
  Fields out;
  for (const std::string& r : world.regionNames()) {
    region::Region& region = world.region(r);
    for (const std::string& f : region.fieldNames()) {
      if (region.fieldType(f) != region::FieldType::F64) continue;
      const auto col = region.f64(f);
      out.emplace_back(col.begin(), col.end());
    }
  }
  return out;
}

void restoreFields(region::World& world, const Fields& fields) {
  std::size_t i = 0;
  for (const std::string& r : world.regionNames()) {
    region::Region& region = world.region(r);
    for (const std::string& f : region.fieldNames()) {
      if (region.fieldType(f) != region::FieldType::F64) continue;
      std::copy(fields[i].begin(), fields[i].end(), region.f64(f).begin());
      ++i;
    }
  }
}

bool fieldsMatch(const Fields& want, const Fields& got) {
  if (want.size() != got.size()) return false;
  for (std::size_t c = 0; c < want.size(); ++c) {
    if (want[c].size() != got[c].size()) return false;
    for (std::size_t i = 0; i < want[c].size(); ++i) {
      if (std::abs(want[c][i] - got[c][i]) > kTol * (1 + std::abs(want[c][i])))
        return false;
    }
  }
  return true;
}

/// Fields after `steps` serial timesteps from the world's current state;
/// the world is left as it was.
Fields serialReference(const App& app, int steps) {
  const Fields initial = snapshotFields(*app.world);
  for (int s = 0; s < steps; ++s) ir::runSerial(*app.world, *app.program);
  Fields want = snapshotFields(*app.world);
  restoreFields(*app.world, initial);
  return want;
}

runtime::ExecOptions execOptions() {
  runtime::ExecOptions opts;
  opts.threads = 1;
  return opts;
}

// ---- Workloads. ----

class Workload {
 public:
  explicit Workload(Tally& tally) : tally_(tally) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds the inputs and everything the timed loop needs, replacing any
  /// earlier set-up.
  virtual void setUp(std::uint64_t seed) = 0;
  /// One timed sample. Oracles run after the timed part. With `record`,
  /// the per-layer values of this sample are kept.
  virtual Timing sample(Tracer* tracer, bool record) = 0;
  /// The per-layer metrics of the recorded samples.
  virtual void perLayer(Report& report, const SpanTable& spans) const = 0;
  /// Checks that hold for the run as a whole; called once at its end.
  virtual void finish() {}
  /// Workload-specific end-to-end numbers, printed but not in the result.
  virtual void notes(Report& /*report*/) const {}

 protected:
  Tally& tally_;
};

/// Cold AutoParallelizer::plan() of the five apps at Table 1 sizes, with
/// default options and no SolveCache.
class CompileWorkload final : public Workload {
 public:
  using Workload::Workload;

  void setUp(std::uint64_t seed) override {
    apps_.clear();  // release the previous set-up before building the next
    apps_ = makeApps(/*execute=*/false, seed);
    firstText_.clear();
    for (const App& app : apps_) {
      parallelize::AutoParallelizer ap(*app.world);
      const parallelize::ParallelPlan plan = ap.plan(*app.program);
      firstText_.push_back(plan.toString());
      loops_[app.name] = plan.stats.parallelLoops;
      stmts_[app.name] = plan.dpl.size();
      // The first plan must compute what the serial interpreter computes,
      // with every access checked against its assigned subregion.
      const Fields initial = snapshotFields(*app.world);
      const Fields want = serialReference(app, 1);
      bool ok = true;
      try {
        runtime::ExecOptions opts = execOptions();
        opts.validateAccesses = true;
        runtime::PlanExecutor exec(*app.world, plan, kPieces, opts);
        exec.run();
        ok = fieldsMatch(want, snapshotFields(*app.world));
      } catch (const Error& e) {
        std::fprintf(stderr, "compile oracle: %s: %s\n", app.name.c_str(),
                     e.what());
        ok = false;
      }
      tally_.add(ok);
      restoreFields(*app.world, initial);
    }
  }

  Timing sample(Tracer* tracer, bool record) override {
    std::vector<std::optional<parallelize::ParallelPlan>> plans(apps_.size());
    TraceSpan round(tracer, kCat, "round.compile");
    const double c0 = cpuMs();
    const double w0 = wallMs();
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      TraceSpan app(tracer, kCat, "app." + apps_[i].name);
      TraceSpan call(tracer, kCat, "AutoParallelizer::plan");
      try {
        parallelize::AutoParallelizer ap(*apps_[i].world);
        plans[i] = ap.plan(*apps_[i].program);
      } catch (const Error& e) {
        std::fprintf(stderr, "compile: %s: %s\n", apps_[i].name.c_str(),
                     e.what());
      }
    }
    const Timing t{cpuMs() - c0, wallMs() - w0};
    round.end();
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      if (!plans[i]) {
        tally_.add(false);
        continue;
      }
      std::string text = plans[i]->toString();
      if (tally_.corruptNext()) text += "corrupted";
      tally_.add(text == firstText_[i]);
      if (record) stats_[apps_[i].name].push_back(plans[i]->stats);
    }
    return t;
  }

  void perLayer(Report& report, const SpanTable& spans) const override {
    for (const App& app : apps_) {
      const std::string& a = app.name;
      const std::vector<double>& planMs = spans.durations(
          "round.compile/app." + a + "/AutoParallelizer::plan");
      const auto it = stats_.find(a);
      const std::vector<parallelize::CompileStats> none;
      const auto& stats = it == stats_.end() ? none : it->second;
      std::vector<double> infer, canon, unify, solve, rewrite, rest;
      for (std::size_t i = 0; i < stats.size(); ++i) {
        const parallelize::CompileStats& s = stats[i];
        infer.push_back(s.inferMs);
        canon.push_back(s.canonMs);
        unify.push_back(s.unifyMs);
        solve.push_back(s.solveMs);
        rewrite.push_back(s.rewriteMs);
        if (i < planMs.size()) {
          rest.push_back(planMs[i] - s.inferMs - s.canonMs - s.unifyMs -
                         s.solveMs - s.rewriteMs);
        }
      }
      report.add("parallelize.plan_ms." + a, mean(planMs), "ms");
      report.add("analysis.infer_ms." + a, mean(infer), "ms");
      report.add("constraint.canon_ms." + a, mean(canon), "ms");
      report.add("constraint.unify_ms." + a, mean(unify), "ms");
      report.add("constraint.solve_ms." + a, mean(solve), "ms");
      report.add("parallelize.rewrite_ms." + a, mean(rewrite), "ms");
      report.add("parallelize.unattributed_ms." + a, mean(rest), "ms");
      report.add("parallelize.loops." + a, loops_.at(a), "count");
      report.add("dpl.stmts." + a, static_cast<double>(stmts_.at(a)),
                 "count");
    }
  }

 private:
  std::vector<App> apps_;
  std::vector<std::string> firstText_;
  std::map<std::string, int> loops_;
  std::map<std::string, std::size_t> stmts_;
  std::map<std::string, std::vector<parallelize::CompileStats>> stats_;
};

/// Shared set-up of the two execute workloads: the five apps at heavy
/// materialization sizes with their plans compiled.
struct ExecuteInputs {
  std::vector<App> apps;
  std::vector<parallelize::ParallelPlan> plans;

  void build(std::uint64_t seed) {
    plans.clear();
    apps.clear();  // release the previous set-up before building the next
    apps = makeApps(/*execute=*/true, seed);
    for (const App& app : apps) {
      parallelize::AutoParallelizer ap(*app.world);
      plans.push_back(ap.plan(*app.program));
    }
  }
};

/// The prepare phase: per app, a fresh PlanExecutor (threads = 1) runs
/// preparePartitions() and verifyPartitions().
class PrepareWorkload final : public Workload {
 public:
  using Workload::Workload;

  void setUp(std::uint64_t seed) override {
    reference_.clear();
    in_.build(seed);
    for (std::size_t i = 0; i < in_.apps.size(); ++i) {
      const App& app = in_.apps[i];
      // The reference partitions, and the fields they compute.
      runtime::PlanExecutor exec(*app.world, in_.plans[i], kPieces,
                                 execOptions());
      exec.preparePartitions();
      exec.verifyPartitions();
      reference_.push_back(exec.partitions());
      const Fields initial = snapshotFields(*app.world);
      const Fields want = serialReference(app, kStepsPerCheck);
      for (int s = 0; s < kStepsPerCheck; ++s) exec.run();
      tally_.add(fieldsMatch(want, snapshotFields(*app.world)));
      restoreFields(*app.world, initial);
    }
  }

  Timing sample(Tracer* tracer, bool record) override {
    std::vector<std::unique_ptr<runtime::PlanExecutor>> execs;
    std::vector<bool> ok(in_.apps.size(), true);
    Timing t;
    TraceSpan round(tracer, kCat, "round.prepare");
    for (std::size_t i = 0; i < in_.apps.size(); ++i) {
      TraceSpan app(tracer, kCat, "app." + in_.apps[i].name);
      execs.push_back(std::make_unique<runtime::PlanExecutor>(
          *in_.apps[i].world, in_.plans[i], kPieces, execOptions()));
      const double c0 = cpuMs();
      const double w0 = wallMs();
      try {
        {
          TraceSpan call(tracer, kCat, "PlanExecutor::preparePartitions");
          execs[i]->preparePartitions();
        }
        TraceSpan call(tracer, kCat, "PlanExecutor::verifyPartitions");
        execs[i]->verifyPartitions();
      } catch (const Error& e) {
        std::fprintf(stderr, "prepare: %s: %s\n", in_.apps[i].name.c_str(),
                     e.what());
        ok[i] = false;
      }
      t.cpuMs += cpuMs() - c0;
      t.wallMs += wallMs() - w0;
    }
    round.end();
    PerfCounters sum;
    for (std::size_t i = 0; i < execs.size(); ++i) {
      auto parts = execs[i]->partitions();
      if (tally_.corruptNext()) parts.erase(parts.begin());
      tally_.add(ok[i] && parts == reference_[i]);
      sum.merge(execs[i]->counters());
    }
    if (record) counters_.push_back(sum);
    return t;
  }

  void perLayer(Report& report, const SpanTable& spans) const override {
    std::vector<double> prepareTotal(counters_.size(), 0.0);
    for (const App& app : in_.apps) {
      const std::string base = "round.prepare/app." + app.name;
      const auto& prep =
          spans.durations(base + "/PlanExecutor::preparePartitions");
      report.add("runtime.prepare_ms." + app.name, mean(prep), "ms");
      report.add(
          "region.verify_ms." + app.name,
          mean(spans.durations(base + "/PlanExecutor::verifyPartitions")),
          "ms");
      for (std::size_t i = 0; i < prep.size() && i < prepareTotal.size(); ++i)
        prepareTotal[i] += prep[i];
    }
    auto perRound = [&](const std::function<double(const PerfCounters&)>& f) {
      std::vector<double> v;
      for (const PerfCounters& c : counters_) v.push_back(f(c));
      return mean(v);
    };
    for (std::size_t op = 0; op < PerfCounters::kNumOps; ++op) {
      const std::string name = PerfCounters::opName(op);
      report.add("dpl." + name + "_ms",
                 perRound([op](const PerfCounters& c) {
                   return c.ops[op].seconds * 1e3;
                 }),
                 "ms");
      report.add("dpl." + name + "_elements",
                 perRound([op](const PerfCounters& c) {
                   return static_cast<double>(c.ops[op].elements);
                 }),
                 "elements");
    }
    report.add("dpl.runs",
               perRound([](const PerfCounters& c) {
                 std::uint64_t runs = 0;
                 for (const OpCounter& o : c.ops) runs += o.runs;
                 return static_cast<double>(runs);
               }),
               "count");
    report.add("dpl.memo_hit_frac",
               perRound([](const PerfCounters& c) {
                 const double all =
                     static_cast<double>(c.cacheHits + c.cacheMisses);
                 return all > 0 ? static_cast<double>(c.cacheHits) / all : 0;
               }),
               "frac");
    report.add("region.indexset.bitmap_words",
               perRound([](const PerfCounters& c) {
                 return static_cast<double>(c.bitmapOpWords);
               }),
               "words");
    report.add("region.indexset.container_switches",
               perRound([](const PerfCounters& c) {
                 return static_cast<double>(c.containerSwitches);
               }),
               "count");
    std::vector<double> rest;
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      rest.push_back(prepareTotal[i] - counters_[i].totalSeconds() * 1e3);
    }
    report.add("runtime.prepare_unattributed_ms", mean(rest), "ms");
  }

 private:
  ExecuteInputs in_;
  std::vector<std::map<std::string, region::Partition>> reference_;
  std::vector<PerfCounters> counters_;
};

/// Timesteps: one PlanExecutor::run() of each app's prepared executor.
class StepWorkload final : public Workload {
 public:
  using Workload::Workload;

  void setUp(std::uint64_t seed) override {
    execs_.clear();
    initial_.clear();
    want_.clear();
    in_.build(seed);
    for (std::size_t i = 0; i < in_.apps.size(); ++i) {
      const App& app = in_.apps[i];
      execs_.push_back(std::make_unique<runtime::PlanExecutor>(
          *app.world, in_.plans[i], kPieces, execOptions()));
      execs_.back()->preparePartitions();
      execs_.back()->verifyPartitions();
      initial_.push_back(snapshotFields(*app.world));
      want_.push_back(serialReference(app, kStepsPerCheck));
    }
    steps_ = 0;
  }

  Timing sample(Tracer* tracer, bool record) override {
    std::vector<std::size_t> buffered;
    Timing t;
    bool threw = false;
    TraceSpan round(tracer, kCat, "round.step");
    for (std::size_t i = 0; i < execs_.size(); ++i) {
      TraceSpan app(tracer, kCat, "app." + in_.apps[i].name);
      const std::size_t before = execs_[i]->bufferedElements();
      const double c0 = cpuMs();
      const double w0 = wallMs();
      try {
        TraceSpan call(tracer, kCat, "PlanExecutor::run");
        execs_[i]->run();
      } catch (const Error& e) {
        std::fprintf(stderr, "step: %s: %s\n", in_.apps[i].name.c_str(),
                     e.what());
        threw = true;
      }
      t.cpuMs += cpuMs() - c0;
      t.wallMs += wallMs() - w0;
      buffered.push_back(execs_[i]->bufferedElements() - before);
    }
    round.end();
    if (record) buffered_.push_back(buffered);
    if (++steps_ == kStepsPerCheck || threw) {
      // Compare with the serial interpreter, then rewind the fields so
      // every check covers the same timesteps.
      for (std::size_t i = 0; i < execs_.size(); ++i) {
        region::World& world = *in_.apps[i].world;
        Fields got = snapshotFields(world);
        if (tally_.corruptNext()) got[0][0] += 1.0;
        tally_.add(!threw && fieldsMatch(want_[i], got));
        restoreFields(world, initial_[i]);
      }
      steps_ = 0;
    }
    return t;
  }

  void perLayer(Report& report, const SpanTable& spans) const override {
    for (std::size_t i = 0; i < in_.apps.size(); ++i) {
      const std::string& a = in_.apps[i].name;
      report.add(
          "runtime.step_ms." + a,
          mean(spans.durations("round.step/app." + a + "/PlanExecutor::run")),
          "ms");
      std::vector<double> b;
      for (const auto& row : buffered_) {
        b.push_back(static_cast<double>(row[i]));
      }
      report.add("runtime.buffered_elements." + a, mean(b), "elements");
    }
  }

 private:
  ExecuteInputs in_;
  std::vector<std::unique_ptr<runtime::PlanExecutor>> execs_;
  std::vector<Fields> initial_;
  std::vector<Fields> want_;
  std::vector<std::vector<std::size_t>> buffered_;
  int steps_ = 0;
};

/// A loopback PlanServer with one worker serves one client, one request in
/// flight, in batches of one request class: exact resubmissions of warm
/// programs (served by the L1 response memo), renamed isomorphic copies of
/// them (an L2 SolveCache hit: canonicalize + rebind) or novel programs (a
/// full compile). Each class is a workload of its own, so that no assumed
/// mix of classes weights the result.
class ServiceWorkload final : public Workload {
 public:
  enum Class { kExact, kRenamed, kNovel, kClasses };
  static constexpr const char* kClassNames[kClasses] = {"exact", "renamed",
                                                        "novel"};
  /// Requests in one batch, per class: enough that a batch costs about as
  /// much CPU as the probe.
  static constexpr int kBatch[kClasses] = {256, 16, 4};
  /// Warm programs. Exact and renamed batches hold each of them equally
  /// often, so that every batch of a class does the same work.
  static constexpr int kBases = 16;
  static_assert(kBatch[kExact] % kBases == 0 && kBatch[kRenamed] % kBases == 0);
  /// Generated program sizes; bases and novel programs cycle through them,
  /// so every novel batch holds the same sizes.
  static constexpr int kSizes =
      ProgramGenerator::kMaxLoops - ProgramGenerator::kMinLoops + 1;
  static_assert(kBatch[kNovel] % kSizes == 0);

  ServiceWorkload(Tally& tally, Class cls) : Workload(tally), cls_(cls) {}
  ~ServiceWorkload() override { stopServer(); }

  void setUp(std::uint64_t seed) override {
    stopServer();
    gen_ = std::make_unique<ProgramGenerator>(seed);
    bases_.clear();
    baseDpl_.clear();
    novel_ = 0;
    for (int b = 0; b < kBases; ++b) {
      bases_.push_back(gen_->fresh(loopCount(b)));
      baseDpl_.push_back(localDpl(ProgramGenerator::request(bases_[b], "")));
    }
    service::ServerOptions opts;
    opts.workers = 1;
    // Nothing may be evicted during a run: an evicted warm program would
    // turn exact and renamed requests into misses mid-run.
    opts.cacheCapacity = std::size_t{1} << 20;
    opts.responseCacheCapacity = std::size_t{1} << 20;
    server_ = std::make_unique<service::PlanServer>(opts);
    server_->start();
    expect_ = {};
    renamed_ = 0;
    // Warm-up: the first submission of each base is a full compile, then
    // two untimed batches.
    {
      service::PlanClient client = service::PlanClient::connectTcp(port());
      for (int b = 0; b < kBases; ++b) {
        const auto resp = client.parallelize(
            ProgramGenerator::request(bases_[b], ""));
        ++expect_.l2Misses;
        tally_.add(resp.dpl == baseDpl_[b] && !resp.cacheHit);
      }
    }
    for (int i = 0; i < 2; ++i) (void)sample(nullptr, false);
    reqMs_.clear();
    timedStart_ = serverCounts();
  }

  Timing sample(Tracer* tracer, bool record) override {
    std::vector<Request> batch = makeBatch();
    std::vector<service::PlanResponse> responses(batch.size());
    std::vector<double> reqMs(batch.size());
    std::vector<bool> ok(batch.size(), true);
    framing::NetCounters net;
    const std::string cls = kClassNames[cls_];
    TraceSpan round(tracer, kCat, "round.service_" + cls);
    const double c0 = cpuMs();
    const double w0 = wallMs();
    {
      service::PlanClient client = service::PlanClient::connectTcp(port());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        TraceSpan req(tracer, kCat, "request." + cls);
        TraceSpan call(tracer, kCat, "PlanClient::parallelize");
        const double r0 = wallMs();
        try {
          responses[i] = client.parallelize(batch[i].request);
        } catch (const Error& e) {
          std::fprintf(stderr, "service: %s request: %s\n", cls.c_str(),
                       e.what());
          ok[i] = false;
        }
        reqMs[i] = wallMs() - r0;
      }
      net = client.counters();
    }
    const Timing t{cpuMs() - c0, wallMs() - w0};
    round.end();
    reqMs_.insert(reqMs_.end(), reqMs.begin(), reqMs.end());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Request& r = batch[i];
      const std::string want =
          cls_ == kExact ? baseDpl_[r.base] : localDpl(r.request);
      std::string got = responses[i].dpl;
      if (tally_.corruptNext()) got += "corrupted";
      tally_.add(ok[i] && got == want &&
                 responses[i].cacheHit == (cls_ != kNovel));
      if (record && ok[i]) {
        served_.push_back(responses[i].serverMs);
        canon_.push_back(responses[i].canonMs);
      }
    }
    if (record) {
      wireBytes_ += static_cast<double>(net.bytesSent + net.bytesRecv);
      recordedRequests_ += batch.size();
    }
    return t;
  }

  /// The SolveCache and exact-hit counters must match the requests sent.
  void finish() override {
    const parallelize::SolveCache::Stats cs = server_->cacheStats();
    const ServerCounts now = serverCounts();
    const bool ok = cs.hits == expect_.l2Hits &&
                    cs.misses == expect_.l2Misses &&
                    cs.renderingConflicts == 0 &&
                    now.exactHits == expect_.exactHits;
    if (!ok) {
      std::fprintf(stderr,
                   "service: cache counters off the requests: l2 hits "
                   "%llu/%llu, misses %llu/%llu, conflicts %llu, exact hits "
                   "%llu/%llu\n",
                   ull(cs.hits), ull(expect_.l2Hits), ull(cs.misses),
                   ull(expect_.l2Misses), ull(cs.renderingConflicts),
                   ull(now.exactHits), ull(expect_.exactHits));
    }
    tally_.add(ok);
  }

  /// Client-observed wall latency of every timed request.
  void notes(Report& report) const override {
    report.add("req_ms.p50", quantile(reqMs_, 0.5), "ms");
  }

  void perLayer(Report& report, const SpanTable& spans) const override {
    const std::string cls = kClassNames[cls_];
    const std::vector<double>& req =
        spans.durations("round.service_" + cls + "/request." + cls +
                        "/PlanClient::parallelize");
    std::vector<double> transport;
    for (std::size_t i = 0; i < req.size() && i < served_.size(); ++i) {
      transport.push_back(req[i] - served_[i]);
    }
    const std::string p = "service.";
    report.add(p + "req_ms." + cls + ".p50", quantile(req, 0.5), "ms");
    report.add(p + "req_ms." + cls + ".p99", quantile(req, 0.99), "ms");
    report.add(p + "server_ms." + cls + ".p50", quantile(served_, 0.5), "ms");
    if (cls_ != kExact) {
      report.add(p + "canon_ms." + cls + ".p50", quantile(canon_, 0.5), "ms");
    }
    report.add(p + "transport_ms." + cls + ".p50", quantile(transport, 0.5),
               "ms");
    report.add(p + "queue_wait_ms." + cls + ".mean", queueWaitMean(), "ms");
    report.add(p + "wire_bytes_per_req." + cls,
               wireBytes_ / static_cast<double>(recordedRequests_), "B");
    // The server's own view of which cache served the timed requests.
    const ServerCounts now = serverCounts();
    const double requests =
        static_cast<double>(now.requests - timedStart_.requests);
    if (cls_ == kExact) {
      report.add(
          "service.l1_hit_frac",
          static_cast<double>(now.exactHits - timedStart_.exactHits) / requests,
          "frac");
    } else if (cls_ == kRenamed) {
      report.add(
          "service.l2_hit_frac",
          static_cast<double>(now.l2Hits - timedStart_.l2Hits) / requests,
          "frac");
    }
  }

 private:
  struct Request {
    int base = 0;
    service::PlanRequest request;
  };
  struct Expected {
    std::uint64_t exactHits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
  };
  /// Counters as the server reports them.
  struct ServerCounts {
    std::uint64_t requests = 0;
    std::uint64_t exactHits = 0;
    std::uint64_t l2Hits = 0;
  };

  static unsigned long long ull(std::uint64_t v) { return v; }

  std::uint16_t port() const { return server_->port(); }

  ServerCounts serverCounts() const {
    MetricsRegistry& m = server_->serviceMetrics();
    return {m.counter("service.requests").value(),
            m.counter("service.cache.exactHits").value(),
            server_->cacheStats().hits};
  }

  /// The loop count of the i-th base or novel program: cycling through
  /// every size keeps the program sizes the same in every batch.
  static int loopCount(std::uint64_t i) {
    return ProgramGenerator::kMinLoops + static_cast<int>(i % kSizes);
  }

  /// The DPL of a fresh local compile of `req`, without any cache.
  static std::string localDpl(const service::PlanRequest& req) {
    region::World world = req.world.materialize(region::Index(1) << 28);
    const Plan plan = Session::parallelize(req.program)
                          .pieces(static_cast<std::size_t>(req.pieces))
                          .compile(world);
    return plan.parallelPlan().dpl.toString();
  }

  /// One batch of the workload's class.
  std::vector<Request> makeBatch() {
    std::vector<Request> batch(static_cast<std::size_t>(kBatch[cls_]));
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Request& r = batch[i];
      r.base = static_cast<int>(i % kBases);
      if (cls_ == kExact) {
        r.request = ProgramGenerator::request(bases_[r.base], "");
        ++expect_.exactHits;
      } else if (cls_ == kRenamed) {
        r.request = ProgramGenerator::request(
            bases_[r.base], "_r" + std::to_string(++renamed_));
        ++expect_.l2Hits;
      } else {
        r.request = ProgramGenerator::request(
            gen_->fresh(loopCount(novel_++)), "");
        ++expect_.l2Misses;
      }
    }
    return batch;
  }

  /// Mean queue wait from the server's histogram. Its buckets are too
  /// coarse for a median — every wait falls in the first, 0.1 ms one — but
  /// it keeps the exact sum of the waits.
  double queueWaitMean() const {
    for (const auto& e : server_->serviceMetrics().snapshot().entries) {
      if (e.name == "service.queueWaitMs" && e.count > 0) {
        return e.value / static_cast<double>(e.count);
      }
    }
    return 0;
  }

  void stopServer() {
    if (server_) server_->stop();
    server_.reset();
  }

  Class cls_;
  std::unique_ptr<ProgramGenerator> gen_;
  std::vector<ProgramGenerator::Kinds> bases_;
  std::vector<std::string> baseDpl_;
  std::unique_ptr<service::PlanServer> server_;
  Expected expect_;
  ServerCounts timedStart_;
  std::uint64_t renamed_ = 0;
  std::uint64_t novel_ = 0;
  std::vector<double> reqMs_;
  std::vector<double> served_;
  std::vector<double> canon_;
  double wireBytes_ = 0;
  std::size_t recordedRequests_ = 0;
};

constexpr const char* kWorkloads[] = {"compile",        "prepare",
                                      "step",           "service_exact",
                                      "service_renamed", "service_novel"};

std::unique_ptr<Workload> makeWorkload(const std::string& name, Tally& tally) {
  if (name == "compile") return std::make_unique<CompileWorkload>(tally);
  if (name == "prepare") return std::make_unique<PrepareWorkload>(tally);
  if (name == "step") return std::make_unique<StepWorkload>(tally);
  for (int c = 0; c < ServiceWorkload::kClasses; ++c) {
    if (name == std::string("service_") + ServiceWorkload::kClassNames[c]) {
      return std::make_unique<ServiceWorkload>(
          tally, static_cast<ServiceWorkload::Class>(c));
    }
  }
  return nullptr;
}

// ---- Runs. ----

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selfCheck = false;
  std::string traceFile;
};

/// Samples of one timed loop, each calibrated by the probe run before it.
struct Samples {
  std::vector<double> probe, raw, cal, wallCal;
  /// Peak RSS once kMinSamples were taken: a fixed amount of work, so the
  /// service's growing plan caches do not make it depend on machine speed.
  double peakRssMb = 0;

  void take(Probe& probe, const std::function<Timing()>& one) {
    const double p = probe.measureMs();
    const Timing t = one();
    this->probe.push_back(p);
    raw.push_back(t.cpuMs);
    cal.push_back(t.cpuMs * kProbeRefMs / p);
    wallCal.push_back(t.wallMs * kProbeRefMs / p);
  }
};

/// Runs `one` for `seconds`, and on past that until kMinSamples were taken
/// (capped at three times `seconds`).
Samples timedLoop(Probe& probe, double seconds,
                  const std::function<Timing()>& one) {
  Samples s;
  const double start = wallMs();
  while (true) {
    const double elapsed = (wallMs() - start) / 1e3;
    if (elapsed >= 3 * seconds) break;
    if (elapsed >= seconds && s.raw.size() >= kMinSamples) break;
    s.take(probe, one);
    if (s.raw.size() == kMinSamples) s.peakRssMb = perfbench::peakRssMb();
  }
  if (s.peakRssMb == 0) s.peakRssMb = perfbench::peakRssMb();
  return s;
}

void printResult(const Tally& tally, bool correct, const Report& report) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed), report.json().c_str());
}

/// The name README.md gives a workload's round metric.
const char* roundMetric(const std::string& workload) {
  if (workload == "compile") return "compile_cal_ms";
  if (workload == "prepare") return "prepare_cal_ms";
  if (workload == "step") return "step_cal_ms";
  return "batch_cal_ms";
}

int runEndToEnd(const Options& opt) {
  Probe probe;
  Tally tally;
  tally.selfCheck = opt.selfCheck;
  std::unique_ptr<Workload> w = makeWorkload(opt.workload, tally);
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const double p = probe.measureMs();
    const double c0 = cpuMs();
    w->setUp(opt.seed);
    setups.push_back((cpuMs() - c0) * kProbeRefMs / p / 1e3);
  }
  const Samples s =
      timedLoop(probe, opt.seconds, [&] { return w->sample(nullptr, false); });
  w->finish();

  Report report;
  report.add("setup_s", quantile(setups, 0.5), "s");
  report.add("cal_ms.p50", quantile(s.cal, 0.5), "ms");
  report.add("cal_ms.p90", quantile(s.cal, 0.9), "ms");
  report.add("peak_rss_mb", s.peakRssMb, "MB");

  // The same numbers under the names the workload notes use, plus the run's
  // own sizes.
  Report notes;
  const std::string m = roundMetric(opt.workload);
  notes.add(m + ".p50", quantile(s.cal, 0.5), "ms");
  notes.add(m + ".p90", quantile(s.cal, 0.9), "ms");
  notes.add(opt.workload.starts_with("service_") ? "batch_wall_cal_ms.p50"
                                                 : "wall_cal_ms.p50",
            quantile(s.wallCal, 0.5), "ms");
  w->notes(notes);
  w.reset();
  notes.add("failed_frac",
            tally.attempted == 0 ? 1.0
                                 : static_cast<double>(tally.failed) /
                                       static_cast<double>(tally.attempted),
            "frac");
  notes.add("samples", static_cast<double>(s.raw.size()), "count");
  notes.add("raw_cpu_ms.p50", quantile(s.raw, 0.5), "ms");
  notes.add("probe_ms.p50", quantile(s.probe, 0.5), "ms");
  notes.print(("workload " + opt.workload).c_str());
  report.print("end-to-end metrics");
  printResult(tally, tally.failed == 0 && tally.attempted > 0, report);
  return 0;
}

int runTraced(const Options& opt) {
  Probe probe;
  Tally tally;
  tally.selfCheck = opt.selfCheck;
  Tracer tracer(std::size_t{1} << 18);
  Report report;
  std::vector<double> probeMs;
  std::vector<std::unique_ptr<Workload>> done;
  const double share = opt.seconds / std::size(kWorkloads);
  for (const char* name : kWorkloads) {
    std::unique_ptr<Workload> w = makeWorkload(name, tally);
    w->setUp(opt.seed);
    // Alternate untraced and traced samples: the untraced ones give the
    // uncalibrated main metric, the pair gives the tracing overhead.
    std::vector<double> plain, traced;
    const double start = wallMs();
    while ((wallMs() - start) / 1e3 < share || traced.size() < 5) {
      const double p = probe.measureMs();
      probeMs.push_back(p);
      const bool on = plain.size() > traced.size();
      if (on) tracer.enable();
      const Timing t = w->sample(on ? &tracer : nullptr, on);
      tracer.disable();
      (on ? traced : plain).push_back(t.cpuMs);
    }
    w->finish();
    const double base = quantile(plain, 0.5);
    report.add(std::string("bench.cpu_ms.p50.") + name, base, "ms");
    report.add(std::string("bench.trace_overhead_frac.") + name,
               quantile(traced, 0.5) / base - 1, "frac");
    done.push_back(std::move(w));
  }
  const SpanTable spans(tracer.events());
  for (std::size_t i = 0; i < done.size(); ++i) {
    done[i]->perLayer(report, spans);
    const std::string round = std::string("round.") + kWorkloads[i];
    report.add(std::string("bench.unattributed_ms.") + kWorkloads[i],
               mean(spans.selfTimes(round)), "ms");
  }
  report.add("bench.probe_ms.p50", quantile(probeMs, 0.5), "ms");
  done.clear();
  if (!opt.traceFile.empty()) tracer.writeChromeTrace(opt.traceFile);

  spans.print();
  report.print("per-layer metrics");
  const bool complete = tracer.droppedEvents() == 0;
  printResult(tally, complete && tally.failed == 0 && tally.attempted > 0,
              report);
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload compile|prepare|step|service_exact|"
               "service_renamed|service_novel --seed N --seconds S "
               "--trace 0|1 [--trace-file PATH] [--self-check]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool hasValue = i + 1 < argc;
    if (a == "--workload" && hasValue) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && hasValue) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && hasValue) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && hasValue) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--trace-file" && hasValue) {
      opt.traceFile = argv[++i];
    } else if (a == "--self-check") {
      opt.selfCheck = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                opt.workload) == std::end(kWorkloads) ||
      opt.seconds <= 0) {
    return usage(argv[0]);
  }
  try {
    return opt.trace ? runTraced(opt) : runEndToEnd(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
