#include "runtime/session.hpp"

#include "support/check.hpp"

namespace dpart {

struct Session::Impl {
  region::World* world = nullptr;
  /// The builder's options with the observability pointers resolved to the
  /// session-owned instances where the caller supplied none.
  runtime::ExecOptions options;
  std::unique_ptr<Tracer> ownedTracer;
  std::unique_ptr<MetricsRegistry> ownedMetrics;
  /// Shared immutable compile artifact. The executor references the
  /// ParallelPlan inside its payload, which the shared_ptr keeps
  /// address-stable however the Session moves or how many sessions share
  /// the plan.
  Plan compiled;
  std::unique_ptr<runtime::PlanExecutor> executor;

  /// Points observability at session-owned instances wherever the caller
  /// supplied none. A trace file switches tracing on (on a caller-owned
  /// tracer too); without one the caller's enable state is respected.
  void resolveObservability() {
    ObservabilityOptions& obs = options.observability;
    if (!obs.traceFile.empty()) {
      if (obs.tracer == nullptr) {
        ownedTracer = std::make_unique<Tracer>();
        obs.tracer = ownedTracer.get();
      }
      obs.tracer->enable();
    }
    if (obs.metrics == nullptr) {
      ownedMetrics = std::make_unique<MetricsRegistry>();
      obs.metrics = ownedMetrics.get();
    }
  }

  /// Publishes the Table 1 compile gauges and wires an executor up to the
  /// compiled plan (shared by the fluent build() and Session::execute()).
  void finish(region::World& w) {
    world = &w;
    const parallelize::CompileStats& st = compiled.stats();
    MetricsRegistry& mx = *options.observability.metrics;
    mx.gauge("compile.inferMs").set(st.inferMs);
    mx.gauge("compile.unifyMs").set(st.unifyMs);
    mx.gauge("compile.solveMs").set(st.solveMs);
    mx.gauge("compile.rewriteMs").set(st.rewriteMs);
    mx.gauge("compile.canonMs").set(st.canonMs);
    mx.gauge("compile.cacheHit").set(st.cacheHit ? 1 : 0);
    mx.gauge("compile.parallelLoops").set(st.parallelLoops);
    mx.gauge("compile.propagate.propagations")
        .set(static_cast<double>(st.solve.propagations));
    mx.gauge("compile.propagate.prunes")
        .set(static_cast<double>(st.solve.prunes));
    mx.gauge("compile.propagate.branches")
        .set(static_cast<double>(st.solve.branches));
    mx.gauge("compile.propagate.backtracks")
        .set(static_cast<double>(st.solve.backtracks));
    mx.gauge("compile.propagate.restarts")
        .set(static_cast<double>(st.solve.restarts));
    mx.gauge("compile.proof.events")
        .set(static_cast<double>(st.proofEvents));
    mx.gauge("compile.proof.bytes").set(static_cast<double>(st.proofBytes));
    executor = std::make_unique<runtime::PlanExecutor>(
        w, compiled.parallelPlan(), compiled.pieces(), options);
  }
};

SessionBuilder Session::parallelize(const ir::Program& program) {
  return SessionBuilder(program);
}

Session Session::execute(Plan plan, region::World& world,
                         runtime::ExecOptions opts) {
  DPART_CHECK(plan.valid(),
              "Session::execute needs a compiled Plan "
              "(SessionBuilder::compile)");
  auto impl = std::make_unique<Impl>();
  impl->options = std::move(opts);
  impl->resolveObservability();
  impl->compiled = std::move(plan);
  impl->finish(world);
  return Session(std::move(impl));
}

Session::Session(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;
Session::~Session() = default;

void Session::run() {
  impl_->executor->run();
  writeArtifacts();
}

std::size_t Session::rebalances() const {
  return impl_->executor->rebalances();
}

const parallelize::ParallelPlan& Session::plan() const {
  return impl_->compiled.parallelPlan();
}

const parallelize::CompileStats& Session::stats() const {
  return impl_->compiled.stats();
}

const Plan& Session::compiledPlan() const { return impl_->compiled; }

runtime::PlanExecutor& Session::executor() { return *impl_->executor; }

const runtime::PlanExecutor& Session::executor() const {
  return *impl_->executor;
}

const std::map<std::string, region::Partition>& Session::partitions() const {
  return impl_->executor->partitions();
}

const region::Partition& Session::partition(const std::string& name) const {
  return impl_->executor->partition(name);
}

Tracer* Session::tracer() const {
  return impl_->options.observability.tracer;
}

MetricsRegistry& Session::metrics() const {
  return *impl_->options.observability.metrics;
}

void Session::writeArtifacts() const {
  const ObservabilityOptions& obs = impl_->options.observability;
  if (obs.tracer != nullptr && !obs.traceFile.empty()) {
    obs.tracer->writeChromeTrace(obs.traceFile);
  }
  if (!obs.metricsFile.empty()) {
    obs.metrics->writeJson(obs.metricsFile);
  }
}

SessionBuilder::SessionBuilder(const ir::Program& program)
    : program_(program) {}

SessionBuilder& SessionBuilder::options(runtime::ExecOptions opts) {
  options_ = std::move(opts);
  return *this;
}

SessionBuilder& SessionBuilder::compileOptions(parallelize::Options opts) {
  compileOptions_ = opts;
  return *this;
}

SessionBuilder& SessionBuilder::pieces(std::size_t n) {
  pieces_ = n;
  return *this;
}

SessionBuilder& SessionBuilder::external(std::string name,
                                         region::Partition partition) {
  externals_.emplace_back(std::move(name), std::move(partition));
  return *this;
}

SessionBuilder& SessionBuilder::externalConstraint(constraint::System system) {
  externalConstraints_.push_back(std::move(system));
  return *this;
}

SessionBuilder& SessionBuilder::capacity(std::string region,
                                         std::size_t maxPerPiece) {
  compileOptions_.vocab.capacities.push_back(
      {std::move(region), maxPerPiece});
  return *this;
}

SessionBuilder& SessionBuilder::colocate(std::string fieldA,
                                         std::string fieldB) {
  compileOptions_.vocab.affinities.push_back(
      {std::move(fieldA), std::move(fieldB), /*together=*/true});
  return *this;
}

SessionBuilder& SessionBuilder::antiAffinity(std::string fieldA,
                                             std::string fieldB) {
  compileOptions_.vocab.affinities.push_back(
      {std::move(fieldA), std::move(fieldB), /*together=*/false});
  return *this;
}

SessionBuilder& SessionBuilder::replication(std::string region,
                                            double minFactor,
                                            double maxFactor) {
  compileOptions_.vocab.replications.push_back(
      {std::move(region), minFactor, maxFactor});
  return *this;
}

SessionBuilder& SessionBuilder::proof(std::string file) {
  compileOptions_.proofFile = std::move(file);
  return *this;
}

SessionBuilder& SessionBuilder::adaptive() {
  options_.adaptive = true;
  return *this;
}

Plan SessionBuilder::compile(region::World& world, Tracer* tracer) {
  DPART_CHECK(pieces_ > 0, "SessionBuilder::pieces() must be set (> 0)");
  DPART_TRACE_SPAN(tracer, "compile", "compile");
  auto payload = std::make_shared<Plan::Payload>();
  payload->pieces = pieces_;
  // The vocabulary rules and proof certificates reason about concrete
  // piece counts; the builder's piece count is authoritative.
  compileOptions_.pieces = pieces_;
  parallelize::AutoParallelizer parallelizer(world, compileOptions_);
  parallelizer.setTracer(tracer);
  for (const constraint::System& sys : externalConstraints_) {
    parallelizer.addExternalConstraint(sys);
  }
  payload->plan = parallelizer.plan(program_);
  return Plan(std::move(payload));
}

Session SessionBuilder::build(region::World& world) {
  auto impl = std::make_unique<Session::Impl>();
  impl->options = std::move(options_);
  impl->resolveObservability();
  impl->compiled = compile(world, impl->options.observability.tracer);
  impl->finish(world);
  for (auto& [name, part] : externals_) {
    impl->executor->bindExternal(name, std::move(part));
  }
  return Session(std::move(impl));
}

Session SessionBuilder::run(region::World& world) {
  Session session = build(world);
  session.run();
  return session;
}

}  // namespace dpart
