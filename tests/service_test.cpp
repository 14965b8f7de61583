// Partitioning-as-a-service: PlanServer/PlanClient over the DPMG framing,
// the shape-only wire protocol, the cross-tenant plan cache, per-tenant
// metrics isolation, and the stable error taxonomy crossing the wire.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "ir/ir.hpp"
#include "runtime/session.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace dpart::service {
namespace {

constexpr region::Index kParticles = 400;
constexpr region::Index kCells = 40;

void buildWorld(region::World& world) {
  auto& particles = world.addRegion("Particles", kParticles);
  auto& cells = world.addRegion("Cells", kCells);
  particles.addField("cell", region::FieldType::Idx);
  particles.addField("pos", region::FieldType::F64);
  cells.addField("vel", region::FieldType::F64);
  world.defineFieldFn("Particles", "cell", "Cells");
}

ir::Program makeProgram(const std::string& name = "service_test") {
  ir::Program prog;
  prog.name = name;
  ir::LoopBuilder b("update", "p", "Particles");
  b.loadIdx("c", "Particles", "cell", "p");
  b.loadF64("v", "Cells", "vel", "c");
  b.compute("dp", {"v"}, [](auto v) { return 2.0 * v[0]; });
  b.reduce("Particles", "pos", "p", "dp");
  prog.loops.push_back(b.build());
  return prog;
}

/// Same structure as makeProgram under renamed regions/fields/symbols — the
/// isomorphic cross-tenant program that must hit the shared plan cache.
void buildRenamedWorld(region::World& world) {
  auto& atoms = world.addRegion("Atoms", kParticles);
  auto& bins = world.addRegion("Bins", kCells);
  atoms.addField("bin", region::FieldType::Idx);
  atoms.addField("x", region::FieldType::F64);
  bins.addField("force", region::FieldType::F64);
  world.defineFieldFn("Atoms", "bin", "Bins");
}

ir::Program makeRenamedProgram() {
  ir::Program prog;
  prog.name = "renamed";
  ir::LoopBuilder b("step", "a", "Atoms");
  b.loadIdx("k", "Atoms", "bin", "a");
  b.loadF64("f", "Bins", "force", "k");
  b.compute("dx", {"f"}, [](auto f) { return f[0]; });
  b.reduce("Atoms", "x", "a", "dx");
  prog.loops.push_back(b.build());
  return prog;
}

PlanRequest makeRequest(const std::string& tenant, region::World& world,
                        const ir::Program& prog, std::uint64_t pieces = 4) {
  PlanRequest req;
  req.tenant = tenant;
  req.pieces = pieces;
  req.world = WorldShape::describe(world);
  req.program = prog;
  return req;
}

/// Starts a loopback-TCP server with sensible test options.
struct ServerFixture {
  explicit ServerFixture(ServerOptions opts = {}) : server(tuned(opts)) {
    server.start();
  }
  static ServerOptions tuned(ServerOptions opts) {
    if (opts.recvTimeoutMicros == 5'000'000) {
      opts.recvTimeoutMicros = 10'000'000;
    }
    return opts;
  }
  PlanServer server;
};

TEST(ServiceProtocol, RequestSurvivesTheWire) {
  region::World world;
  buildWorld(world);
  PlanRequest req = makeRequest("acme", world, makeProgram());
  req.enableRelaxation = false;
  req.enableUnification = false;

  const std::vector<std::uint8_t> bytes = encodeRequest(req);
  BinaryReader r(bytes);
  const PlanRequest got = decodeRequest(r);

  EXPECT_EQ(got.tenant, "acme");
  EXPECT_EQ(got.pieces, 4u);
  EXPECT_FALSE(got.enableRelaxation);
  EXPECT_TRUE(got.enableDisjointReduction);
  EXPECT_FALSE(got.enableUnification);
  ASSERT_EQ(got.world.regions.size(), 2u);
  const RegionShape* particles = nullptr;
  for (const RegionShape& rs : got.world.regions) {
    if (rs.name == "Particles") particles = &rs;
  }
  ASSERT_NE(particles, nullptr);
  EXPECT_EQ(particles->size, kParticles);
  EXPECT_EQ(particles->fields.size(), 2u);
  ASSERT_EQ(got.world.fns.size(), 1u);
  ASSERT_EQ(got.program.loops.size(), 1u);
  EXPECT_EQ(got.program.loops[0].name, "update");
  EXPECT_EQ(got.program.loops[0].body.size(),
            req.program.loops[0].body.size());
}

// Compiles `prog` against `world` with a fresh SolveCache attached, so the
// plan carries its canonical cache key (a compile without a cache to
// consult never computes one).
Plan compileKeyed(const ir::Program& prog, region::World& world) {
  parallelize::SolveCache cache;
  parallelize::Options copts;
  copts.solveCache = &cache;
  return Session::parallelize(prog).pieces(4).compileOptions(copts).compile(
      world);
}

TEST(ServiceProtocol, MaterializedShapeCompilesLikeTheOriginal) {
  region::World world;
  buildWorld(world);
  const ir::Program prog = makeProgram();
  const Plan local = compileKeyed(prog, world);

  // describe -> encode -> decode -> materialize, then compile the decoded
  // program (placeholder closures) against the placeholder world: the
  // symbolic pipeline must produce the identical plan and cache key.
  PlanRequest req = makeRequest("", world, prog);
  const std::vector<std::uint8_t> bytes = encodeRequest(req);
  BinaryReader r(bytes);
  const PlanRequest got = decodeRequest(r);
  region::World shaped = got.world.materialize(region::Index(1) << 20);
  const Plan remote = compileKeyed(got.program, shaped);

  EXPECT_NE(local.cacheKey(), 0u);
  EXPECT_EQ(local.cacheKey(), remote.cacheKey());
  EXPECT_EQ(local.parallelPlan().dpl.toString(),
            remote.parallelPlan().dpl.toString());
}

TEST(ServiceProtocol, VocabularySurvivesTheWire) {
  region::World world;
  buildWorld(world);
  PlanRequest req = makeRequest("acme", world, makeProgram());
  req.vocab.capacities.push_back({"Cells", 12});
  req.vocab.affinities.push_back({"Cells.vel", "Particles.pos", true});
  req.vocab.affinities.push_back({"Cells.vel", "Cells.vel", false});
  req.vocab.replications.push_back({"Cells", 0.5, 3.0});

  const std::vector<std::uint8_t> bytes = encodeRequest(req);
  BinaryReader r(bytes);
  const PlanRequest got = decodeRequest(r);

  ASSERT_EQ(got.vocab.capacities.size(), 1u);
  EXPECT_EQ(got.vocab.capacities[0].region, "Cells");
  EXPECT_EQ(got.vocab.capacities[0].maxPerPiece, 12u);
  ASSERT_EQ(got.vocab.affinities.size(), 2u);
  EXPECT_EQ(got.vocab.affinities[0].fieldA, "Cells.vel");
  EXPECT_EQ(got.vocab.affinities[0].fieldB, "Particles.pos");
  EXPECT_TRUE(got.vocab.affinities[0].together);
  EXPECT_FALSE(got.vocab.affinities[1].together);
  ASSERT_EQ(got.vocab.replications.size(), 1u);
  EXPECT_EQ(got.vocab.replications[0].region, "Cells");
  EXPECT_DOUBLE_EQ(got.vocab.replications[0].minFactor, 0.5);
  EXPECT_DOUBLE_EQ(got.vocab.replications[0].maxFactor, 3.0);
  EXPECT_EQ(got.vocab, req.vocab);
}

TEST(ServiceProtocol, SolveCountersSurviveTheWire) {
  PlanResponse resp;
  resp.cacheKey = 7;
  resp.propagations = 54;
  resp.prunes = 4;
  resp.branches = 11;
  resp.backtracks = 2;
  resp.restarts = 1;
  const std::vector<std::uint8_t> bytes = encodeResponse(resp);
  BinaryReader r(bytes);
  const PlanResponse got = decodeResponse(r);
  EXPECT_EQ(got.propagations, 54u);
  EXPECT_EQ(got.prunes, 4u);
  EXPECT_EQ(got.branches, 11u);
  EXPECT_EQ(got.backtracks, 2u);
  EXPECT_EQ(got.restarts, 1u);
}

TEST(ServiceProtocol, ErrorReplyRoundTripsAndRethrows) {
  const ErrorReplyMsg msg{ErrorCode::PartitionViolation, "piece 3 overlaps"};
  const std::vector<std::uint8_t> bytes = encodeError(msg);
  BinaryReader r(bytes);
  const ErrorReplyMsg got = decodeError(r);
  EXPECT_EQ(got.code, ErrorCode::PartitionViolation);
  EXPECT_EQ(got.what, "piece 3 overlaps");
  EXPECT_THROW(throwServiceError(got.code, got.what), PartitionViolation);
  EXPECT_THROW(throwServiceError(ErrorCode::BadRequest, "x"), BadRequest);
  EXPECT_THROW(throwServiceError(ErrorCode::Overloaded, "x"), Overloaded);
  EXPECT_THROW(throwServiceError(ErrorCode::Infeasible, "no solution"),
               constraint::InfeasibleError);
}

TEST(ServiceProtocol, HostileShapesAreRejected) {
  // Oversized region: the size cap must fire before any allocation.
  WorldShape big;
  big.regions.push_back(RegionShape{"R", region::Index(1) << 40, {}});
  EXPECT_THROW((void)big.materialize(region::Index(1) << 20), BadRequest);

  // Duplicate region name.
  WorldShape dup;
  dup.regions.push_back(RegionShape{"R", 8, {}});
  dup.regions.push_back(RegionShape{"R", 8, {}});
  EXPECT_THROW((void)dup.materialize(region::Index(1) << 20), BadRequest);

  // Truncated payload decodes to BadRequest-able corruption, not UB.
  region::World world;
  buildWorld(world);
  std::vector<std::uint8_t> bytes =
      encodeRequest(makeRequest("", world, makeProgram()));
  bytes.resize(bytes.size() / 2);
  BinaryReader r(bytes);
  EXPECT_THROW((void)decodeRequest(r), Error);
}

TEST(ServiceServer, ServesAPlanThatMatchesLocalCompile) {
  region::World world;
  buildWorld(world);
  const ir::Program prog = makeProgram();
  const Plan local = compileKeyed(prog, world);

  ServerFixture fx;
  PlanClient client = PlanClient::connectTcp(fx.server.port());
  const PlanResponse resp =
      client.parallelize(makeRequest("acme", world, prog));

  EXPECT_NE(local.cacheKey(), 0u);
  EXPECT_EQ(resp.cacheKey, local.cacheKey());
  EXPECT_FALSE(resp.cacheHit);
  EXPECT_EQ(resp.dpl, local.parallelPlan().dpl.toString());
  EXPECT_EQ(resp.parallelLoops, 1);
  ASSERT_EQ(resp.loops.size(), 1u);
  EXPECT_EQ(resp.loops[0].name, "update");
  EXPECT_GT(resp.serverMs, 0.0);
  EXPECT_GT(client.counters().bytesSent, 0u);
  EXPECT_GT(client.counters().messagesRecv, 0u);
}

TEST(ServiceServer, UnixSocketWorksToo) {
  ServerOptions opts;
  opts.unixPath = "service_test.sock";
  ServerFixture fx(opts);
  region::World world;
  buildWorld(world);
  PlanClient client = PlanClient::connectUnix(fx.server.unixPath());
  const PlanResponse resp =
      client.parallelize(makeRequest("", world, makeProgram()));
  EXPECT_NE(resp.cacheKey, 0u);
}

TEST(ServiceServer, IsomorphicProgramsAcrossTenantsShareOneSolve) {
  ServerFixture fx;
  region::World worldA;
  buildWorld(worldA);
  region::World worldB;
  buildRenamedWorld(worldB);

  PlanClient a = PlanClient::connectTcp(fx.server.port());
  PlanClient b = PlanClient::connectTcp(fx.server.port());
  const PlanResponse cold =
      a.parallelize(makeRequest("tenant-a", worldA, makeProgram()));
  const PlanResponse warm =
      b.parallelize(makeRequest("tenant-b", worldB, makeRenamedProgram()));

  EXPECT_FALSE(cold.cacheHit);
  EXPECT_TRUE(warm.cacheHit) << "renamed-but-isomorphic program must hit "
                                "the cross-tenant cache";
  EXPECT_EQ(cold.cacheKey, warm.cacheKey);

  // Resubmitting the identical program is bitwise the same DPL.
  const PlanResponse again =
      a.parallelize(makeRequest("tenant-a", worldA, makeProgram()));
  EXPECT_TRUE(again.cacheHit);
  EXPECT_EQ(again.dpl, cold.dpl);

  // Per-tenant metrics stay isolated; the rollup sees everything.
  MetricsRegistry& ta = fx.server.tenantMetrics("tenant-a");
  MetricsRegistry& tb = fx.server.tenantMetrics("tenant-b");
  EXPECT_EQ(ta.counter("tenant.requests").value(), 2u);
  EXPECT_EQ(tb.counter("tenant.requests").value(), 1u);
  EXPECT_EQ(ta.counter("tenant.cache.hits").value(), 1u);
  EXPECT_EQ(tb.counter("tenant.cache.hits").value(), 1u);
  EXPECT_EQ(fx.server.serviceMetrics().counter("service.requests").value(),
            3u);
  const parallelize::SolveCache::Stats cs = fx.server.cacheStats();
  EXPECT_EQ(cs.entries, 1u);
  // The renamed program reached the canonical (L2) cache and hit; the
  // byte-identical resubmission was absorbed by the exact-request response
  // memo (L1) and never touched the compiler.
  EXPECT_EQ(cs.hits, 1u);
  EXPECT_EQ(
      fx.server.serviceMetrics().counter("service.cache.exactHits").value(),
      1u);
}

TEST(ServiceServer, ErrorTaxonomyTravelsWithStableCodes) {
  ServerFixture fx;
  region::World world;
  buildWorld(world);

  // pieces == 0 -> BadRequest, connection stays usable afterwards.
  PlanClient client = PlanClient::connectTcp(fx.server.port());
  EXPECT_THROW(
      (void)client.parallelize(makeRequest("", world, makeProgram(), 0)),
      BadRequest);

  // Unknown region in the program body -> server-side compile Error travels
  // back; the client rethrows and the connection still serves.
  ir::Program bad = makeProgram();
  bad.loops[0].iterRegion = "NoSuchRegion";
  EXPECT_THROW((void)client.parallelize(makeRequest("", world, bad)), Error);

  // Garbage payload inside a structurally valid frame (magic + CRC fine,
  // bytes inside meaningless) -> BadRequest, not a crash.
  {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(fx.server.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const std::vector<std::uint8_t> junk(64, 0xAB);
    framing::sendFrame(fd, static_cast<std::uint8_t>(MsgType::Request), junk,
                       /*node=*/0);
    auto reply = framing::recvFrame(
        fd, 10'000'000, 64ull << 20, /*node=*/0,
        static_cast<std::uint8_t>(MsgType::Request),
        static_cast<std::uint8_t>(MsgType::Shutdown));
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(static_cast<MsgType>(reply->type), MsgType::ErrorReply);
    BinaryReader r(reply->payload);
    EXPECT_EQ(decodeError(r).code, ErrorCode::BadRequest);
    ::close(fd);
  }

  // A healthy request afterwards still succeeds on the same connection.
  const PlanResponse ok =
      client.parallelize(makeRequest("", world, makeProgram()));
  EXPECT_NE(ok.cacheKey, 0u);
  EXPECT_GT(fx.server.serviceMetrics()
                .counter("service.errors",
                         {{"kind", toString(ErrorCode::BadRequest)}})
                .value(),
            0u);
}

TEST(ServiceServer, MalformedFramesOnlyKillTheirOwnConnection) {
  ServerFixture fx;

  // A hostile client writes bytes that are not a DPMG frame at all.
  PlanClient victim = PlanClient::connectTcp(fx.server.port());
  {
    PlanClient hostileConn = PlanClient::connectTcp(fx.server.port());
    // Reach under the abstraction: raw garbage on a fresh socket.
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(fx.server.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const char garbage[] = "this is not a DPMG frame, not even close";
    ASSERT_GT(::write(fd, garbage, sizeof(garbage)), 0);
    ::close(fd);
  }

  // The server survived and still serves well-formed clients.
  region::World world;
  buildWorld(world);
  const PlanResponse resp =
      victim.parallelize(makeRequest("", world, makeProgram()));
  EXPECT_NE(resp.cacheKey, 0u);
}

TEST(ServiceServer, OverloadedWhenTheAdmissionQueueIsFull) {
  ServerOptions opts;
  opts.queueCapacity = 0;  // reject every connection at admission
  ServerFixture fx(opts);
  PlanClient client = PlanClient::connectTcp(fx.server.port());
  region::World world;
  buildWorld(world);
  EXPECT_THROW((void)client.parallelize(makeRequest("", world, makeProgram())),
               Overloaded);
  EXPECT_GT(fx.server.serviceMetrics().counter("service.rejected").value(),
            0u);
}

TEST(ServiceServer, StatsRequestReturnsRollupAndTenantJson) {
  ServerFixture fx;
  region::World world;
  buildWorld(world);
  PlanClient client = PlanClient::connectTcp(fx.server.port());
  (void)client.parallelize(makeRequest("acme", world, makeProgram()));
  (void)client.parallelize(makeRequest("acme", world, makeProgram()));

  const std::string rollup = client.stats();
  EXPECT_NE(rollup.find("service.requests"), std::string::npos);
  EXPECT_NE(rollup.find("service.cache.hits"), std::string::npos);
  EXPECT_NE(rollup.find("service.latency.p50Ms"), std::string::npos);
  EXPECT_NE(rollup.find("service.latency.p99Ms"), std::string::npos);

  const std::string tenant = client.stats("acme");
  EXPECT_NE(tenant.find("tenant.requests"), std::string::npos);
  EXPECT_EQ(tenant.find("service.requests"), std::string::npos)
      << "tenant stats must not leak the service rollup";
}

TEST(ServiceServer, ManyConcurrentClientsAllGetTheSamePlan) {
  ServerOptions opts;
  opts.workers = 4;
  ServerFixture fx(opts);
  constexpr int kClients = 16;
  std::vector<std::thread> threads;
  std::vector<std::string> dpls(kClients);
  std::atomic<int> failures{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      try {
        region::World world;
        buildWorld(world);
        PlanClient c = PlanClient::connectTcp(fx.server.port());
        const PlanResponse r = c.parallelize(
            makeRequest("tenant-" + std::to_string(i % 4), world,
                        makeProgram()));
        dpls[static_cast<std::size_t>(i)] = r.dpl;
      } catch (const Error&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(dpls[static_cast<std::size_t>(i)], dpls[0])
        << "cached plans must be identical across clients";
  }
  const parallelize::SolveCache::Stats cs = fx.server.cacheStats();
  EXPECT_EQ(cs.entries, 1u);
  // Every request is either an L1 (exact-request memo) or L2 (canonical)
  // hit, except the handful of cold solves racing before the first insert;
  // the service counters roll both levels up.
  MetricsRegistry& sm = fx.server.serviceMetrics();
  const std::uint64_t hits = sm.counter("service.cache.hits").value();
  const std::uint64_t misses = sm.counter("service.cache.misses").value();
  EXPECT_EQ(hits + misses, static_cast<std::uint64_t>(kClients));
  EXPECT_GE(hits, static_cast<std::uint64_t>(kClients - 4))
      << "at most #workers concurrent cold solves may race per key";
}

TEST(ServiceServer, InfeasibleVocabularyTravelsAsItsOwnCode) {
  ServerFixture fx;
  region::World world;
  buildWorld(world);
  PlanClient client = PlanClient::connectTcp(fx.server.port());

  // 400 particles over 4 pieces force a 100-element piece: a 10-element
  // capacity is a pigeonhole contradiction. The request is well-formed, so
  // the failure must travel as Infeasible — not BadRequest — and carry the
  // first conflict's provenance.
  PlanRequest req = makeRequest("acme", world, makeProgram());
  req.vocab.capacities.push_back({"Particles", 10});
  try {
    (void)client.parallelize(req);
    FAIL() << "expected InfeasibleError";
  } catch (const constraint::InfeasibleError& e) {
    EXPECT_EQ(e.errorCode(), ErrorCode::Infeasible);
    EXPECT_NE(std::string(e.what()).find("capacity-comp"),
              std::string::npos);
  }

  // A malformed vocabulary on the same connection is BadRequest instead,
  // whichever shape check it fails.
  PlanRequest bad = makeRequest("acme", world, makeProgram());
  bad.vocab.affinities.push_back({"NoSuchRegion.f", "Cells.vel", true});
  EXPECT_THROW((void)client.parallelize(bad), BadRequest);
  PlanRequest inverted = makeRequest("acme", world, makeProgram());
  inverted.vocab.replications.push_back({"Particles", 2.0, 1.0});
  EXPECT_THROW((void)client.parallelize(inverted), BadRequest);
  PlanRequest negative = makeRequest("acme", world, makeProgram());
  negative.vocab.replications.push_back({"Particles", -0.5, 0.0});
  EXPECT_THROW((void)client.parallelize(negative), BadRequest);

  // The connection survives both failures.
  const PlanResponse ok =
      client.parallelize(makeRequest("acme", world, makeProgram()));
  EXPECT_NE(ok.cacheKey, 0u);
}

TEST(ServiceServer, FeasibleVocabularyCompilesAndReportsCounters) {
  ServerFixture fx;
  region::World world;
  buildWorld(world);
  PlanClient client = PlanClient::connectTcp(fx.server.port());

  PlanRequest req = makeRequest("acme", world, makeProgram());
  req.vocab.capacities.push_back({"Particles", 100});  // exactly 400/4
  const PlanResponse resp = client.parallelize(req);
  // Vocabulary compiles bypass the solve cache, so they compute no key.
  EXPECT_FALSE(resp.cacheHit);
  EXPECT_EQ(resp.cacheKey, 0u);
  EXPECT_EQ(resp.canonMs, 0.0);
  EXPECT_EQ(fx.server.cacheStats().misses, 0u);
  EXPECT_NE(resp.dpl, "");
  EXPECT_GT(resp.propagations, 0u);

  // The same request without the vocabulary must not collide with the
  // constrained compile in any cache layer.
  const PlanResponse plain =
      client.parallelize(makeRequest("acme", world, makeProgram()));
  EXPECT_EQ(plain.propagations, 0u);
}

TEST(ServiceServer, ShutdownFrameStopsTheServer) {
  ServerFixture fx;
  PlanClient client = PlanClient::connectTcp(fx.server.port());
  client.shutdownServer();
  fx.server.waitForStopRequest();
  fx.server.stop();
  EXPECT_FALSE(fx.server.running());
}

// A connected client that sends nothing more must not hold stop() for the
// whole receive deadline: the worker parked on it is released at once.
TEST(ServiceServer, StopDoesNotWaitOutIdleClients) {
  ServerOptions opts;
  opts.recvTimeoutMicros = 30'000'000;
  ServerFixture fx(opts);
  region::World world;
  buildWorld(world);
  PlanClient client = PlanClient::connectTcp(fx.server.port());
  // One answered request proves a worker is serving this connection.
  (void)client.parallelize(makeRequest("idle", world, makeProgram()));

  const auto t0 = std::chrono::steady_clock::now();
  fx.server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
  EXPECT_FALSE(fx.server.running());
}

}  // namespace
}  // namespace dpart::service
