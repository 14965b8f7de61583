// Proof-certificate emission: successful and infeasible compiles write DPRF
// certificates (consumed by tools/proof_check), the compile stats surface
// their size, and proof-emitting compiles bypass the solve cache.

#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/circuit.hpp"
#include "apps/miniaero.hpp"
#include "apps/pennant.hpp"
#include "apps/spmv.hpp"
#include "apps/stencil.hpp"
#include "parallelize/solve_cache.hpp"
#include "runtime/session.hpp"
#include "support/hash.hpp"

namespace dpart {
namespace {

std::vector<std::string> readLines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

bool hasLineStarting(const std::vector<std::string>& lines,
                     const std::string& prefix) {
  for (const std::string& l : lines) {
    if (l.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

apps::SpmvApp::Params smallParams() {
  apps::SpmvApp::Params p;
  p.rowsPerPiece = 16;
  p.pieces = 4;
  return p;
}

TEST(ProofEmission, SuccessfulCompileWritesCheckableCertificate) {
  apps::SpmvApp app(smallParams());
  const std::string path = ::testing::TempDir() + "proof_ok.dprf";
  Plan plan = Session::parallelize(app.program())
                  .pieces(4)
                  .proof(path)
                  .compile(app.world());
  EXPECT_GT(plan.stats().proofEvents, 0u);
  EXPECT_GT(plan.stats().proofBytes, 0u);

  const std::vector<std::string> lines = readLines(path);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.front(), "cert DPRF 1");
  // The trailer declares the certificate's own length: `end N`.
  std::istringstream tail(lines.back());
  std::string word;
  std::size_t declared = 0;
  tail >> word >> declared;
  EXPECT_EQ(word, "end");
  EXPECT_EQ(declared, lines.size());
  EXPECT_TRUE(hasLineStarting(lines, "begin search"));
  EXPECT_TRUE(hasLineStarting(lines, "solution"));
  EXPECT_TRUE(hasLineStarting(lines, "assign "));
  EXPECT_TRUE(hasLineStarting(lines, "expect "));
  EXPECT_FALSE(hasLineStarting(lines, "infeasible"));
}

TEST(ProofEmission, InfeasibleCompileWritesCertificateBeforeThrowing) {
  apps::SpmvApp app(smallParams());
  const std::string path = ::testing::TempDir() + "proof_infeasible.dprf";
  bool threw = false;
  try {
    (void)Session::parallelize(app.program())
        .pieces(4)
        .capacity("Y", 1)  // pigeonhole: ceil(64/4) = 16 > 1
        .proof(path)
        .compile(app.world());
  } catch (const constraint::InfeasibleError& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find("capacity"), std::string::npos);
  }
  ASSERT_TRUE(threw);

  const std::vector<std::string> lines = readLines(path);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.front(), "cert DPRF 1");
  EXPECT_TRUE(hasLineStarting(lines, "vocab capacity "));
  EXPECT_TRUE(hasLineStarting(lines, "infeasible "));
  EXPECT_FALSE(hasLineStarting(lines, "solution"));
}

TEST(ProofEmission, VocabularyCertificateEchoesAllConstraintKinds) {
  apps::SpmvApp app(smallParams());
  const std::string path = ::testing::TempDir() + "proof_vocab.dprf";
  Plan plan = Session::parallelize(app.program())
                  .pieces(4)
                  .capacity("Y", 16)
                  .replication("Y", 0.0, 4.0)
                  .proof(path)
                  .compile(app.world());
  EXPECT_GT(plan.stats().proofEvents, 0u);
  const std::vector<std::string> lines = readLines(path);
  EXPECT_TRUE(hasLineStarting(lines, "vocab capacity "));
  EXPECT_TRUE(hasLineStarting(lines, "vocab replicate "));
  EXPECT_TRUE(hasLineStarting(lines, "solution"));
}

TEST(ProofEmission, ProofCompilesBypassTheSolveCache) {
  apps::SpmvApp app(smallParams());
  parallelize::SolveCache cache;

  parallelize::Options warm;
  warm.solveCache = &cache;
  parallelize::ParallelPlan first =
      parallelize::AutoParallelizer(app.world(), warm).plan(app.program());
  EXPECT_FALSE(first.stats.cacheHit);

  // Same program again: served from the cache...
  parallelize::ParallelPlan again =
      parallelize::AutoParallelizer(app.world(), warm).plan(app.program());
  EXPECT_TRUE(again.stats.cacheHit);

  // ...but a proof-emitting compile must rerun the real solve (a cached
  // solution has no search trail to certify).
  parallelize::Options proving = warm;
  proving.proofFile = ::testing::TempDir() + "proof_nocache.dprf";
  parallelize::ParallelPlan proved =
      parallelize::AutoParallelizer(app.world(), proving).plan(app.program());
  EXPECT_FALSE(proved.stats.cacheHit);
  EXPECT_GT(proved.stats.proofEvents, 0u);
  EXPECT_EQ(proved.dpl.toString(), first.dpl.toString());
}

// FNV-1a-64 of the certificate a 4-piece compile of `program` writes.
std::uint64_t certificateHash(const region::World& world,
                              const ir::Program& program,
                              const std::string& name) {
  parallelize::Options opts;
  opts.pieces = 4;
  opts.proofFile = ::testing::TempDir() + "trail_" + name + ".dprf";
  (void)parallelize::AutoParallelizer(world, opts).plan(program);
  std::ifstream in(opts.proofFile, std::ios::binary);
  EXPECT_TRUE(in.good()) << opts.proofFile;
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  return fnv1a64(bytes);
}

// A certificate logs every node, candidate, dedup, branch and leaf of the
// decisive solve, so pinning its bytes pins the search trail itself, not
// only the plan it ends in (the golden plan hashes pin that). The apps run
// at the SolveCacheFig14 sizes.
TEST(ProofEmission, SearchTrailsOfTheFiveAppsArePinned) {
  apps::SpmvApp spmv({.rowsPerPiece = 64, .nnzPerRow = 3, .pieces = 4});
  EXPECT_EQ(certificateHash(spmv.world(), spmv.program(), "spmv"),
            0xae021533763d8ee3ULL);
  apps::StencilApp stencil({.rowsPerPiece = 8, .cols = 8, .pieces = 4});
  EXPECT_EQ(certificateHash(stencil.world(), stencil.program(), "stencil"),
            0x8bc55cd9e8e23260ULL);
  apps::MiniAeroApp miniaero({.nx = 4, .ny = 4, .nzPerPiece = 4,
                              .pieces = 4});
  EXPECT_EQ(certificateHash(miniaero.world(), miniaero.program(), "miniaero"),
            0xb0b2b116d92d8d7aULL);
  apps::CircuitApp circuit({.pieces = 4, .nodesPerCluster = 32,
                            .wiresPerCluster = 64});
  EXPECT_EQ(certificateHash(circuit.world(), circuit.program(), "circuit"),
            0x81c7e232fea3cc50ULL);
  apps::PennantApp pennant({.zx = 4, .zyPerPiece = 4, .pieces = 4});
  EXPECT_EQ(certificateHash(pennant.world(), pennant.program(), "pennant"),
            0x6b5cc82e07284fb8ULL);
}

}  // namespace
}  // namespace dpart
