// Randomized end-to-end property test: generate random (but parallelizable
// by construction) multi-loop programs over randomly wired regions,
// auto-parallelize them, execute on random piece counts with full access
// validation, and require the results to match the serial interpreter.
//
// This closes the loop on the paper's soundness claim: whatever partitioning
// strategy the solver picks — equal, preimage, unions of preimages under
// relaxation, private sub-partitions — the parallel execution must preserve
// the sequential semantics. Each seed's plan is also pinned by value (the
// FNV-1a-64 hash of its printed form), so a compiler refactor that changes
// any plan fails here even when the changed plan still executes correctly.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "ir/interp.hpp"
#include "parallelize/parallelize.hpp"
#include "random_program.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/executor.hpp"
#include "support/rng.hpp"

namespace dpart {
namespace {

using fuzz::FuzzCase;
using fuzz::makeCase;
using region::FieldType;

// CheckpointManager::hashPlan (FNV-1a-64 of ParallelPlan::toString()) of
// each seed's plan, indexed by seed.
constexpr std::uint64_t kGoldenPlanHash[60] = {
    0xd5c1c0862c097c7aULL, 0x090e3af13a4f2f27ULL, 0x75e29f3f35dd92b4ULL,
    0xbdea48190f96b5b3ULL, 0x0a8234be04cdeaa4ULL, 0xee68d15fb86dea79ULL,
    0x9359127cef481ec4ULL, 0x134b034e88cef5ecULL, 0x39afa69d837db2bcULL,
    0xf633539e7e497174ULL, 0x52f1f78e684cec3fULL, 0xf2051ffc2557e284ULL,
    0x4bdeb7f81b1e7d59ULL, 0xf633539e7e497174ULL, 0x78205b3eb06a09bcULL,
    0x594974b96a2597f4ULL, 0x6b3fa7fb1de31a1fULL, 0xa8cfcb7fe664e9e6ULL,
    0x65c4fa24d2a6d30cULL, 0xf55f0577eac2e40eULL, 0x0174b80c6191140dULL,
    0x782748cdd54f1538ULL, 0x66518159b06d08f5ULL, 0xe53cdb03ac93de80ULL,
    0x5ccec6d46b4105d9ULL, 0x452c1db9f02ab7f1ULL, 0xed4d643be25bac26ULL,
    0x75c926d068497fb9ULL, 0x1f1d4f6f94d934b8ULL, 0x7a1c67ba09d20c31ULL,
    0x600fc0ffc5339515ULL, 0xe0d46b4b61dce9dfULL, 0x452c1db9f02ab7f1ULL,
    0x93aab095154f3b0bULL, 0x9c02e23e495b2176ULL, 0x18431cd7394be767ULL,
    0xd80e0ab616f181e0ULL, 0x55f743ebff520f7dULL, 0xc97879ebb76a9e6eULL,
    0x881d386a70c653e8ULL, 0x24c31d756cb74161ULL, 0xd74ee05375910e5cULL,
    0x2358c0d494d3925cULL, 0x7a65d90ee076e872ULL, 0x13bf41651f11423fULL,
    0xc136dcdf4767c4b4ULL, 0xec190a7d0687f31cULL, 0x572ffe8b636d8085ULL,
    0x61df5d9141268830ULL, 0xed1614d5aee9c8a4ULL, 0x75c926d068497fb9ULL,
    0x759d9a4575990c7bULL, 0xec482a4b67d6d64bULL, 0xc69d3e4dc72f9058ULL,
    0x73ecade3ca276518ULL, 0xb57c2c8a38e92e7dULL, 0xb3ad1cba14deff20ULL,
    0xd09b5d714950439bULL, 0x3fe43945a7091fa9ULL, 0x27a85e0f3f3599b6ULL,
};

class RandomProgramTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProgramTest, AutoParallelExecutionMatchesSerial) {
  const std::uint64_t seed = GetParam();

  FuzzCase serial = makeCase(seed);
  for (int step = 0; step < 2; ++step) {
    ir::runSerial(*serial.world, serial.program);
  }

  Rng rng(seed * 31 + 7);
  const std::size_t pieces = 1 + rng.below(7);
  FuzzCase parallel = makeCase(seed);
  parallelize::AutoParallelizer ap(*parallel.world);
  parallelize::ParallelPlan plan = ap.plan(parallel.program);
  EXPECT_EQ(runtime::CheckpointManager::hashPlan(plan), kGoldenPlanHash[seed])
      << "seed " << seed << " plan changed:\n" << plan.toString();

  runtime::ExecOptions opts;
  opts.validateAccesses = true;
  runtime::PlanExecutor exec(*parallel.world, plan, pieces, opts);
  for (int step = 0; step < 2; ++step) exec.run();

  // The unvalidated path, the one users run, computes the same bits.
  FuzzCase unchecked = makeCase(seed);
  runtime::PlanExecutor fast(*unchecked.world, plan, pieces);
  for (int step = 0; step < 2; ++step) fast.run();

  for (const char* regionName : {"A", "B"}) {
    for (const std::string& field :
         serial.world->region(regionName).fieldNames()) {
      if (serial.world->region(regionName).fieldType(field) !=
          FieldType::F64) {
        continue;
      }
      auto want = serial.world->region(regionName).f64(field);
      auto got = parallel.world->region(regionName).f64(field);
      auto fastGot = unchecked.world->region(regionName).f64(field);
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_NEAR(want[i], got[i], 1e-9 * (1 + std::abs(want[i])))
            << "seed " << seed << " pieces " << pieces << " " << regionName
            << "." << field << "[" << i << "]";
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(fastGot[i]))
            << "seed " << seed << " unvalidated " << regionName << "."
            << field << "[" << i << "]";
      }
    }
  }

  // Every iteration-space partition the solver chose must be complete
  // (COMP is a hard constraint from Algorithm 1).
  exec.preparePartitions();
  for (const auto& pl : plan.loops) {
    const auto& part = exec.partition(pl.iterPartition);
    EXPECT_TRUE(part.isComplete(
        parallel.world->region(pl.loop->iterRegion).size()))
        << "seed " << seed << " loop " << pl.loop->name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Range<std::uint64_t>(0, 60));

}  // namespace
}  // namespace dpart
