// World-reuse allocation tests (DESIGN §16): the monotonic run arena's
// bump/rewind/ownership mechanics, and the steady-state gate — a recycled
// campaign run performs exactly zero system-heap allocations.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "campaign/fault_plan.h"
#include "campaign/runner.h"
#include "common/arena.h"
#include "exec/world_pool.h"

namespace o2pc {
namespace {

TEST(MonotonicArenaTest, BumpsAlignedAndRewindsInPlace) {
  alignas(64) static char backing[4096];
  common::MonotonicArena arena;
  arena.AdoptReservation(backing, sizeof(backing));
  EXPECT_EQ(arena.capacity(), sizeof(backing));
  EXPECT_EQ(arena.bytes_used(), 0u);

  void* a = arena.TryAllocate(10, 8);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 8, 0u);
  void* b = arena.TryAllocate(1, 64);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
  EXPECT_TRUE(arena.Owns(a));
  EXPECT_TRUE(arena.Owns(b));
  EXPECT_FALSE(arena.Owns(&arena));
  EXPECT_GT(arena.bytes_used(), 0u);

  const std::size_t used = arena.bytes_used();
  arena.Rewind();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_GE(arena.high_water(), used);
  // Ownership is by reservation, not live offset: a stale pointer from
  // before the rewind still tests as arena-owned (its free is a no-op).
  EXPECT_TRUE(arena.Owns(a));

  // Exhaustion degrades to nullptr (caller falls back to the heap).
  EXPECT_EQ(arena.TryAllocate(sizeof(backing) + 1, 8), nullptr);
  void* c = arena.TryAllocate(sizeof(backing), 1);
  EXPECT_NE(c, nullptr);
  EXPECT_EQ(arena.TryAllocate(1, 1), nullptr);
}

campaign::CampaignRunConfig StandardRun(std::uint64_t seed) {
  campaign::CampaignRunConfig config;
  config.seed = seed;
  config.template_name = "mixed";
  config.plan = campaign::GeneratePlan("mixed", seed, config.num_sites);
  return config;
}

// The direct journal fingerprint's tables are compile-time constants, so
// no arena rewind can overwrite them: two different runs recycle one
// worker arena in turn, and each direct fingerprint must equal the hash of
// its rendered journal. In file order this test makes the process's first
// direct fingerprint, inside an armed arena.
TEST(WorldPoolTest, DirectFingerprintMatchesRenderedAcrossRewinds) {
  for (const std::uint64_t seed : {5, 6}) {
    campaign::CampaignRunConfig config = StandardRun(seed);
    config.render_journal = true;
    exec::WorldPool::ScopedRun scope;
    const campaign::CampaignRunResult result = campaign::RunOne(config);
    EXPECT_EQ(result.fingerprint, campaign::Fingerprint(result.journal))
        << "seed " << seed;
  }
}

// The acceptance gate: after warmup (payload-pool freelists filled, process
// statics constructed), a campaign run inside a recycled world performs 0
// system-heap allocations — every allocation the run makes is a bump into
// the worker's rewound arena.
TEST(WorldPoolTest, SteadyStateRecycledRunPerformsZeroHeapAllocations) {
  if (!exec::WorldPool::Enabled() || !common::HeapAllocCountingEnabled()) {
    GTEST_SKIP() << "arena machinery unavailable (sanitizer build or "
                    "O2PC_RUN_ARENA=off)";
  }
  const campaign::CampaignRunConfig config = StandardRun(11);

  std::uint64_t expected_fingerprint = 0;
  for (int warmup = 0; warmup < 3; ++warmup) {
    exec::WorldPool::ScopedRun scope;
    ASSERT_TRUE(scope.recycled());
    expected_fingerprint = campaign::RunOne(config).fingerprint;
  }

  for (int i = 0; i < 3; ++i) {
    exec::WorldPool::ScopedRun scope;
    const campaign::CampaignRunResult result = campaign::RunOne(config);
    EXPECT_EQ(result.fingerprint, expected_fingerprint);
    EXPECT_EQ(scope.heap_allocs(), 0u) << "steady-state run " << i;
    EXPECT_GT(scope.arena_allocs(), 0u);
    EXPECT_GT(scope.arena_bytes(), 0u);
  }
}

// A run armed into a recycled world must compute byte-identical artifacts;
// the full 3-seed fresh-vs-recycled equality (journals + telemetry JSON)
// lives in determinism_golden_test.cc. Here: the cheap always-on variant.
TEST(WorldPoolTest, RecycledRunFingerprintMatchesFreshRun) {
  campaign::CampaignRunConfig config = StandardRun(23);
  config.render_journal = true;
  const campaign::CampaignRunResult fresh = campaign::RunOne(config);
  std::optional<exec::WorldPool::ScopedRun> scope(std::in_place);
  const campaign::CampaignRunResult armed = campaign::RunOne(config);
  EXPECT_EQ(armed.fingerprint, fresh.fingerprint);
  EXPECT_EQ(armed.journal, fresh.journal);
  scope.reset();
}

}  // namespace
}  // namespace o2pc
