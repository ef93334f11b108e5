#ifndef O2PC_EXEC_WORLD_POOL_H_
#define O2PC_EXEC_WORLD_POOL_H_

#include <cstdint>

#include "common/arena.h"

/// \file
/// Per-worker world recycling for the run executor (DESIGN §16).
///
/// Every campaign/bench run builds a complete world — system, sites,
/// network, trace recorder, oracle scratch — and tears it down again. The
/// construction itself is microseconds; what costs is the ~150k heap
/// round trips the run performs while it lives. `WorldPool::ScopedRun`
/// recycles instead: it leases the calling worker's pooled
/// `common::MonotonicArena`, rewinds it (the previous run's world vanishes
/// in O(1)), and arms it for the scope's lifetime, so the next world is
/// bump-allocated into the same cache-warm pages.
///
/// The reset contract: a worker's run results remain readable after the
/// scope ends, *until the same worker opens its next ScopedRun* (the
/// rewind happens at open, not at close). The campaign keeps its results
/// past that point — a finished run waits for the in-order fold while its
/// worker starts the next one — so each worker deep-copies its result
/// while disarmed, right after closing the scope.
///
/// Worlds recycled this way are byte-identical to freshly constructed
/// ones: arming changes where memory comes from, never what runs compute.
/// `tests/determinism_golden_test.cc` pins fresh-vs-recycled equality of
/// journal fingerprints and telemetry JSON; `tests/arena_test.cc` pins the
/// steady-state heap-allocation count of a recycled run at zero.

namespace o2pc::exec {

class WorldPool {
 public:
  /// True when runs opened through ScopedRun actually recycle (arena
  /// machinery compiled in, reservation succeeded, not disabled via
  /// O2PC_RUN_ARENA=off). When false, ScopedRun is inert and runs allocate
  /// from the real heap — same behavior, no reuse.
  static bool Enabled() { return common::RunArenaEnabled(); }

  /// Arms the calling worker's recycled world memory for one run.
  class ScopedRun {
   public:
    ScopedRun();
    ~ScopedRun() = default;
    ScopedRun(const ScopedRun&) = delete;
    ScopedRun& operator=(const ScopedRun&) = delete;

    bool recycled() const { return scope_.armed(); }

    /// System-heap allocations since the scope opened on this thread —
    /// zero for a warm recycled run (the steady-state gate).
    std::uint64_t heap_allocs() const {
      return common::ThreadHeapAllocs() - heap_allocs_at_open_;
    }
    /// Arena-served allocations since the scope opened.
    std::uint64_t arena_allocs() const {
      return common::ThreadArenaAllocs() - arena_allocs_at_open_;
    }
    /// Bytes the current run has bumped so far (0 when not recycled).
    std::uint64_t arena_bytes() const;

   private:
    common::MonotonicArena* arena_ = nullptr;
    common::ScopedRunArena scope_;
    std::uint64_t heap_allocs_at_open_ = 0;
    std::uint64_t arena_allocs_at_open_ = 0;
  };
};

}  // namespace o2pc::exec

#endif  // O2PC_EXEC_WORLD_POOL_H_
